// Symbolic integer expressions — the language of Mira's parametric models.
//
// The paper's generated Python models contain parametric expressions such
// as iteration counts depending on unresolved program inputs (Sec. III-C).
// Expr is an immutable DAG of integer-valued operations over named
// parameters; it can be evaluated with concrete bindings, printed as
// Python source (for the emitted model), and printed for debugging.
//
// Supported operations: integer constants, parameters, n-ary add/mul,
// floor division, exact division (division known to be remainder-free,
// used when converting rational-coefficient closed forms back to integer
// expressions), modulus, min/max, and a lazy bounded summation node used
// when no closed form exists.
//
// The builders canonicalize (flatten, fold constants, merge like terms,
// sort by the cached order key) over the operands' node arrays in
// reusable per-thread storage, and intern the result with borrowed
// operands: a call allocates only when it creates a node.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "symbolic/rational.h"

namespace mira::symbolic {

enum class ExprKind {
  IntConst,
  Param,
  Add,      // n-ary sum
  Mul,      // n-ary product
  FloorDiv, // floor(a / b)
  ExactDiv, // a / b where b | a is guaranteed (checked at evaluation)
  Mod,      // a mod b, mathematical (result in [0, b))
  Min,
  Max,
  Sum, // Sum(var, lo, hi, body): sum of body for var in [lo, hi]
};

class ExprNode;
using ExprNodeRef = std::shared_ptr<const ExprNode>;

/// Environment binding parameter names to concrete integer values.
using Env = std::map<std::string, std::int64_t>;

/// A variable name as the polynomial and polyhedral layers handle it: a
/// dense id minted by one ExprInterner (interner.h), which maps it back to
/// its name. A Symbol means nothing outside the interner that minted it.
enum class Symbol : std::uint32_t {};

/// Values bound to Symbols, indexed by Symbol id; an empty or missing
/// slot is unbound. ExprInterner::values() builds one from an Env.
using SymbolValues = std::vector<std::optional<std::int64_t>>;

/// Value-semantic handle to an immutable expression node.
class Expr {
public:
  /// Default-constructed Expr is the constant 0.
  Expr();

  // --- constructors -----------------------------------------------------
  static Expr intConst(std::int64_t value);
  static Expr param(std::string_view name);
  /// The parameter `symbol` names in the calling thread's interner.
  static Expr param(Symbol symbol);
  static Expr add(const std::vector<Expr> &operands);
  static Expr mul(const std::vector<Expr> &operands);
  /// The same over operands[0, count), for callers that keep their
  /// operands somewhere other than a std::vector.
  static Expr add(const Expr *operands, std::size_t count);
  static Expr mul(const Expr *operands, std::size_t count);
  static Expr floorDiv(Expr a, Expr b);
  static Expr exactDiv(Expr a, Expr b);
  static Expr mod(Expr a, Expr b);
  static Expr min(Expr a, Expr b);
  static Expr max(Expr a, Expr b);
  /// Lazy sum: body may reference `var` as a parameter. Empty ranges
  /// (hi < lo) evaluate to 0.
  static Expr sum(std::string_view var, Expr lo, Expr hi, Expr body);

  /// Wrap an already-interned node, bypassing the canonicalizing
  /// builders. The model reader (model/serialize.h) interns each node as
  /// it reads it, in the structure it was serialized with: re-running the
  /// builders would be at best a no-op and at worst a source of
  /// byte-level drift between cached and fresh models. The node is
  /// re-entered into the calling thread's ExprInterner, which is O(1)
  /// when that interner already owns it (the reader installs its own) and
  /// a structure-preserving reintern of a tree from another interner
  /// otherwise.
  static Expr fromNode(ExprNodeRef node);

  friend Expr operator+(const Expr &a, const Expr &b);
  friend Expr operator-(const Expr &a, const Expr &b);
  friend Expr operator*(const Expr &a, const Expr &b);
  Expr operator-() const;
  Expr &operator+=(const Expr &o) { return *this = *this + o; }
  Expr &operator-=(const Expr &o) { return *this = *this - o; }
  Expr &operator*=(const Expr &o) { return *this = *this * o; }

  // --- inspection --------------------------------------------------------
  ExprKind kind() const;
  bool isIntConst() const;
  bool isIntConst(std::int64_t value) const;
  /// Value if this is a constant.
  std::optional<std::int64_t> constValue() const;
  /// All parameter names referenced (excluding Sum-bound variables).
  std::set<std::string> parameters() const;
  const ExprNode &node() const { return *node_; }

  /// Structural equality (after builder-level canonicalization).
  /// Pointer identity for nodes interned in the same ExprInterner — the
  /// common case, since hash-consing gives every structure one canonical
  /// node per interner. Falls back to the precomputed structural hash
  /// and a pointer-shortcutting deep walk across interners.
  bool equals(const Expr &other) const;

  // --- evaluation & printing ---------------------------------------------
  /// Evaluate with all parameters bound; returns nullopt if a parameter is
  /// missing or an ExactDiv has a remainder (which indicates a bug in the
  /// closed-form producer).
  std::optional<std::int64_t> evaluate(const Env &env) const;

  /// Substitute a parameter by an expression (used to compose models).
  Expr substitute(const std::string &name, const Expr &replacement) const;

  /// Human-readable form, e.g. "(N*(N + 1))/2".
  std::string str() const;
  /// Python source form for the emitted model (floor div -> '//').
  std::string toPython() const;

private:
  explicit Expr(ExprNodeRef node) : node_(std::move(node)) {}

  ExprNodeRef node_;
};

/// Internal node. Exposed so analyses (polynomial conversion) can walk the
/// tree; construct only through Expr builders.
class ExprNode {
public:
  ExprKind kind;
  std::int64_t value = 0;             // IntConst
  std::string name;                   // Param, Sum bound variable
  std::vector<ExprNodeRef> operands;  // others

  // Hash-consing metadata, filled once by ExprInterner when it creates
  // the node; every node is created by an interner, the model reader's
  // included. `hash` is the structural hash; `key` caches the
  // canonical ordering key the builders sort commutative operand lists
  // by, in the exact historical format ("#3", "pN", "A(pN,#1,)", ...)
  // so interning cannot move bytes in any serialized output. `ownerId`
  // identifies the interner that owns the node (ids are never reused,
  // so a dead interner's nodes can never be mistaken for a live one's).
  std::uint64_t hash = 0;
  std::string key;
  std::uint64_t ownerId = 0;

  ExprNode(ExprKind k) : kind(k) {}
};

} // namespace mira::symbolic
