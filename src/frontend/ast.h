// MiniC abstract syntax tree (the "source AST" of the paper, Sec. III-A).
//
// The tree preserves what Mira needs from the ROSE source AST: statement
// order, loop SCoP structure (init / condition / increment as explicit
// children, cf. paper Fig. 2), variable names, class/member structure, and
// exact line numbers on every node — line numbers are the bridge to the
// binary AST.
//
// Ownership: a node owns its children through an ArenaPtr, and its child
// lists are ArenaLists; non-owning observers use raw pointers. Every node
// and list lives in the AstArena of its TranslationUnit, a few large
// chunks instead of one heap block per node. Destroying an owner runs its
// children's destructors (names are strings, annotations maps); the
// memory goes back when the unit, which owns the arena, is destroyed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/source_location.h"

namespace mira::frontend {

// ------------------------------------------------------------------ arena

/// Owning pointer to an arena-built node: dropping it runs the node's
/// destructor, and the memory stays with the arena.
template <class T> struct ArenaDelete {
  void operator()(T *node) const { node->~T(); }
};
template <class T> using ArenaPtr = std::unique_ptr<T, ArenaDelete<T>>;

/// A fixed-size array of T in arena memory. It owns its elements (its
/// destructor runs theirs) but not their storage.
template <class T> class ArenaList {
public:
  ArenaList() = default;
  ArenaList(T *items, std::uint32_t size) : items_(items), size_(size) {}
  ArenaList(ArenaList &&other) noexcept
      : items_(std::exchange(other.items_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  ArenaList &operator=(ArenaList &&other) noexcept {
    if (this != &other) {
      std::destroy_n(items_, size_);
      items_ = std::exchange(other.items_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~ArenaList() { std::destroy_n(items_, size_); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T *begin() { return items_; }
  T *end() { return items_ + size_; }
  const T *begin() const { return items_; }
  const T *end() const { return items_ + size_; }
  T &operator[](std::size_t i) { return items_[i]; }
  const T &operator[](std::size_t i) const { return items_[i]; }
  const T &front() const { return items_[0]; }
  const T &back() const { return items_[size_ - 1]; }

private:
  T *items_ = nullptr;
  std::uint32_t size_ = 0;
};

/// Chunked bump storage for one translation unit's nodes and lists. A
/// chunk is one heap block of kChunkBytes (or one block of its own for a
/// larger request); all of them are freed when the arena is destroyed.
/// Only its unit's parser and analyzer allocate from it, and nothing
/// refers to an arena but the unit that owns it.
class AstArena {
public:
  AstArena() = default;
  AstArena(const AstArena &) = delete;
  AstArena &operator=(const AstArena &) = delete;
  ~AstArena();

  /// A T built in place; its owner runs the destructor.
  template <class T, class... Args> ArenaPtr<T> make(Args &&...args) {
    return ArenaPtr<T>(new (allocate(sizeof(T), alignof(T)))
                           T(std::forward<Args>(args)...));
  }

  /// Moves scratch[from, end) into an arena list and erases it from
  /// `scratch`, which a parser reuses as a stack across nested lists.
  template <class T>
  ArenaList<T> adopt(std::vector<T> &scratch, std::size_t from) {
    const std::size_t count = scratch.size() - from;
    if (count == 0)
      return {};
    T *items = static_cast<T *>(allocate(count * sizeof(T), alignof(T)));
    std::uninitialized_move(scratch.begin() + static_cast<std::ptrdiff_t>(from),
                            scratch.end(), items);
    scratch.erase(scratch.begin() + static_cast<std::ptrdiff_t>(from),
                  scratch.end());
    return ArenaList<T>(items, static_cast<std::uint32_t>(count));
  }

  /// A list of exactly `items`, moved in.
  template <class T, std::size_t N> ArenaList<T> list(T (&&items)[N]) {
    T *out = static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
    std::uninitialized_move(items, items + N, out);
    return ArenaList<T>(out, static_cast<std::uint32_t>(N));
  }

private:
  static constexpr std::size_t kChunkBytes = 16 * 1024;

  void *allocate(std::size_t bytes, std::size_t align);

  struct Chunk {
    Chunk *previous;
  };
  Chunk *chunks_ = nullptr; // newest first
  char *next_ = nullptr;
  char *end_ = nullptr;
};

// ----------------------------------------------------------------- types

enum class ScalarType { Void, Bool, Int, Long, Float, Double, Class };

struct Type {
  ScalarType scalar = ScalarType::Void;
  int pointerDepth = 0;     // 'double*' -> 1
  std::string className;    // when scalar == Class

  bool isVoid() const { return scalar == ScalarType::Void && !isPointer(); }
  bool isPointer() const { return pointerDepth > 0; }
  bool isFloatingPoint() const {
    return !isPointer() &&
           (scalar == ScalarType::Float || scalar == ScalarType::Double);
  }
  bool isInteger() const {
    return !isPointer() && (scalar == ScalarType::Bool ||
                            scalar == ScalarType::Int ||
                            scalar == ScalarType::Long);
  }
  bool operator==(const Type &o) const {
    return scalar == o.scalar && pointerDepth == o.pointerDepth &&
           className == o.className;
  }
  std::string str() const;
};

// ------------------------------------------------------------ annotations

/// A parsed '#pragma @Annotation {key:value, ...}' directive (paper
/// Sec. III-B4). Recognized keys: lp_init, lp_cond, lp_iters, ratio, skip.
struct Annotation {
  std::map<std::string, std::string> entries;
  SourceLocation location;

  bool has(const std::string &key) const { return entries.count(key) > 0; }
  std::optional<std::string> get(const std::string &key) const {
    auto it = entries.find(key);
    if (it == entries.end())
      return std::nullopt;
    return it->second;
  }
  bool skip() const {
    auto v = get("skip");
    return v && (*v == "yes" || *v == "true" || *v == "1");
  }
};

// ------------------------------------------------------------ expressions

enum class ExprKind {
  IntLiteral,
  FloatLiteral,
  BoolLiteral,
  VarRef,
  Binary,
  Unary,
  Assign,
  Call,   // free call, method call (receiver != null), or operator() call
  Index,  // base[index]
  Member, // base.field or base->field
};

enum class BinaryOp { Add, Sub, Mul, Div, Mod, Lt, Le, Gt, Ge, Eq, Ne,
                      LAnd, LOr };
enum class UnaryOp { Neg, Not, PreInc, PreDec, PostInc, PostDec };
enum class AssignOp { Assign, AddAssign, SubAssign, MulAssign, DivAssign };

const char *toString(BinaryOp op);
const char *toString(UnaryOp op);
const char *toString(AssignOp op);

struct Expression;
struct FunctionDecl;
using ExprPtr = ArenaPtr<Expression>;

struct Expression {
  ExprKind kind;
  SourceRange range;
  Type type; // filled by sema

  // literals
  std::int64_t intValue = 0;
  double floatValue = 0;
  bool boolValue = false;

  // VarRef / Call / Member
  std::string name;

  // operators
  BinaryOp binaryOp = BinaryOp::Add;
  UnaryOp unaryOp = UnaryOp::Neg;
  AssignOp assignOp = AssignOp::Assign;

  // children (meaning depends on kind):
  //   Binary: [lhs, rhs]; Unary: [operand]; Assign: [target, value];
  //   Call: args (receiver held separately); Index: [base, index];
  //   Member: [base]
  ArenaList<ExprPtr> children;
  ExprPtr receiver; // Call: object expression for method calls

  // Call resolution (filled by sema): qualified name of the callee
  // ("A::foo", "sqrt", ...), and whether it is a builtin (modeled as an
  // instruction) or an external function (invisible to static analysis —
  // the paper's main residual error source, Sec. IV-D1).
  std::string resolvedCallee;
  bool isBuiltin = false;
  bool isExtern = false;

  // Name binding (filled by sema). A VarRef names local `slot` of its
  // function (parameters first, then each declaration), or, when slot is
  // -1, `field` of the enclosing method's class; a Member names `field`
  // of its base's class; a user-function Call names `callee` (null for
  // builtins and externals).
  std::int32_t slot = -1;
  std::int32_t field = -1;
  const FunctionDecl *callee = nullptr;

  explicit Expression(ExprKind k) : kind(k) {}

  // Factories: each builds the node (and its child list) in `arena`,
  // which must be the arena of the unit the node will belong to.
  static ExprPtr intLiteral(AstArena &arena, std::int64_t value,
                            SourceRange range);
  static ExprPtr floatLiteral(AstArena &arena, double value,
                              SourceRange range);
  static ExprPtr boolLiteral(AstArena &arena, bool value, SourceRange range);
  static ExprPtr varRef(AstArena &arena, std::string name, SourceRange range);
  static ExprPtr binary(AstArena &arena, BinaryOp op, ExprPtr lhs,
                        ExprPtr rhs, SourceRange range);
  static ExprPtr unary(AstArena &arena, UnaryOp op, ExprPtr operand,
                       SourceRange range);
  static ExprPtr assign(AstArena &arena, AssignOp op, ExprPtr target,
                        ExprPtr value, SourceRange range);
  /// `args` are scratch[from, end), moved out of `scratch`.
  static ExprPtr call(AstArena &arena, std::string callee, ExprPtr receiver,
                      std::vector<ExprPtr> &scratch, std::size_t from,
                      SourceRange range);
  static ExprPtr index(AstArena &arena, ExprPtr base, ExprPtr idx,
                       SourceRange range);
  static ExprPtr member(AstArena &arena, ExprPtr base, std::string field,
                        SourceRange range);

  std::string str() const; // debugging / model comments
};

// -------------------------------------------------------------- statements

enum class StmtKind {
  Compound,
  Decl,
  ExprStmt,
  For,
  While,
  If,
  Return,
  Empty,
};

struct Statement;
using StmtPtr = ArenaPtr<Statement>;

struct Statement {
  StmtKind kind;
  SourceRange range;
  std::optional<Annotation> annotation; // attached pragma, if any

  // Decl
  Type declType;
  std::string declName;
  std::int32_t declSlot = -1;     // the local slot sema gives it
  ArenaList<ExprPtr> arrayDims;   // 'double a[N][M]' -> {N, M}
  ExprPtr declInit;               // optional

  // ExprStmt / Return (value optional) / If+While+For conditions
  ExprPtr expr;

  // For: init (Decl or ExprStmt or Empty), cond (expr), inc (expr), body
  StmtPtr forInit;
  ExprPtr forCond;
  ExprPtr forInc;

  // If
  StmtPtr thenBranch;
  StmtPtr elseBranch;

  // Compound / loop bodies
  ArenaList<StmtPtr> body;
  StmtPtr loopBody; // For/While

  explicit Statement(StmtKind k) : kind(k) {}

  /// `stmts` are scratch[from, end), moved out of `scratch`.
  static StmtPtr compound(AstArena &arena, std::vector<StmtPtr> &scratch,
                          std::size_t from, SourceRange range);
  static StmtPtr empty(AstArena &arena, SourceRange range);
};

// ------------------------------------------------------------ declarations

struct ParamDecl {
  Type type;
  std::string name;
  SourceLocation location;
};

struct FieldDecl {
  Type type;
  std::string name;
  SourceLocation location;
};

struct FunctionDecl {
  Type returnType;
  std::string name;       // "operator()" for call operators
  std::string className;  // empty for free functions
  ArenaList<ParamDecl> params;
  StmtPtr bodyStmt; // Compound
  SourceRange range;
  std::uint32_t index = 0; // position in allFunctions(), set by sema

  bool isMethod() const { return !className.empty(); }
  /// Key used to resolve calls: "Class::name" or "name".
  std::string qualifiedName() const;
  /// Model-function name per the paper ("A_foo_2": class, name, #args).
  std::string modelName() const;
};

struct ClassDecl {
  std::string name;
  ArenaList<FieldDecl> fields;
  ArenaList<ArenaPtr<FunctionDecl>> methods;
  SourceRange range;
};

struct TranslationUnit {
  /// Backs every node and list of the unit. Declared first so that it is
  /// destroyed last, after the lists below have destroyed their nodes.
  AstArena arena;
  ArenaList<ArenaPtr<ClassDecl>> classes;
  ArenaList<ArenaPtr<FunctionDecl>> functions;
  std::string fileName;

  /// Find by qualified name ("foo" or "A::foo"); nullptr if absent.
  const FunctionDecl *findFunction(const std::string &qualified) const;
  /// All functions including methods, in declaration order.
  std::vector<const FunctionDecl *> allFunctions() const;
  const ClassDecl *findClass(const std::string &name) const;
};

} // namespace mira::frontend
