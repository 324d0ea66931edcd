// Hash-consing arena for symbolic expression nodes.
//
// The symbolic layer used to allocate one heap ExprNode per construction
// and compare expressions by re-serializing whole subtrees to strings
// (orderKey) — O(subtree) work on every equals() and every canonicalizing
// sort. ExprInterner replaces that with structural interning: each node
// is hashed at construction and looked up in a table, so one canonical
// node exists per structure. Within one interner, structural equality IS
// pointer identity; across interners (a model restored from cache
// compared against a freshly built one) equality falls back to the
// precomputed structural hash and a pointer-shortcutting deep walk —
// never to string building.
//
// The node table is open-addressed, like the symbol table below: owned
// nodes live in a vector, a power-of-two slot array holds their ids,
// probing is linear and compares a node's cached hash before its fields,
// and the slots double at half load. A hit allocates nothing; a miss
// allocates the node, its operand array and its order key, which is
// sized from the operands' keys and written once.
//
// Scoping: an interner is installed for the current thread with an RAII
// Scope. core::analyze installs one per compile, and so does a deferred
// ProgramHandle when it recompiles, so a compile's node churn is confined
// to one arena on one thread that dies with the request instead of
// fragmenting the global heap. The model reader (model/serialize.h)
// installs one per decoded payload and interns each node as it reads it.
// Code running outside any scope (tests, ad-hoc Expr math) falls back to
// a thread-local default interner. Because a node's canonical form caches
// its order key, parameter and bound-variable name strings are stored
// once per unique node — name interning falls out of node interning.
//
// Symbols: each interner also owns the symbol table of its arena. The
// polynomial and polyhedral layers name variables by dense Symbol ids
// instead of strings; symbol() mints one per distinct name on first sight
// (lazily, so an arena that never asks, like the model reader's, pays
// nothing), name() maps it back, and param() caches the Param node per
// symbol. The table lives and dies with its interner: a Symbol never
// leaves its arena, and nothing process-wide accumulates names. Ids
// follow mint order, which depends on the walk, so everything that
// reaches text (affine and domain strings, notes, Fourier-Motzkin's
// elimination order) orders symbols by name (nameLess()), never by id.
//
// Small constants: intConst(k) for k in [kMinSlotConstant,
// kMaxSlotConstant] (and Expr(), which is 0) reads a per-arena slot
// filled on first use, with no hash probe and no lock. The first use
// interns the node like any other; later uses never reach intern(), so
// they are not counted as hits.
//
// Thread-safety: intern() is internally synchronized (one mutex per
// interner), though every scope above is used by the one thread that
// installed it. The symbol table and the constant slots rely on that
// single owner and take no lock. The model reader's arena is a local of
// deserializeModel that no other thread can reach, so it interns through
// internUnlocked() and skips the mutex; every other arena keeps it. The
// returned nodes are immutable and shared_ptr-owned: they outlive the
// interner wherever models still reference them.
//
// Counters: process-wide hit/miss tallies are exported as
// mira_intern_{hits,misses} through core::MetricsRegistry (the server
// publishes them on every metrics render), and perfbench's traced run
// reports their per-file deltas. There is no live-node gauge: each
// request's interner dies with its analysis while cached models keep
// their nodes outside any table, so it would read 0 between requests.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "symbolic/expr.h"

namespace mira::symbolic {

/// Process-wide interning tallies (sums over every interner ever used).
struct InternStats {
  std::uint64_t hits = 0;   ///< intern() calls answered by an existing node
  std::uint64_t misses = 0; ///< intern() calls that created a new node
};

/// A hash-consing arena: one canonical ExprNode per structure.
class ExprInterner {
public:
  ExprInterner();
  ExprInterner(const ExprInterner &) = delete;
  ExprInterner &operator=(const ExprInterner &) = delete;

  /// Canonicalize a node described by borrowed fields: the name as a
  /// view and the operands as pointer + count, copied into a new node only
  /// on a miss. The operands must already be interned in THIS interner
  /// (the model reader interns bottom-up as it reads). Returns the one
  /// canonical node for the structure, creating it (with its structural
  /// hash and cached order key) on first sight.
  ExprNodeRef intern(ExprKind kind, std::int64_t value, std::string_view name,
                     const ExprNodeRef *operands, std::size_t count);

  /// intern() without the mutex, for an arena only the calling thread
  /// can reach (the model reader's per-payload interner).
  ExprNodeRef internUnlocked(ExprKind kind, std::int64_t value,
                             std::string_view name,
                             const ExprNodeRef *operands, std::size_t count);

  /// The canonical IntConst node for `value`; small values come from the
  /// per-arena slots.
  ExprNodeRef constant(std::int64_t value);

  /// The Symbol for `name`, minted on first sight.
  Symbol symbol(std::string_view name);
  /// The name `symbol` was minted for. Throws std::out_of_range for a
  /// Symbol this interner never minted. The reference is valid until the
  /// next symbol() call on this interner.
  const std::string &name(Symbol symbol) const;
  /// True when `a`'s name sorts before `b`'s: the order text uses.
  bool nameLess(Symbol a, Symbol b) const { return name(a) < name(b); }
  /// The canonical Param node for `symbol`, built on first use.
  ExprNodeRef param(Symbol symbol);
  /// Symbols minted so far; ids are dense in [0, symbolCount()).
  std::size_t symbolCount() const { return symbols_.size(); }
  /// The values `env` binds, indexed by Symbol, minting a Symbol for each
  /// name not seen yet: how a name-keyed binding reaches symbol-keyed
  /// evaluation.
  SymbolValues values(const Env &env);

  /// Canonicalize an existing tree built under another interner
  /// bottom-up, preserving its structure byte-for-byte (the re-entry path
  /// Expr::fromNode uses). O(1) for nodes this interner already owns.
  ExprNodeRef reintern(const ExprNodeRef &node);

  /// Unique nodes owned by this interner.
  std::size_t size() const;

  /// The range of constants served from slots.
  static constexpr std::int64_t kMinSlotConstant = -64;
  static constexpr std::int64_t kMaxSlotConstant = 191;

  /// Installs an interner as the calling thread's current one for the
  /// lifetime of the object (nestable; restores the previous on exit).
  class Scope {
  public:
    explicit Scope(ExprInterner &interner);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    ExprInterner *previous_;
  };

  /// The calling thread's current interner: the innermost live Scope's,
  /// or a thread-local default for code running outside any scope.
  static ExprInterner &current();

  /// Process-wide tallies across every interner (relaxed reads).
  static InternStats globalStats();

private:
  // The one lookup path every entry point takes (caller holds mutex_,
  // or alone can reach this arena): hash the borrowed fields, probe the
  // table, and on a miss build the node, moving `ownedOperands` into it
  // when the caller passes them and copying the borrowed fields
  // otherwise.
  ExprNodeRef lookup(ExprKind kind, std::int64_t value, std::string_view name,
                     const ExprNodeRef *operands, std::size_t count,
                     std::vector<ExprNodeRef> *ownedOperands);

  mutable std::mutex mutex_;
  // Never-reused process-unique id stamped on owned nodes, so a node
  // from a destroyed interner can never alias a live one (no ABA on a
  // recycled `this` address).
  const std::uint64_t id_;
  // The node table: every owned node, in creation order, and open
  // addressing over it. Each slot holds id + 1, 0 when empty; the size is
  // a power of two, kept at least twice nodes_.size(). A probe compares a
  // node's cached hash before its fields.
  std::vector<ExprNodeRef> nodes_;
  std::vector<std::uint32_t> nodeSlots_;

  std::array<ExprNodeRef, kMaxSlotConstant - kMinSlotConstant + 1>
      constants_;

  struct SymbolEntry {
    std::string name;
    std::uint64_t hash;
    ExprNodeRef param; // filled by param() on first use
  };
  std::vector<SymbolEntry> symbols_; // indexed by Symbol id
  // Open addressing over symbols_, laid out like nodeSlots_.
  std::vector<std::uint32_t> symbolSlots_;
};

} // namespace mira::symbolic
