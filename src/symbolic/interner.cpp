#include "symbolic/interner.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace mira::symbolic {

namespace {

// Process-wide tallies. Relaxed: the counters are monitoring data
// (mira_intern_*), not synchronization.
std::atomic<std::uint64_t> gHits{0};
std::atomic<std::uint64_t> gMisses{0};
std::atomic<std::uint64_t> gNodes{0};

std::atomic<std::uint64_t> gNextInternerId{1};

// Innermost live Scope's interner for this thread, if any.
thread_local ExprInterner *tCurrent = nullptr;

std::uint64_t hashCombine(std::uint64_t seed, std::uint64_t v) {
  // boost::hash_combine recipe widened to 64 bits.
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

std::uint64_t hashString(std::string_view s) {
  // FNV-1a.
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Shallow structural hash: operands contribute their cached hashes, so
/// hashing a node is O(fields), not O(subtree).
std::uint64_t hashNode(ExprKind kind, std::int64_t value,
                       std::string_view name, const ExprNodeRef *operands,
                       std::size_t count) {
  std::uint64_t h = hashCombine(0x6d697261 /* 'mira' */,
                                static_cast<std::uint64_t>(kind));
  h = hashCombine(h, static_cast<std::uint64_t>(value));
  h = hashCombine(h, hashString(name));
  h = hashCombine(h, count);
  for (std::size_t i = 0; i < count; ++i)
    h = hashCombine(h, operands[i]->hash);
  return h;
}

/// The canonical ordering key, byte-identical to the recursive string
/// builder the canonicalizing sorts used before interning — computed
/// once per unique node from the operands' cached keys.
std::string makeKey(ExprKind kind, std::int64_t value,
                    const std::string &name,
                    const std::vector<ExprNodeRef> &operands) {
  auto list = [&operands] {
    std::string s;
    for (const ExprNodeRef &op : operands) {
      s += op->key;
      s += ',';
    }
    return s;
  };
  switch (kind) {
  case ExprKind::IntConst:
    return "#" + std::to_string(value);
  case ExprKind::Param:
    return "p" + name;
  case ExprKind::Add:
    return "A(" + list() + ")";
  case ExprKind::Mul:
    return "M(" + list() + ")";
  case ExprKind::FloorDiv:
    return "F(" + list() + ")";
  case ExprKind::ExactDiv:
    return "E(" + list() + ")";
  case ExprKind::Mod:
    return "%(" + list() + ")";
  case ExprKind::Min:
    return "m(" + list() + ")";
  case ExprKind::Max:
    return "X(" + list() + ")";
  case ExprKind::Sum:
    return "S" + name + "(" + list() + ")";
  }
  return "?";
}

/// Stores `id + 1` in the first free slot of `hash`'s probe sequence.
void placeSymbol(std::vector<std::uint32_t> &slots, std::uint64_t hash,
                 std::uint32_t id) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = hash & mask;
  while (slots[i] != 0)
    i = (i + 1) & mask;
  slots[i] = id + 1;
}

} // namespace

ExprInterner::ExprInterner()
    : id_(gNextInternerId.fetch_add(1, std::memory_order_relaxed)) {}

ExprInterner::~ExprInterner() {
  gNodes.fetch_sub(table_.size(), std::memory_order_relaxed);
}

ExprNodeRef ExprInterner::intern(ExprKind kind, std::int64_t value,
                                 std::string_view name,
                                 const ExprNodeRef *operands,
                                 std::size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  return lookup(kind, value, name, operands, count, nullptr);
}

ExprNodeRef ExprInterner::internUnlocked(ExprKind kind, std::int64_t value,
                                         std::string_view name,
                                         const ExprNodeRef *operands,
                                         std::size_t count) {
  return lookup(kind, value, name, operands, count, nullptr);
}

ExprNodeRef ExprInterner::constant(std::int64_t value) {
  if (value < kMinSlotConstant || value > kMaxSlotConstant)
    return intern(ExprKind::IntConst, value, {}, nullptr, 0);
  ExprNodeRef &slot =
      constants_[static_cast<std::size_t>(value - kMinSlotConstant)];
  if (!slot)
    slot = intern(ExprKind::IntConst, value, {}, nullptr, 0);
  return slot;
}

Symbol ExprInterner::symbol(std::string_view name) {
  const std::uint64_t hash = hashString(name);
  if (!symbolSlots_.empty()) {
    const std::size_t mask = symbolSlots_.size() - 1;
    for (std::size_t i = hash & mask; symbolSlots_[i] != 0;
         i = (i + 1) & mask) {
      const std::uint32_t id = symbolSlots_[i] - 1;
      if (symbols_[id].hash == hash && symbols_[id].name == name)
        return Symbol{id};
    }
  }
  const auto id = static_cast<std::uint32_t>(symbols_.size());
  if (symbols_.empty())
    symbols_.reserve(16);
  symbols_.push_back(SymbolEntry{std::string(name), hash, nullptr});
  if (symbols_.size() * 2 > symbolSlots_.size()) {
    // Grow and re-place every symbol, the new one included.
    symbolSlots_.assign(std::max<std::size_t>(16, symbolSlots_.size() * 2),
                        0);
    for (std::uint32_t s = 0; s < symbols_.size(); ++s)
      placeSymbol(symbolSlots_, symbols_[s].hash, s);
  } else {
    placeSymbol(symbolSlots_, hash, id);
  }
  return Symbol{id};
}

const std::string &ExprInterner::name(Symbol symbol) const {
  return symbols_.at(static_cast<std::size_t>(symbol)).name;
}

ExprNodeRef ExprInterner::param(Symbol symbol) {
  SymbolEntry &entry = symbols_.at(static_cast<std::size_t>(symbol));
  if (!entry.param)
    entry.param = intern(ExprKind::Param, 0, entry.name, nullptr, 0);
  return entry.param;
}

SymbolValues ExprInterner::values(const Env &env) {
  SymbolValues out;
  for (const auto &[name, value] : env) {
    const auto id = static_cast<std::size_t>(symbol(name));
    if (out.size() <= id)
      out.resize(id + 1);
    out[id] = value;
  }
  return out;
}

ExprNodeRef ExprInterner::reintern(const ExprNodeRef &node) {
  if (!node || node->ownerId == id_)
    return node;
  std::vector<ExprNodeRef> operands;
  operands.reserve(node->operands.size());
  for (const ExprNodeRef &op : node->operands)
    operands.push_back(reintern(op));
  std::lock_guard<std::mutex> lock(mutex_);
  return lookup(node->kind, node->value, node->name, operands.data(),
                operands.size(), &operands);
}

ExprNodeRef ExprInterner::lookup(ExprKind kind, std::int64_t value,
                                 std::string_view name,
                                 const ExprNodeRef *operands, std::size_t count,
                                 std::vector<ExprNodeRef> *ownedOperands) {
  const std::uint64_t hash = hashNode(kind, value, name, operands, count);
  const auto [first, last] = table_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    const ExprNodeRef &candidate = it->second;
    // Children are canonical in this interner, so pointer comparison IS
    // structural comparison.
    if (candidate->kind == kind && candidate->value == value &&
        candidate->name == name &&
        std::equal(candidate->operands.begin(), candidate->operands.end(),
                   operands, operands + count)) {
      gHits.fetch_add(1, std::memory_order_relaxed);
      return candidate;
    }
  }
  auto node = std::make_shared<ExprNode>(kind);
  node->value = value;
  node->name = std::string(name);
  node->operands = ownedOperands
                       ? std::move(*ownedOperands)
                       : std::vector<ExprNodeRef>(operands, operands + count);
  node->hash = hash;
  node->key = makeKey(kind, value, node->name, node->operands);
  node->ownerId = id_;
  table_.emplace(hash, node);
  gMisses.fetch_add(1, std::memory_order_relaxed);
  gNodes.fetch_add(1, std::memory_order_relaxed);
  return node;
}

std::size_t ExprInterner::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_.size();
}

ExprInterner::Scope::Scope(ExprInterner &interner) : previous_(tCurrent) {
  tCurrent = &interner;
}

ExprInterner::Scope::~Scope() { tCurrent = previous_; }

ExprInterner &ExprInterner::current() {
  if (tCurrent)
    return *tCurrent;
  // Fallback arena for code running outside any Scope (tests, ad-hoc
  // Expr math). Thread-local so no cross-thread contention and the
  // table dies with the thread instead of growing for process lifetime.
  thread_local ExprInterner tDefault;
  return tDefault;
}

InternStats ExprInterner::globalStats() {
  InternStats stats;
  stats.hits = gHits.load(std::memory_order_relaxed);
  stats.misses = gMisses.load(std::memory_order_relaxed);
  stats.nodes = gNodes.load(std::memory_order_relaxed);
  return stats;
}

} // namespace mira::symbolic
