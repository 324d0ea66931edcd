#include "symbolic/interner.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <optional>
#include <utility>

namespace mira::symbolic {

namespace {

// Process-wide tallies. Relaxed: the counters are monitoring data
// (mira_intern_*), not synchronization.
std::atomic<std::uint64_t> gHits{0};
std::atomic<std::uint64_t> gMisses{0};

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

/// The character an operator node's order key starts with.
char keyTag(ExprKind kind) {
  switch (kind) {
  case ExprKind::Add:
    return 'A';
  case ExprKind::Mul:
    return 'M';
  case ExprKind::FloorDiv:
    return 'F';
  case ExprKind::ExactDiv:
    return 'E';
  case ExprKind::Mod:
    return '%';
  case ExprKind::Min:
    return 'm';
  case ExprKind::Max:
    return 'X';
  case ExprKind::Sum:
    return 'S';
  default:
    return '?';
  }
}

/// The canonical ordering key, byte-identical to the recursive string
/// builder the canonicalizing sorts used before interning ("#-3", "pN",
/// "A(pN,#1,)", "Si(#1,pN,pi,)"): computed once per unique node from the
/// operands' cached keys, sized up front and written in one allocation.
std::string makeKey(ExprKind kind, std::int64_t value, std::string_view name,
                    const ExprNodeRef *operands, std::size_t count) {
  std::string key;
  if (kind == ExprKind::IntConst) {
    char digits[24];
    const auto length = static_cast<std::size_t>(
        std::to_chars(digits, digits + sizeof digits, value).ptr - digits);
    key.reserve(1 + length);
    key += '#';
    key.append(digits, length);
    return key;
  }
  if (kind == ExprKind::Param) {
    key.reserve(1 + name.size());
    key += 'p';
    key += name;
    return key;
  }
  if (kind != ExprKind::Sum)
    name = {}; // only a Sum's key carries its bound variable
  std::size_t size = 1 + name.size() + 2 + count; // tag, '(', ')', commas
  for (std::size_t i = 0; i < count; ++i)
    size += operands[i]->key.size();
  key.reserve(size);
  key += keyTag(kind);
  key += name;
  key += '(';
  for (std::size_t i = 0; i < count; ++i) {
    key += operands[i]->key;
    key += ',';
  }
  key += ')';
  return key;
}

// Both tables of an arena (nodes and symbols) are open-addressed the
// same way: entries live in a vector, and a power-of-two slot array,
// kept at least twice the entry count, holds `id + 1` per entry (0 when
// empty), placed by linear probing from the entry's hash.

/// Stores `id + 1` in the first free slot of `hash`'s probe sequence.
void placeSlot(std::vector<std::uint32_t> &slots, std::uint64_t hash,
               std::uint32_t id) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = hash & mask;
  while (slots[i] != 0)
    i = (i + 1) & mask;
  slots[i] = id + 1;
}

/// The first id in `hash`'s probe sequence for which `matches(id)`
/// holds, or nullopt.
template <typename Matches>
std::optional<std::uint32_t> findSlot(const std::vector<std::uint32_t> &slots,
                                      std::uint64_t hash, Matches matches) {
  if (slots.empty())
    return std::nullopt;
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = hash & mask; slots[i] != 0; i = (i + 1) & mask)
    if (matches(slots[i] - 1))
      return slots[i] - 1;
  return std::nullopt;
}

/// Places the entry just appended, id `count - 1`. When that puts the
/// slots past half load they double (to at least `minSlots`) and every
/// entry is placed again; `hashOf(id)` is an entry's hash.
template <typename HashOf>
void addSlot(std::vector<std::uint32_t> &slots, std::uint32_t count,
             std::size_t minSlots, HashOf hashOf) {
  if (std::size_t{count} * 2 <= slots.size()) {
    placeSlot(slots, hashOf(count - 1), count - 1);
    return;
  }
  slots.assign(std::max(minSlots, slots.size() * 2), 0);
  for (std::uint32_t id = 0; id < count; ++id)
    placeSlot(slots, hashOf(id), id);
}

} // namespace

ExprInterner::ExprInterner()
    : id_(gNextInternerId.fetch_add(1, std::memory_order_relaxed)) {}

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
  if (const auto found = findSlot(symbolSlots_, hash, [&](std::uint32_t id) {
        return symbols_[id].hash == hash && symbols_[id].name == name;
      }))
    return Symbol{*found};
  if (symbols_.empty())
    symbols_.reserve(16);
  symbols_.push_back(SymbolEntry{std::string(name), hash, nullptr});
  const auto count = static_cast<std::uint32_t>(symbols_.size());
  addSlot(symbolSlots_, count, 16,
          [&](std::uint32_t id) { return symbols_[id].hash; });
  return Symbol{count - 1};
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
  // Children are canonical in this interner, so pointer comparison IS
  // structural comparison.
  if (const auto found = findSlot(nodeSlots_, hash, [&](std::uint32_t id) {
        const ExprNode &candidate = *nodes_[id];
        return candidate.hash == hash && candidate.kind == kind &&
               candidate.value == value && candidate.name == name &&
               std::equal(candidate.operands.begin(),
                          candidate.operands.end(), operands,
                          operands + count);
      })) {
    gHits.fetch_add(1, std::memory_order_relaxed);
    return nodes_[*found];
  }
  auto node = std::make_shared<ExprNode>(kind);
  node->value = value;
  node->name = std::string(name);
  node->hash = hash;
  node->key = makeKey(kind, value, name, operands, count);
  node->operands = ownedOperands
                       ? std::move(*ownedOperands)
                       : std::vector<ExprNodeRef>(operands, operands + count);
  node->ownerId = id_;
  if (nodes_.empty())
    nodes_.reserve(32);
  nodes_.push_back(node);
  addSlot(nodeSlots_, static_cast<std::uint32_t>(nodes_.size()), 64,
          [&](std::uint32_t id) { return nodes_[id]->hash; });
  gMisses.fetch_add(1, std::memory_order_relaxed);
  return node;
}

std::size_t ExprInterner::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return nodes_.size();
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
  return stats;
}

} // namespace mira::symbolic
