// Binary serialization of PerformanceModel for the on-disk analysis
// cache (support/cache_store.h).
//
// The encoding is a straightforward length-prefixed tree walk: strings
// are u32-length + bytes, containers are u32-count + elements,
// symbolic::Expr nodes are a one-byte kind tag followed by their
// children, and a count step's opcode histogram is its
// isa::OpcodeHistogram entries in order (strictly increasing opcodes).
// Deserialization rebuilds Expr nodes verbatim (bypassing the
// canonicalizing builders) so a cached model's emitted Python is
// byte-identical to the freshly computed one — the property the batch
// determinism tests pin. It builds no raw tree: each node is interned
// in one per-payload ExprInterner as soon as its children are read, so
// repeated expressions decode to one shared node. An expression root
// (a count or call multiplier, an argument binding) whose bytes repeat
// one of the 16 most recently decoded distinct roots is not read again:
// the reader reuses that root's node and skips the bytes, which is
// exact because equal bytes decode to the equal node under the same
// checks (docs/CACHING.md, "One subtlety").
//
// Robustness: deserializeModel never throws and never trusts a length —
// every read is bounds-checked against the remaining buffer, an element
// count is accepted only if the remaining bytes could hold that many
// elements at their smallest encoding (so no reserve outgrows the
// buffer), opcode tags are validated against the ISA and must strictly
// increase within a histogram, call bindings must strictly increase by
// name, and expression nesting is depth-capped. So every buffer it
// accepts re-encodes to exactly its own bytes.
// A malformed buffer yields `false` (the cache layer then treats the
// entry as corrupt and recomputes). The byte format carries no version
// of its own: cache_store.h's schema-version header versions the whole
// payload, so any layout change here must bump kCacheSchemaVersion.
#pragma once

#include <string>

#include "model/model.h"

namespace mira::model {

/// Append the serialized form of `model` to `out`.
void serializeModel(const PerformanceModel &model, std::string &out);

/// Parse a buffer produced by serializeModel, starting at `offset` and
/// advancing it past the model. Returns false (leaving `out` in an
/// unspecified state) on any structural problem.
bool deserializeModel(const std::string &bytes, std::size_t &offset,
                      PerformanceModel &out);

} // namespace mira::model
