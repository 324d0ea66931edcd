// MIR optimization passes.
//
// Deliberately simple (block-local value tracking, conservative global
// DCE) but real: they change the instruction stream the binary carries,
// which is why Mira analyzes the binary rather than trusting the source
// (PBound's weakness, paper Sec. V).
#pragma once

#include "mir/mir.h"

namespace mira::mir {

/// Block-local constant folding: ConstI/ConstF values are propagated
/// through arithmetic, comparisons and copies. Returns #instructions
/// rewritten.
std::size_t foldConstants(MirFunction &fn);

/// Block-local copy propagation (uses of `dst` after `dst = copy src` are
/// rewritten to `src` until either register is redefined).
std::size_t propagateCopies(MirFunction &fn);

/// Remove side-effect-free instructions whose results are never used, by
/// reference counting: removing one releases its operands, so chains of
/// dead values go too, but a value read only by itself (an unused loop
/// accumulator) stays. Loop induction/limit registers and parameters are
/// never removed. Returns #instructions removed.
std::size_t eliminateDeadCode(MirFunction &fn);

/// Empty out blocks unreachable from the entry (they would otherwise be
/// encoded into the binary and mis-attributed by static counting). Block
/// ids are preserved; only the instruction lists are cleared.
std::size_t removeUnreachableBlocks(MirFunction &fn);

} // namespace mira::mir
