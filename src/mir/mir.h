// MIR: the three-address mid-level IR of the embedded compiler.
//
// The AST is lowered to MIR, optimized (constant folding, copy
// propagation, DCE, bound hoisting, loop vectorization), then lowered to
// the synthetic machine ISA. The gap between source statements and the
// optimized binary is exactly what Mira exploits by analyzing both sides
// (paper Sec. I: "code transformations performed by optimizing compilers
// would cause non-negligible effects on the analysis accuracy").
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace mira::mir {

using VReg = std::uint32_t;
inline constexpr VReg kNoVReg = 0xFFFFFFFF;

enum class MirType : std::uint8_t { I64, F64, F32, Ptr, Void };

const char *toString(MirType type);
/// Byte size of a value of this type in simulator memory.
std::size_t typeSize(MirType type);

enum class MirCmp : std::uint8_t { Lt, Le, Gt, Ge, Eq, Ne };
const char *toString(MirCmp cmp);

enum class MirOp : std::uint8_t {
  Nop,
  ConstI, // dst = imm
  ConstF, // dst = fimm
  Copy,   // dst = a
  // integer arithmetic (I64)
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Neg,
  IMin,
  IMax,
  // bitwise
  And,
  Or,
  Xor,
  Not,
  Shl,
  Shr,
  // comparisons: dst(I64) = a REL b
  ICmp,
  FCmp,
  // floating point (type F64 or F32; `packed` = 2-lane SSE2)
  FAdd,
  FSub,
  FMul,
  FDiv,
  FNeg,
  FSqrt,
  FAbs,
  FMin,
  FMax,
  FHAdd,  // dst = lane0(a) + lane1(a): reduces a packed accumulator
  FSplat, // dst(packed) = {a.lane0, a.lane0}: broadcast a scalar
  // memory: addr = base + index*scale + disp
  Load,  // dst = *(type*)addr
  Store, // *(type*)addr = a
  Lea,   // dst(Ptr) = addr
  Alloca, // dst(Ptr) = allocate a (count) * imm (element size) bytes
  // conversions
  Cast, // dst(type) = convert a (fromType)
  // control flow (block terminators)
  Jump,   // goto target
  Branch, // if (a != 0) goto target else goto targetFalse
  Ret,    // return a (or nothing when a == kNoVReg)
  // calls
  Call, // dst = callee(args...); externCall => opaque library function
};

const char *toString(MirOp op);

/// Integer semantics shared by the constant folder and the simulator, so
/// the two agree: Add/Sub/Mul/Neg wrap in two's complement like the
/// machine's ADD/SUB/IMUL/NEG (computed through std::uint64_t, never as a
/// signed overflow), and Div/Rem trap like IDIV.
inline std::int64_t wrapAdd(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrapSub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrapMul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrapNeg(std::int64_t a) { return wrapSub(0, a); }
/// True when `a / b` and `a % b` trap: a zero divisor, or INT64_MIN / -1
/// (whose quotient does not fit).
inline bool divisionTraps(std::int64_t a, std::int64_t b) {
  return b == 0 || (b == -1 && a == std::numeric_limits<std::int64_t>::min());
}

/// At most N ids (registers or block ids) stored inline, or a view of an
/// id array owned elsewhere. uses() and successors() return one by value,
/// so a range-for over them allocates nothing. Iterators point into the
/// list itself (or, for a view, into its owner, which must stay alive and
/// unmodified): take begin() and end() from the same named list.
template <std::size_t N> class IdList {
public:
  IdList() = default;
  explicit IdList(const std::vector<std::uint32_t> &ids)
      : view_(ids.data()), size_(static_cast<std::uint32_t>(ids.size())) {}

  void push(std::uint32_t id) { inline_[size_++] = id; }

  const std::uint32_t *begin() const { return view_ ? view_ : inline_; }
  const std::uint32_t *end() const { return begin() + size_; }

private:
  std::uint32_t inline_[N] = {};
  const std::uint32_t *view_ = nullptr;
  std::uint32_t size_ = 0;
};

struct MirInst {
  MirOp op = MirOp::Nop;
  MirType type = MirType::I64;
  VReg dst = kNoVReg;
  VReg a = kNoVReg;
  VReg b = kNoVReg;
  std::int64_t imm = 0;
  double fimm = 0;
  MirCmp cmp = MirCmp::Lt;
  MirType fromType = MirType::I64; // Cast source type

  // addressing for Load/Store/Lea: base + index*scale + disp
  VReg base = kNoVReg;
  VReg index = kNoVReg;
  std::int32_t scale = 1;
  std::int32_t disp = 0;

  // control flow
  std::uint32_t target = 0;
  std::uint32_t targetFalse = 0;

  // calls
  std::string callee; // qualified name
  std::vector<VReg> args; // never kNoVReg
  bool externCall = false;

  /// SSE2 packed (two f64 lanes) — set by the vectorizer.
  bool packed = false;

  /// Source line for the DWARF-style line table.
  std::uint32_t line = 0;

  bool isTerminator() const {
    return op == MirOp::Jump || op == MirOp::Branch || op == MirOp::Ret;
  }
  /// Registers read by this instruction, in operand order (a Call's
  /// arguments are viewed in place).
  IdList<3> uses() const;
  /// Register written (kNoVReg if none).
  VReg def() const;
  bool hasSideEffects() const {
    return op == MirOp::Store || op == MirOp::Call || op == MirOp::Alloca ||
           isTerminator();
  }

  std::string str() const;
};

struct MirBlock {
  std::uint32_t id = 0;
  std::vector<MirInst> insts;

  const MirInst *terminator() const {
    return insts.empty() || !insts.back().isTerminator() ? nullptr
                                                         : &insts.back();
  }
  IdList<2> successors() const;
};

/// A natural counted loop recognized at lowering time (from the source
/// SCoP) and updated by the vectorizer. Drives vectorization, invariant
/// hoisting, machine loop emission, and the simulator's fast-forward mode.
struct LoopDescriptor {
  std::uint32_t preheader = 0;
  std::uint32_t header = 0;     // contains ICmp + Branch only
  std::uint32_t latch = 0;      // induction += step; Jump header
  std::uint32_t exit = 0;
  /// Ascending block ids; excludes header and latch.
  std::vector<std::uint32_t> bodyBlocks;
  VReg induction = kNoVReg;
  VReg limit = kNoVReg; // hoisted loop-invariant bound (in preheader)
  MirCmp rel = MirCmp::Lt; // induction REL limit continues the loop
  std::int64_t step = 1;
  std::uint32_t sourceLine = 0;
  /// '#pragma @Simulate {ff:yes}': the workload asserts that skipping this
  /// loop's memory side effects cannot change later control flow, enabling
  /// simulator fast-forward (validated against exact mode in tests).
  bool ffEligible = false;
  /// Set by the vectorizer on the main vector loop.
  bool vectorized = false;
  /// Index of the scalar remainder loop descriptor (or -1).
  int remainderLoop = -1;
};

struct MirFunction {
  std::string name; // qualified source name
  std::vector<VReg> paramRegs;
  std::vector<MirType> paramTypes;
  MirType retType = MirType::Void;
  std::vector<MirBlock> blocks; // blocks[0] is the entry
  std::vector<MirType> vregTypes;
  std::vector<LoopDescriptor> loops;

  VReg newVReg(MirType type) {
    vregTypes.push_back(type);
    return static_cast<VReg>(vregTypes.size() - 1);
  }
  MirType typeOf(VReg r) const { return vregTypes[r]; }
  std::uint32_t newBlock() {
    MirBlock b;
    b.id = static_cast<std::uint32_t>(blocks.size());
    blocks.push_back(std::move(b));
    return blocks.back().id;
  }

  std::string str() const;
};

/// How many times each register is read: entry r counts r's occurrences
/// in the uses() of every instruction of `fn` (a register read twice by
/// one instruction counts twice).
std::vector<std::uint32_t> countUses(const MirFunction &fn);

struct MirModule {
  std::vector<MirFunction> functions;

  MirFunction *find(const std::string &name);
  const MirFunction *find(const std::string &name) const;
  std::string str() const;
};

} // namespace mira::mir
