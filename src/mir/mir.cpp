#include "mir/mir.h"

namespace mira::mir {

const char *toString(MirType type) {
  switch (type) {
  case MirType::I64:
    return "i64";
  case MirType::F64:
    return "f64";
  case MirType::F32:
    return "f32";
  case MirType::Ptr:
    return "ptr";
  case MirType::Void:
    return "void";
  }
  return "?";
}

std::size_t typeSize(MirType type) {
  switch (type) {
  case MirType::I64:
  case MirType::F64:
  case MirType::Ptr:
    return 8;
  case MirType::F32:
    return 4;
  case MirType::Void:
    return 0;
  }
  return 0;
}

const char *toString(MirCmp cmp) {
  switch (cmp) {
  case MirCmp::Lt:
    return "<";
  case MirCmp::Le:
    return "<=";
  case MirCmp::Gt:
    return ">";
  case MirCmp::Ge:
    return ">=";
  case MirCmp::Eq:
    return "==";
  case MirCmp::Ne:
    return "!=";
  }
  return "?";
}

const char *toString(MirOp op) {
  switch (op) {
  case MirOp::Nop:
    return "nop";
  case MirOp::ConstI:
    return "const.i";
  case MirOp::ConstF:
    return "const.f";
  case MirOp::Copy:
    return "copy";
  case MirOp::Add:
    return "add";
  case MirOp::Sub:
    return "sub";
  case MirOp::Mul:
    return "mul";
  case MirOp::Div:
    return "div";
  case MirOp::Rem:
    return "rem";
  case MirOp::Neg:
    return "neg";
  case MirOp::IMin:
    return "imin";
  case MirOp::IMax:
    return "imax";
  case MirOp::And:
    return "and";
  case MirOp::Or:
    return "or";
  case MirOp::Xor:
    return "xor";
  case MirOp::Not:
    return "not";
  case MirOp::Shl:
    return "shl";
  case MirOp::Shr:
    return "shr";
  case MirOp::ICmp:
    return "icmp";
  case MirOp::FCmp:
    return "fcmp";
  case MirOp::FAdd:
    return "fadd";
  case MirOp::FSub:
    return "fsub";
  case MirOp::FMul:
    return "fmul";
  case MirOp::FDiv:
    return "fdiv";
  case MirOp::FNeg:
    return "fneg";
  case MirOp::FSqrt:
    return "fsqrt";
  case MirOp::FAbs:
    return "fabs";
  case MirOp::FMin:
    return "fmin";
  case MirOp::FMax:
    return "fmax";
  case MirOp::FHAdd:
    return "fhadd";
  case MirOp::FSplat:
    return "fsplat";
  case MirOp::Load:
    return "load";
  case MirOp::Store:
    return "store";
  case MirOp::Lea:
    return "lea";
  case MirOp::Alloca:
    return "alloca";
  case MirOp::Cast:
    return "cast";
  case MirOp::Jump:
    return "jump";
  case MirOp::Branch:
    return "branch";
  case MirOp::Ret:
    return "ret";
  case MirOp::Call:
    return "call";
  }
  return "?";
}

IdList<3> MirInst::uses() const {
  if (op == MirOp::Call)
    return IdList<3>(args);
  IdList<3> out;
  auto push = [&](VReg r) {
    if (r != kNoVReg)
      out.push(r);
  };
  switch (op) {
  case MirOp::Load:
  case MirOp::Lea:
    push(base);
    push(index);
    break;
  case MirOp::Store:
    push(a);
    push(base);
    push(index);
    break;
  case MirOp::Alloca:
    push(a);
    break;
  default:
    push(a);
    push(b);
    break;
  }
  return out;
}

VReg MirInst::def() const {
  switch (op) {
  case MirOp::Store:
  case MirOp::Jump:
  case MirOp::Branch:
  case MirOp::Ret:
  case MirOp::Nop:
    return kNoVReg;
  case MirOp::Call:
    return dst; // may be kNoVReg for void calls
  default:
    return dst;
  }
}

namespace {
std::string vregStr(VReg r) {
  return r == kNoVReg ? "_" : "%" + std::to_string(r);
}
std::string addrStr(const MirInst &inst) {
  std::string s = "[" + vregStr(inst.base);
  if (inst.index != kNoVReg)
    s += " + " + vregStr(inst.index) + "*" + std::to_string(inst.scale);
  if (inst.disp)
    s += " + " + std::to_string(inst.disp);
  return s + "]";
}
} // namespace

std::string MirInst::str() const {
  std::string s;
  if (def() != kNoVReg)
    s += vregStr(dst) + " = ";
  s += toString(op);
  if (packed)
    s += ".packed";
  switch (op) {
  case MirOp::ConstI:
    s += " " + std::to_string(imm);
    break;
  case MirOp::ConstF:
    s += " " + std::to_string(fimm);
    break;
  case MirOp::ICmp:
  case MirOp::FCmp:
    s += " " + vregStr(a) + " " + toString(cmp) + " " + vregStr(b);
    break;
  case MirOp::Load:
  case MirOp::Lea:
    s += " " + addrStr(*this);
    break;
  case MirOp::Store:
    s += " " + addrStr(*this) + " <- " + vregStr(a);
    break;
  case MirOp::Alloca:
    s += " count=" + vregStr(a) + " elem=" + std::to_string(imm);
    break;
  case MirOp::Jump:
    s += " bb" + std::to_string(target);
    break;
  case MirOp::Branch:
    s += " " + vregStr(a) + " ? bb" + std::to_string(target) + " : bb" +
         std::to_string(targetFalse);
    break;
  case MirOp::Ret:
    if (a != kNoVReg)
      s += " " + vregStr(a);
    break;
  case MirOp::Call: {
    s += " " + callee + "(";
    for (std::size_t i = 0; i < args.size(); ++i)
      s += (i ? ", " : "") + vregStr(args[i]);
    s += ")";
    if (externCall)
      s += " [extern]";
    break;
  }
  default:
    if (a != kNoVReg)
      s += " " + vregStr(a);
    if (b != kNoVReg)
      s += ", " + vregStr(b);
    break;
  }
  if (line)
    s += "  ; line " + std::to_string(line);
  return s;
}

IdList<2> MirBlock::successors() const {
  IdList<2> out;
  const MirInst *term = terminator();
  if (term && term->op == MirOp::Jump) {
    out.push(term->target);
  } else if (term && term->op == MirOp::Branch) {
    out.push(term->target);
    out.push(term->targetFalse);
  }
  return out;
}

std::vector<std::uint32_t> countUses(const MirFunction &fn) {
  std::vector<std::uint32_t> counts(fn.vregTypes.size(), 0);
  for (const MirBlock &block : fn.blocks)
    for (const MirInst &inst : block.insts)
      for (VReg r : inst.uses())
        ++counts[r];
  return counts;
}

std::string MirFunction::str() const {
  std::string s = "func " + name + "(";
  for (std::size_t i = 0; i < paramRegs.size(); ++i) {
    if (i)
      s += ", ";
    s += "%" + std::to_string(paramRegs[i]) + ":" +
         toString(paramTypes[i]);
  }
  s += ") -> " + std::string(toString(retType)) + "\n";
  for (const MirBlock &b : blocks) {
    s += "bb" + std::to_string(b.id) + ":\n";
    for (const MirInst &inst : b.insts)
      s += "  " + inst.str() + "\n";
  }
  return s;
}

MirFunction *MirModule::find(const std::string &name) {
  for (MirFunction &f : functions)
    if (f.name == name)
      return &f;
  return nullptr;
}

const MirFunction *MirModule::find(const std::string &name) const {
  for (const MirFunction &f : functions)
    if (f.name == name)
      return &f;
  return nullptr;
}

std::string MirModule::str() const {
  std::string s;
  for (const MirFunction &f : functions)
    s += f.str() + "\n";
  return s;
}

} // namespace mira::mir
