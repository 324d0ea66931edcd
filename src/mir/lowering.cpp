#include "mir/lowering.h"

#include <algorithm>
#include <optional>

#include "mir/passes.h"
#include "mir/vectorize.h"
#include "support/inline_vector.h"

namespace mira::mir {

using frontend::AssignOp;
using frontend::BinaryOp;
using frontend::ClassDecl;
using frontend::ExprKind;
using frontend::Expression;
using frontend::FunctionDecl;
using frontend::ScalarType;
using frontend::Statement;
using frontend::StmtKind;
using frontend::TranslationUnit;
using frontend::Type;
using frontend::UnaryOp;

namespace {

MirType mirTypeOf(const Type &t) {
  if (t.isPointer())
    return MirType::Ptr;
  switch (t.scalar) {
  case ScalarType::Void:
    return MirType::Void;
  case ScalarType::Bool:
  case ScalarType::Int:
  case ScalarType::Long:
    return MirType::I64;
  case ScalarType::Float:
    return MirType::F32;
  case ScalarType::Double:
    return MirType::F64;
  case ScalarType::Class:
    return MirType::Ptr; // objects are handled via storage pointers
  }
  return MirType::I64;
}

MirCmp mirCmpOf(BinaryOp op) {
  switch (op) {
  case BinaryOp::Lt:
    return MirCmp::Lt;
  case BinaryOp::Le:
    return MirCmp::Le;
  case BinaryOp::Gt:
    return MirCmp::Gt;
  case BinaryOp::Ge:
    return MirCmp::Ge;
  case BinaryOp::Eq:
    return MirCmp::Eq;
  case BinaryOp::Ne:
    return MirCmp::Ne;
  default:
    return MirCmp::Eq;
  }
}

/// Per-variable lowering info, one per local slot.
struct VarSlot {
  VReg reg = kNoVReg;
  MirType type = MirType::I64;
  bool isClassObject = false;     // reg holds a pointer to object storage
  InlineVector<VReg, 3> dims;     // array dimensions (evaluated at decl)
  MirType elemType = MirType::I64; // array/pointer element type
};

/// An lvalue: either a register or a memory address.
struct LValue {
  bool isReg = true;
  VReg reg = kNoVReg; // when isReg
  VReg base = kNoVReg;
  VReg index = kNoVReg;
  std::int32_t scale = 1;
  std::int32_t disp = 0;
  MirType type = MirType::I64;
};

class FunctionLowerer {
public:
  FunctionLowerer(const TranslationUnit &unit, const FunctionDecl &decl,
                  DiagnosticEngine &diags)
      : unit_(unit), decl_(decl), diags_(diags) {}

  MirFunction run() {
    fn_.name = decl_.qualifiedName();
    fn_.retType = mirTypeOf(decl_.returnType);
    SizeBound bound;
    bound.add(*decl_.bodyStmt);
    const std::size_t params = decl_.params.size() + decl_.isMethod();
    fn_.blocks.reserve(1 + bound.blocks);
    fn_.loops.reserve(bound.loops);
    fn_.vregTypes.reserve(params + bound.vregs);
    fn_.paramRegs.reserve(params);
    fn_.paramTypes.reserve(params);
    locals_.resize(decl_.params.size() + bound.vars);
    cur_ = fn_.newBlock();

    if (decl_.isMethod()) {
      thisReg_ = fn_.newVReg(MirType::Ptr);
      fn_.paramRegs.push_back(thisReg_);
      fn_.paramTypes.push_back(MirType::Ptr);
    }
    for (std::size_t i = 0; i < decl_.params.size(); ++i) {
      const frontend::ParamDecl &p = decl_.params[i];
      VarSlot &slot = locals_[i];
      slot.type = mirTypeOf(p.type);
      slot.reg = fn_.newVReg(slot.type);
      if (p.type.isPointer()) {
        Type elem = p.type;
        --elem.pointerDepth;
        slot.elemType = mirTypeOf(elem);
      }
      slot.isClassObject =
          p.type.scalar == ScalarType::Class && !p.type.isPointer();
      fn_.paramRegs.push_back(slot.reg);
      fn_.paramTypes.push_back(slot.type);
    }

    lowerStmt(*decl_.bodyStmt);
    // Ensure a terminator on the last block.
    if (!fn_.blocks[cur_].terminator()) {
      MirInst ret;
      ret.op = MirOp::Ret;
      ret.a = kNoVReg;
      if (fn_.retType != MirType::Void) {
        // Missing return in a value function: return zero.
        VReg z = emitConstI(0, 0);
        ret.a = castTo(z, MirType::I64, fn_.retType, 0);
      }
      append(ret);
    }
    return std::move(fn_);
  }

private:
  static constexpr std::size_t kFirstBlockInsts = 8;

  // ---------------------------------------------------------- utilities

  /// What lowering a function body creates, from one walk of its tree,
  /// so the function's vectors are sized once: blocks, loops and
  /// variables are upper bounds, registers an estimate a body rarely
  /// exceeds (a vector that does just grows).
  struct SizeBound {
    std::size_t blocks = 0; // beyond the entry block
    std::size_t loops = 0;  // counted for loops
    std::size_t vars = 0;   // declarations: one local slot each
    std::size_t vregs = 0;

    /// Two blocks per short-circuit operator; a few registers per node
    /// (its value and the casts around it).
    void add(const Expression &e) {
      if (e.kind == ExprKind::Binary &&
          (e.binaryOp == BinaryOp::LAnd || e.binaryOp == BinaryOp::LOr))
        blocks += 2;
      vregs += 3;
      for (const auto &c : e.children)
        add(*c);
      if (e.receiver)
        add(*e.receiver);
    }

    /// Four blocks per counted for, three per while, generic for or if,
    /// one per return; a few registers per statement (a loop's bound,
    /// compare and step).
    void add(const Statement &s) {
      switch (s.kind) {
      case StmtKind::For:
        blocks += 4;
        ++loops;
        break;
      case StmtKind::While:
      case StmtKind::If:
        blocks += 3;
        break;
      case StmtKind::Return:
        blocks += 1;
        break;
      case StmtKind::Decl:
        ++vars;
        break;
      default:
        break;
      }
      vregs += 5;
      for (const Expression *e : {s.expr.get(), s.declInit.get(),
                                  s.forCond.get(), s.forInc.get()})
        if (e)
          add(*e);
      for (const auto &d : s.arrayDims)
        add(*d);
      for (const Statement *c : {s.forInit.get(), s.thenBranch.get(),
                                 s.elseBranch.get(), s.loopBody.get()})
        if (c)
          add(*c);
      for (const auto &c : s.body)
        add(*c);
    }
  };

  MirInst &append(MirInst inst) {
    std::vector<MirInst> &insts = fn_.blocks[cur_].insts;
    // A block whose size is not known up front starts with room for a
    // few instructions instead of growing from one.
    if (insts.capacity() == 0)
      insts.reserve(kFirstBlockInsts);
    insts.push_back(std::move(inst));
    return insts.back();
  }

  VReg emitConstI(std::int64_t v, std::uint32_t line) {
    MirInst i;
    i.op = MirOp::ConstI;
    i.type = MirType::I64;
    i.dst = fn_.newVReg(MirType::I64);
    i.imm = v;
    i.line = line;
    append(i);
    return i.dst;
  }

  VReg emitConstF(double v, MirType type, std::uint32_t line) {
    MirInst i;
    i.op = MirOp::ConstF;
    i.type = type;
    i.dst = fn_.newVReg(type);
    i.fimm = v;
    i.line = line;
    append(i);
    return i.dst;
  }

  VReg castTo(VReg value, MirType from, MirType to, std::uint32_t line) {
    if (from == to || to == MirType::Void)
      return value;
    if (from == MirType::Ptr || to == MirType::Ptr)
      return value; // pointers are 64-bit; no conversion instruction
    MirInst i;
    i.op = MirOp::Cast;
    i.type = to;
    i.fromType = from;
    i.a = value;
    i.dst = fn_.newVReg(to);
    i.line = line;
    append(i);
    return i.dst;
  }

  /// The local a variable reference names; null for a field.
  const VarSlot *localOf(const Expression &varRef) const {
    return varRef.slot >= 0 ? &locals_[static_cast<std::size_t>(varRef.slot)]
                            : nullptr;
  }

  /// The storage pointer of a class-typed object expression.
  VReg objectPointer(const Expression &obj) {
    const VarSlot *slot =
        obj.kind == ExprKind::VarRef ? localOf(obj) : nullptr;
    return slot && slot->isClassObject ? slot->reg : lowerExpr(obj);
  }

  /// Every field occupies one 8-byte slot.
  static std::int32_t fieldOffset(const Expression &e) { return e.field * 8; }

  std::int64_t classSize(const std::string &className) const {
    const ClassDecl *cls = unit_.findClass(className);
    return cls ? static_cast<std::int64_t>(cls->fields.size()) * 8 : 8;
  }

  // --------------------------------------------------------- statements

  void lowerStmt(const Statement &stmt) {
    switch (stmt.kind) {
    case StmtKind::Compound:
      for (const auto &s : stmt.body)
        lowerStmt(*s);
      break;
    case StmtKind::Decl:
      lowerDecl(stmt);
      break;
    case StmtKind::ExprStmt:
      if (stmt.expr)
        lowerExpr(*stmt.expr);
      break;
    case StmtKind::For:
      lowerFor(stmt);
      break;
    case StmtKind::While:
      lowerWhile(stmt);
      break;
    case StmtKind::If:
      lowerIf(stmt);
      break;
    case StmtKind::Return: {
      MirInst ret;
      ret.op = MirOp::Ret;
      ret.line = stmt.range.begin.line;
      ret.a = kNoVReg;
      if (stmt.expr) {
        VReg v = lowerExpr(*stmt.expr);
        ret.a = castTo(v, mirTypeOf(stmt.expr->type), fn_.retType,
                       ret.line);
      }
      append(ret);
      cur_ = fn_.newBlock(); // unreachable continuation
      break;
    }
    case StmtKind::Empty:
      break;
    }
  }

  void lowerDecl(const Statement &stmt) {
    std::uint32_t line = stmt.range.begin.line;
    VarSlot &slot = locals_[static_cast<std::size_t>(stmt.declSlot)];
    if (!stmt.arrayDims.empty()) {
      // Local array: allocate dims product * element size.
      slot.type = MirType::Ptr;
      slot.elemType = mirTypeOf(stmt.declType);
      VReg count = kNoVReg;
      for (const auto &dim : stmt.arrayDims) {
        VReg d = lowerExpr(*dim);
        d = castTo(d, mirTypeOf(dim->type), MirType::I64, line);
        slot.dims.push_back(d);
        if (count == kNoVReg) {
          count = d;
        } else {
          MirInst mul;
          mul.op = MirOp::Mul;
          mul.type = MirType::I64;
          mul.a = count;
          mul.b = d;
          mul.dst = fn_.newVReg(MirType::I64);
          mul.line = line;
          append(mul);
          count = mul.dst;
        }
      }
      MirInst alloc;
      alloc.op = MirOp::Alloca;
      alloc.type = MirType::Ptr;
      alloc.a = count;
      alloc.imm = static_cast<std::int64_t>(typeSize(slot.elemType));
      alloc.dst = fn_.newVReg(MirType::Ptr);
      alloc.line = line;
      append(alloc);
      slot.reg = alloc.dst;
    } else if (stmt.declType.scalar == ScalarType::Class &&
               !stmt.declType.isPointer()) {
      // Object: allocate field storage.
      slot.type = MirType::Ptr;
      slot.isClassObject = true;
      VReg one = emitConstI(1, line);
      MirInst alloc;
      alloc.op = MirOp::Alloca;
      alloc.type = MirType::Ptr;
      alloc.a = one;
      alloc.imm = classSize(stmt.declType.className);
      alloc.dst = fn_.newVReg(MirType::Ptr);
      alloc.line = line;
      append(alloc);
      slot.reg = alloc.dst;
    } else {
      slot.type = mirTypeOf(stmt.declType);
      if (stmt.declType.isPointer()) {
        Type elem = stmt.declType;
        --elem.pointerDepth;
        slot.elemType = mirTypeOf(elem);
      }
      slot.reg = fn_.newVReg(slot.type);
      if (stmt.declInit) {
        VReg v = lowerExpr(*stmt.declInit);
        v = castTo(v, mirTypeOf(stmt.declInit->type), slot.type, line);
        MirInst cp;
        cp.op = MirOp::Copy;
        cp.type = slot.type;
        cp.a = v;
        cp.dst = slot.reg;
        cp.line = line;
        append(cp);
      } else {
        // Zero-initialize so the simulator never reads indeterminate bits.
        MirInst cz;
        if (slot.type == MirType::F64 || slot.type == MirType::F32) {
          cz.op = MirOp::ConstF;
          cz.fimm = 0;
        } else {
          cz.op = MirOp::ConstI;
          cz.imm = 0;
        }
        cz.type = slot.type;
        cz.dst = slot.reg;
        cz.line = line;
        append(cz);
      }
    }
  }

  void lowerIf(const Statement &stmt) {
    std::uint32_t line = stmt.range.begin.line;
    VReg cond = lowerCondition(*stmt.expr);
    std::uint32_t thenB = fn_.newBlock();
    std::uint32_t elseB = stmt.elseBranch ? fn_.newBlock() : 0;
    std::uint32_t merge = fn_.newBlock();
    if (!stmt.elseBranch)
      elseB = merge;

    MirInst br;
    br.op = MirOp::Branch;
    br.a = cond;
    br.target = thenB;
    br.targetFalse = elseB;
    br.line = line;
    append(br);

    cur_ = thenB;
    lowerStmt(*stmt.thenBranch);
    if (!fn_.blocks[cur_].terminator()) {
      MirInst j;
      j.op = MirOp::Jump;
      j.target = merge;
      j.line = line;
      append(j);
    }
    if (stmt.elseBranch) {
      cur_ = elseB;
      lowerStmt(*stmt.elseBranch);
      if (!fn_.blocks[cur_].terminator()) {
        MirInst j;
        j.op = MirOp::Jump;
        j.target = merge;
        j.line = line;
        append(j);
      }
    }
    cur_ = merge;
  }

  void lowerWhile(const Statement &stmt) {
    std::uint32_t header = fn_.newBlock();
    MirInst j;
    j.op = MirOp::Jump;
    j.target = header;
    j.line = stmt.range.begin.line;
    append(j);
    cur_ = header;
    VReg cond = lowerCondition(*stmt.forCond);
    std::uint32_t body = fn_.newBlock();
    std::uint32_t exit = fn_.newBlock();
    MirInst br;
    br.op = MirOp::Branch;
    br.a = cond;
    br.target = body;
    br.targetFalse = exit;
    br.line = stmt.range.begin.line;
    append(br);
    cur_ = body;
    lowerStmt(*stmt.loopBody);
    if (!fn_.blocks[cur_].terminator()) {
      MirInst back;
      back.op = MirOp::Jump;
      back.target = header;
      back.line = stmt.range.begin.line;
      append(back);
    }
    cur_ = exit;
  }

  /// The variable names an expression reads, each once, in first-read
  /// order.
  using NameList = InlineVector<const std::string *, 4>;

  static void collectVarRefs(const Expression &e, NameList &out) {
    if (e.kind == ExprKind::VarRef &&
        std::none_of(out.begin(), out.end(),
                     [&e](const std::string *n) { return *n == e.name; }))
      out.push_back(&e.name);
    for (const auto &c : e.children)
      collectVarRefs(*c, out);
    if (e.receiver)
      collectVarRefs(*e.receiver, out);
  }

  static bool isIn(const std::string &name, const NameList &names) {
    return std::any_of(names.begin(), names.end(),
                       [&name](const std::string *n) { return *n == name; });
  }

  /// True when `e` assigns, increments or decrements a variable in
  /// `names`.
  static bool exprAssignsAny(const Expression &e, const NameList &names) {
    const bool writes =
        e.kind == ExprKind::Assign ||
        (e.kind == ExprKind::Unary &&
         (e.unaryOp == UnaryOp::PreInc || e.unaryOp == UnaryOp::PostInc ||
          e.unaryOp == UnaryOp::PreDec || e.unaryOp == UnaryOp::PostDec));
    if (writes && e.children[0]->kind == ExprKind::VarRef &&
        isIn(e.children[0]->name, names))
      return true;
    for (const auto &c : e.children)
      if (exprAssignsAny(*c, names))
        return true;
    return e.receiver && exprAssignsAny(*e.receiver, names);
  }

  /// True when anything under `s` assigns a variable in `names`, or
  /// declares one (shadowing: be conservative). Bound-invariance check.
  static bool assignsAny(const Statement &s, const NameList &names) {
    if (s.kind == StmtKind::Decl && !s.declName.empty() &&
        isIn(s.declName, names))
      return true;
    for (const Expression *e : {s.expr.get(), s.declInit.get(),
                                s.forCond.get(), s.forInc.get()})
      if (e && exprAssignsAny(*e, names))
        return true;
    for (const Statement *c : {s.forInit.get(), s.thenBranch.get(),
                               s.elseBranch.get(), s.loopBody.get()})
      if (c && assignsAny(*c, names))
        return true;
    for (const auto &c : s.body)
      if (assignsAny(*c, names))
        return true;
    return false;
  }

  static bool exprContainsCall(const Expression &e) {
    if (e.kind == ExprKind::Call)
      return true;
    for (const auto &c : e.children)
      if (exprContainsCall(*c))
        return true;
    return e.receiver && exprContainsCall(*e.receiver);
  }

  static bool exprContainsLoad(const Expression &e) {
    if (e.kind == ExprKind::Index || e.kind == ExprKind::Member)
      return true;
    for (const auto &c : e.children)
      if (exprContainsLoad(*c))
        return true;
    return false;
  }

  /// Match 'var++ / ++var / var += c / var = var + c' -> step.
  static std::optional<std::int64_t> matchStep(const Expression &inc,
                                               const std::string &var) {
    if (inc.kind == ExprKind::Unary &&
        (inc.unaryOp == UnaryOp::PostInc || inc.unaryOp == UnaryOp::PreInc) &&
        inc.children[0]->kind == ExprKind::VarRef &&
        inc.children[0]->name == var)
      return 1;
    if (inc.kind == ExprKind::Assign && inc.assignOp == AssignOp::AddAssign &&
        inc.children[0]->kind == ExprKind::VarRef &&
        inc.children[0]->name == var &&
        inc.children[1]->kind == ExprKind::IntLiteral)
      return inc.children[1]->intValue;
    if (inc.kind == ExprKind::Assign && inc.assignOp == AssignOp::Assign &&
        inc.children[0]->kind == ExprKind::VarRef &&
        inc.children[0]->name == var &&
        inc.children[1]->kind == ExprKind::Binary &&
        inc.children[1]->binaryOp == BinaryOp::Add) {
      const Expression *a = inc.children[1]->children[0].get();
      const Expression *b = inc.children[1]->children[1].get();
      if (a->kind == ExprKind::VarRef && a->name == var &&
          b->kind == ExprKind::IntLiteral)
        return b->intValue;
      if (b->kind == ExprKind::VarRef && b->name == var &&
          a->kind == ExprKind::IntLiteral)
        return a->intValue;
    }
    return std::nullopt;
  }

  void lowerFor(const Statement &stmt) {
    std::uint32_t line = stmt.range.begin.line;

    // Try the canonical counted-loop shape, over a local induction
    // variable (a field falls through to the generic for).
    std::string var;
    std::int32_t indSlot = -1;
    const Expression *condRhs = nullptr;
    MirCmp rel = MirCmp::Lt;
    std::optional<std::int64_t> step;
    bool counted = false;

    if (stmt.forInit && stmt.forCond && stmt.forInc) {
      if (stmt.forInit->kind == StmtKind::Decl) {
        var = stmt.forInit->declName;
        indSlot = stmt.forInit->declSlot;
      } else if (stmt.forInit->kind == StmtKind::ExprStmt &&
                 stmt.forInit->expr->kind == ExprKind::Assign &&
                 stmt.forInit->expr->assignOp == AssignOp::Assign &&
                 stmt.forInit->expr->children[0]->kind == ExprKind::VarRef) {
        var = stmt.forInit->expr->children[0]->name;
        indSlot = stmt.forInit->expr->children[0]->slot;
      }
      if (indSlot >= 0 && stmt.forCond->kind == ExprKind::Binary) {
        const Expression *lhs = stmt.forCond->children[0].get();
        const Expression *rhs = stmt.forCond->children[1].get();
        BinaryOp bop = stmt.forCond->binaryOp;
        if (lhs->kind == ExprKind::VarRef && lhs->name == var &&
            (bop == BinaryOp::Lt || bop == BinaryOp::Le)) {
          condRhs = rhs;
          rel = mirCmpOf(bop);
        } else if (rhs->kind == ExprKind::VarRef && rhs->name == var &&
                   (bop == BinaryOp::Gt || bop == BinaryOp::Ge)) {
          condRhs = lhs;
          rel = bop == BinaryOp::Gt ? MirCmp::Lt : MirCmp::Le;
        }
        step = matchStep(*stmt.forInc, var);
      }
      if (condRhs && step && *step > 0) {
        // Bound must not reference the induction variable or anything the
        // body assigns; loads require the ff/hoist annotation; calls are
        // never hoistable.
        NameList boundVars;
        collectVarRefs(*condRhs, boundVars);
        const bool invariantScalars =
            !isIn(var, boundVars) && !assignsAny(*stmt.loopBody, boundVars);
        bool hasCall = exprContainsCall(*condRhs);
        bool hasLoad = exprContainsLoad(*condRhs);
        bool ffAnnotated =
            stmt.annotation &&
            (stmt.annotation->get("sim_ff").value_or("") == "yes" ||
             stmt.annotation->get("sim_hoist").value_or("") == "yes");
        counted = invariantScalars && !hasCall && (!hasLoad || ffAnnotated);
      }
    }

    if (!counted) {
      lowerGenericFor(stmt);
      return;
    }

    // init
    lowerStmt(*stmt.forInit);
    VReg ind = locals_[static_cast<std::size_t>(indSlot)].reg;

    LoopDescriptor loop;
    loop.preheader = cur_;
    loop.induction = ind;
    loop.step = *step;
    loop.sourceLine = line;
    loop.ffEligible = stmt.annotation &&
                      stmt.annotation->get("sim_ff").value_or("") == "yes";

    // Hoisted bound. Normalize Le -> Lt by limit+1 so the vectorizer and
    // fast-forward deal with one relation.
    VReg limit = lowerExpr(*condRhs);
    limit = castTo(limit, mirTypeOf(condRhs->type), MirType::I64, line);
    if (rel == MirCmp::Le) {
      VReg one = emitConstI(1, line);
      MirInst add;
      add.op = MirOp::Add;
      add.type = MirType::I64;
      add.a = limit;
      add.b = one;
      add.dst = fn_.newVReg(MirType::I64);
      add.line = line;
      append(add);
      limit = add.dst;
      rel = MirCmp::Lt;
    }
    loop.limit = limit;
    loop.rel = rel;

    std::uint32_t header = fn_.newBlock();
    std::uint32_t body = fn_.newBlock();
    std::uint32_t latch = fn_.newBlock();
    std::uint32_t exit = fn_.newBlock();
    loop.header = header;
    loop.latch = latch;
    loop.exit = exit;
    fn_.blocks[header].insts.reserve(2); // compare, branch
    fn_.blocks[latch].insts.reserve(3);  // step constant, add, jump

    MirInst toHeader;
    toHeader.op = MirOp::Jump;
    toHeader.target = header;
    toHeader.line = line;
    append(toHeader);

    cur_ = header;
    MirInst cmpInst;
    cmpInst.op = MirOp::ICmp;
    cmpInst.type = MirType::I64;
    cmpInst.cmp = rel;
    cmpInst.a = ind;
    cmpInst.b = limit;
    cmpInst.dst = fn_.newVReg(MirType::I64);
    cmpInst.line = line;
    append(cmpInst);
    MirInst br;
    br.op = MirOp::Branch;
    br.a = cmpInst.dst;
    br.target = body;
    br.targetFalse = exit;
    br.line = line;
    append(br);

    cur_ = body;
    lowerStmt(*stmt.loopBody);
    // Record every block created for the body.
    // (Blocks between `body` and `latch` ids belong to the body region.)
    if (!fn_.blocks[cur_].terminator()) {
      MirInst toLatch;
      toLatch.op = MirOp::Jump;
      toLatch.target = latch;
      toLatch.line = line;
      append(toLatch);
    }
    // Ascending: [body, latch), then everything made after the exit.
    const auto blockCount = static_cast<std::uint32_t>(fn_.blocks.size());
    loop.bodyBlocks.reserve((latch - body) + (blockCount - exit - 1));
    for (std::uint32_t b = body; b < latch; ++b)
      loop.bodyBlocks.push_back(b);
    for (std::uint32_t b = exit + 1; b < blockCount; ++b)
      loop.bodyBlocks.push_back(b);

    cur_ = latch;
    VReg stepReg = emitConstI(*step, line);
    MirInst add;
    add.op = MirOp::Add;
    add.type = MirType::I64;
    add.a = ind;
    add.b = stepReg;
    add.dst = ind;
    add.line = line;
    append(add);
    MirInst back;
    back.op = MirOp::Jump;
    back.target = header;
    back.line = line;
    append(back);

    cur_ = exit;
    fn_.loops.push_back(std::move(loop));
  }

  void lowerGenericFor(const Statement &stmt) {
    if (stmt.forInit)
      lowerStmt(*stmt.forInit);
    std::uint32_t header = fn_.newBlock();
    MirInst j;
    j.op = MirOp::Jump;
    j.target = header;
    j.line = stmt.range.begin.line;
    append(j);
    cur_ = header;
    std::uint32_t body = fn_.newBlock();
    std::uint32_t exit = fn_.newBlock();
    if (stmt.forCond) {
      VReg cond = lowerCondition(*stmt.forCond);
      MirInst br;
      br.op = MirOp::Branch;
      br.a = cond;
      br.target = body;
      br.targetFalse = exit;
      br.line = stmt.range.begin.line;
      append(br);
    } else {
      MirInst jb;
      jb.op = MirOp::Jump;
      jb.target = body;
      jb.line = stmt.range.begin.line;
      append(jb);
    }
    cur_ = body;
    lowerStmt(*stmt.loopBody);
    if (stmt.forInc)
      lowerExpr(*stmt.forInc);
    if (!fn_.blocks[cur_].terminator()) {
      MirInst back;
      back.op = MirOp::Jump;
      back.target = header;
      back.line = stmt.range.begin.line;
      append(back);
    }
    cur_ = exit;
  }

  // -------------------------------------------------------- expressions

  /// Lower an expression used as a branch condition to an I64 0/1 value.
  VReg lowerCondition(const Expression &expr) {
    VReg v = lowerExpr(expr);
    MirType t = mirTypeOf(expr.type);
    if (t == MirType::I64)
      return v;
    // Compare against zero.
    std::uint32_t line = expr.range.begin.line;
    VReg zero = (t == MirType::F64 || t == MirType::F32)
                    ? emitConstF(0, t, line)
                    : emitConstI(0, line);
    MirInst cmpInst;
    cmpInst.op =
        (t == MirType::F64 || t == MirType::F32) ? MirOp::FCmp : MirOp::ICmp;
    cmpInst.type = t;
    cmpInst.cmp = MirCmp::Ne;
    cmpInst.a = v;
    cmpInst.b = zero;
    cmpInst.dst = fn_.newVReg(MirType::I64);
    cmpInst.line = line;
    append(cmpInst);
    return cmpInst.dst;
  }

  LValue lowerLValue(const Expression &expr) {
    std::uint32_t line = expr.range.begin.line;
    LValue lv;
    switch (expr.kind) {
    case ExprKind::VarRef:
      if (const VarSlot *slot = localOf(expr)) {
        lv.reg = slot->reg;
        lv.type = slot->type;
      } else { // a field of the method's class
        lv.isReg = false;
        lv.base = thisReg_;
        lv.disp = fieldOffset(expr);
        lv.type = mirTypeOf(expr.type);
      }
      return lv;
    case ExprKind::Index: {
      // Collect the full index chain a[i][j]... down to the base VarRef.
      InlineVector<const Expression *, 4> indices;
      const Expression *base = &expr;
      while (base->kind == ExprKind::Index) {
        indices.push_back(base->children[1].get());
        base = base->children[0].get();
      }
      std::reverse(indices.begin(), indices.end());

      VReg baseReg;
      MirType elemType;
      InlineVector<VReg, 3> dims;
      if (const VarSlot *slot =
              base->kind == ExprKind::VarRef ? localOf(*base) : nullptr) {
        baseReg = slot->reg;
        elemType = slot->elemType;
        dims = slot->dims;
      } else {
        // A pointer field, bare inside a method or as obj.data[i].
        baseReg = lowerExpr(*base);
        Type t = base->type;
        --t.pointerDepth;
        elemType = mirTypeOf(t);
      }

      // Linearize: ((i0*d1 + i1)*d2 + i2)...
      VReg linear = kNoVReg;
      for (std::size_t k = 0; k < indices.size(); ++k) {
        VReg idx = lowerExpr(*indices[k]);
        idx = castTo(idx, mirTypeOf(indices[k]->type), MirType::I64, line);
        if (linear == kNoVReg) {
          linear = idx;
        } else {
          // linear = linear * dims[k] + idx (dims available for declared
          // arrays; pointer-typed bases must be indexed linearly).
          if (k < dims.size() || !dims.empty()) {
            VReg d = dims.size() > k ? dims[static_cast<std::uint32_t>(k)]
                                     : dims[dims.size() - 1];
            MirInst mul;
            mul.op = MirOp::Mul;
            mul.type = MirType::I64;
            mul.a = linear;
            mul.b = d;
            mul.dst = fn_.newVReg(MirType::I64);
            mul.line = line;
            append(mul);
            linear = mul.dst;
          } else {
            diags_.error(expr.range.begin,
                         "multi-dimensional indexing requires a declared "
                         "array (pointers are linear)");
          }
          MirInst add;
          add.op = MirOp::Add;
          add.type = MirType::I64;
          add.a = linear;
          add.b = idx;
          add.dst = fn_.newVReg(MirType::I64);
          add.line = line;
          append(add);
          linear = add.dst;
        }
      }
      lv.isReg = false;
      lv.base = baseReg;
      lv.index = linear;
      lv.scale = static_cast<std::int32_t>(typeSize(elemType));
      lv.disp = 0;
      lv.type = elemType;
      return lv;
    }
    case ExprKind::Member:
      lv.isReg = false;
      lv.base = objectPointer(*expr.children[0]);
      lv.disp = fieldOffset(expr);
      lv.type = mirTypeOf(expr.type);
      return lv;
    default:
      diags_.error(expr.range.begin, "expression is not an lvalue");
      lv.reg = fn_.newVReg(MirType::I64);
      return lv;
    }
  }

  VReg loadLValue(const LValue &lv, std::uint32_t line) {
    if (lv.isReg)
      return lv.reg;
    MirInst load;
    load.op = MirOp::Load;
    load.type = lv.type;
    load.base = lv.base;
    load.index = lv.index;
    load.scale = lv.scale;
    load.disp = lv.disp;
    load.dst = fn_.newVReg(lv.type);
    load.line = line;
    append(load);
    return load.dst;
  }

  void storeLValue(const LValue &lv, VReg value, std::uint32_t line) {
    if (lv.isReg) {
      MirInst cp;
      cp.op = MirOp::Copy;
      cp.type = lv.type;
      cp.a = value;
      cp.dst = lv.reg;
      cp.line = line;
      append(cp);
      return;
    }
    MirInst store;
    store.op = MirOp::Store;
    store.type = lv.type;
    store.a = value;
    store.base = lv.base;
    store.index = lv.index;
    store.scale = lv.scale;
    store.disp = lv.disp;
    store.line = line;
    append(store);
  }

  VReg lowerExpr(const Expression &expr) {
    std::uint32_t line = expr.range.begin.line;
    switch (expr.kind) {
    case ExprKind::IntLiteral:
      return emitConstI(expr.intValue, line);
    case ExprKind::FloatLiteral:
      return emitConstF(expr.floatValue, mirTypeOf(expr.type), line);
    case ExprKind::BoolLiteral:
      return emitConstI(expr.boolValue ? 1 : 0, line);
    case ExprKind::VarRef:
    case ExprKind::Index:
    case ExprKind::Member: {
      LValue lv = lowerLValue(expr);
      return loadLValue(lv, line);
    }
    case ExprKind::Binary:
      return lowerBinary(expr);
    case ExprKind::Unary:
      return lowerUnary(expr);
    case ExprKind::Assign: {
      const Expression &target = *expr.children[0];
      const Expression &value = *expr.children[1];
      LValue lv = lowerLValue(target);
      VReg rhs = lowerExpr(value);
      rhs = castTo(rhs, mirTypeOf(value.type), lv.type, line);
      if (expr.assignOp != AssignOp::Assign) {
        VReg old = loadLValue(lv, line);
        MirInst op;
        bool isFP = lv.type == MirType::F64 || lv.type == MirType::F32;
        switch (expr.assignOp) {
        case AssignOp::AddAssign:
          op.op = isFP ? MirOp::FAdd : MirOp::Add;
          break;
        case AssignOp::SubAssign:
          op.op = isFP ? MirOp::FSub : MirOp::Sub;
          break;
        case AssignOp::MulAssign:
          op.op = isFP ? MirOp::FMul : MirOp::Mul;
          break;
        case AssignOp::DivAssign:
          op.op = isFP ? MirOp::FDiv : MirOp::Div;
          break;
        default:
          op.op = MirOp::Copy;
          break;
        }
        op.type = lv.type;
        op.a = old;
        op.b = rhs;
        op.dst = fn_.newVReg(lv.type);
        op.line = line;
        append(op);
        rhs = op.dst;
      }
      storeLValue(lv, rhs, line);
      return rhs;
    }
    case ExprKind::Call:
      return lowerCall(expr);
    }
    return emitConstI(0, line);
  }

  VReg lowerBinary(const Expression &expr) {
    std::uint32_t line = expr.range.begin.line;
    BinaryOp bop = expr.binaryOp;

    if (bop == BinaryOp::LAnd || bop == BinaryOp::LOr) {
      // Short-circuit lowering with a result register.
      VReg result = fn_.newVReg(MirType::I64);
      VReg lhs = lowerCondition(*expr.children[0]);
      MirInst cpL;
      cpL.op = MirOp::Copy;
      cpL.type = MirType::I64;
      cpL.a = lhs;
      cpL.dst = result;
      cpL.line = line;
      append(cpL);
      std::uint32_t evalRhs = fn_.newBlock();
      std::uint32_t done = fn_.newBlock();
      MirInst br;
      br.op = MirOp::Branch;
      br.a = result;
      br.line = line;
      if (bop == BinaryOp::LAnd) {
        br.target = evalRhs; // true: result depends on rhs
        br.targetFalse = done;
      } else {
        br.target = done; // true: already 1
        br.targetFalse = evalRhs;
      }
      append(br);
      cur_ = evalRhs;
      VReg rhs = lowerCondition(*expr.children[1]);
      MirInst cpR;
      cpR.op = MirOp::Copy;
      cpR.type = MirType::I64;
      cpR.a = rhs;
      cpR.dst = result;
      cpR.line = line;
      append(cpR);
      MirInst j;
      j.op = MirOp::Jump;
      j.target = done;
      j.line = line;
      append(j);
      cur_ = done;
      return result;
    }

    VReg lhs = lowerExpr(*expr.children[0]);
    VReg rhs = lowerExpr(*expr.children[1]);
    MirType lt = mirTypeOf(expr.children[0]->type);
    MirType rt = mirTypeOf(expr.children[1]->type);

    switch (bop) {
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      MirType common = (lt == MirType::F64 || rt == MirType::F64)
                           ? MirType::F64
                       : (lt == MirType::F32 || rt == MirType::F32)
                           ? MirType::F32
                           : MirType::I64;
      lhs = castTo(lhs, lt, common, line);
      rhs = castTo(rhs, rt, common, line);
      MirInst cmpInst;
      cmpInst.op = (common == MirType::I64 || common == MirType::Ptr)
                       ? MirOp::ICmp
                       : MirOp::FCmp;
      cmpInst.type = common;
      cmpInst.cmp = mirCmpOf(bop);
      cmpInst.a = lhs;
      cmpInst.b = rhs;
      cmpInst.dst = fn_.newVReg(MirType::I64);
      cmpInst.line = line;
      append(cmpInst);
      return cmpInst.dst;
    }
    default:
      break;
    }

    MirType common = mirTypeOf(expr.type);
    lhs = castTo(lhs, lt, common, line);
    rhs = castTo(rhs, rt, common, line);
    bool isFP = common == MirType::F64 || common == MirType::F32;
    MirInst op;
    switch (bop) {
    case BinaryOp::Add:
      op.op = isFP ? MirOp::FAdd : MirOp::Add;
      break;
    case BinaryOp::Sub:
      op.op = isFP ? MirOp::FSub : MirOp::Sub;
      break;
    case BinaryOp::Mul:
      op.op = isFP ? MirOp::FMul : MirOp::Mul;
      break;
    case BinaryOp::Div:
      op.op = isFP ? MirOp::FDiv : MirOp::Div;
      break;
    case BinaryOp::Mod:
      op.op = MirOp::Rem;
      break;
    default:
      op.op = MirOp::Copy;
      break;
    }
    op.type = common;
    op.a = lhs;
    op.b = rhs;
    op.dst = fn_.newVReg(common);
    op.line = line;
    append(op);
    return op.dst;
  }

  VReg lowerUnary(const Expression &expr) {
    std::uint32_t line = expr.range.begin.line;
    const Expression &operand = *expr.children[0];
    switch (expr.unaryOp) {
    case UnaryOp::Neg: {
      VReg v = lowerExpr(operand);
      MirType t = mirTypeOf(expr.type);
      v = castTo(v, mirTypeOf(operand.type), t, line);
      MirInst op;
      op.op = (t == MirType::F64 || t == MirType::F32) ? MirOp::FNeg
                                                       : MirOp::Neg;
      op.type = t;
      op.a = v;
      op.dst = fn_.newVReg(t);
      op.line = line;
      append(op);
      return op.dst;
    }
    case UnaryOp::Not: {
      VReg v = lowerCondition(operand);
      VReg zero = emitConstI(0, line);
      MirInst cmpInst;
      cmpInst.op = MirOp::ICmp;
      cmpInst.type = MirType::I64;
      cmpInst.cmp = MirCmp::Eq;
      cmpInst.a = v;
      cmpInst.b = zero;
      cmpInst.dst = fn_.newVReg(MirType::I64);
      cmpInst.line = line;
      append(cmpInst);
      return cmpInst.dst;
    }
    case UnaryOp::PreInc:
    case UnaryOp::PostInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostDec: {
      LValue lv = lowerLValue(operand);
      VReg old = loadLValue(lv, line);
      bool post = expr.unaryOp == UnaryOp::PostInc ||
                  expr.unaryOp == UnaryOp::PostDec;
      VReg result = old;
      if (post) {
        MirInst cp;
        cp.op = MirOp::Copy;
        cp.type = lv.type;
        cp.a = old;
        cp.dst = fn_.newVReg(lv.type);
        cp.line = line;
        append(cp);
        result = cp.dst;
      }
      VReg one = emitConstI(1, line);
      MirInst op;
      bool inc = expr.unaryOp == UnaryOp::PreInc ||
                 expr.unaryOp == UnaryOp::PostInc;
      op.op = inc ? MirOp::Add : MirOp::Sub;
      op.type = MirType::I64;
      op.a = old;
      op.b = one;
      op.dst = fn_.newVReg(MirType::I64);
      op.line = line;
      append(op);
      storeLValue(lv, op.dst, line);
      return post ? result : op.dst;
    }
    }
    return emitConstI(0, line);
  }

  VReg lowerCall(const Expression &expr) {
    std::uint32_t line = expr.range.begin.line;

    // Builtins lower to single instructions.
    if (expr.isBuiltin) {
      auto unaryFP = [&](MirOp op) {
        VReg v = lowerExpr(*expr.children[0]);
        v = castTo(v, mirTypeOf(expr.children[0]->type), MirType::F64, line);
        MirInst i;
        i.op = op;
        i.type = MirType::F64;
        i.a = v;
        i.dst = fn_.newVReg(MirType::F64);
        i.line = line;
        append(i);
        return i.dst;
      };
      auto binFP = [&](MirOp op) {
        VReg a = lowerExpr(*expr.children[0]);
        a = castTo(a, mirTypeOf(expr.children[0]->type), MirType::F64, line);
        VReg b = lowerExpr(*expr.children[1]);
        b = castTo(b, mirTypeOf(expr.children[1]->type), MirType::F64, line);
        MirInst i;
        i.op = op;
        i.type = MirType::F64;
        i.a = a;
        i.b = b;
        i.dst = fn_.newVReg(MirType::F64);
        i.line = line;
        append(i);
        return i.dst;
      };
      auto binInt = [&](MirOp op) {
        VReg a = lowerExpr(*expr.children[0]);
        VReg b = lowerExpr(*expr.children[1]);
        MirInst i;
        i.op = op;
        i.type = MirType::I64;
        i.a = a;
        i.b = b;
        i.dst = fn_.newVReg(MirType::I64);
        i.line = line;
        append(i);
        return i.dst;
      };
      if (expr.name == "sqrt")
        return unaryFP(MirOp::FSqrt);
      if (expr.name == "fabs")
        return unaryFP(MirOp::FAbs);
      if (expr.name == "fmin")
        return binFP(MirOp::FMin);
      if (expr.name == "fmax")
        return binFP(MirOp::FMax);
      if (expr.name == "min")
        return binInt(MirOp::IMin);
      if (expr.name == "max")
        return binInt(MirOp::IMax);
    }

    MirInst call;
    call.op = MirOp::Call;
    call.callee = expr.resolvedCallee;
    call.externCall = expr.isExtern;
    call.line = line;
    call.args.reserve(expr.children.size() + (expr.receiver ? 1 : 0));

    // The object storage pointer is the implicit first argument.
    if (expr.receiver)
      call.args.push_back(objectPointer(*expr.receiver));

    const FunctionDecl *callee = expr.callee;
    for (std::size_t i = 0; i < expr.children.size(); ++i) {
      VReg v = lowerExpr(*expr.children[i]);
      MirType argType = mirTypeOf(expr.children[i]->type);
      if (callee && i < callee->params.size()) {
        MirType want = mirTypeOf(callee->params[i].type);
        v = castTo(v, argType, want, line);
      }
      call.args.push_back(v);
    }

    MirType ret = mirTypeOf(expr.type);
    call.type = ret;
    call.dst = ret == MirType::Void ? kNoVReg : fn_.newVReg(ret);
    append(call);
    return call.dst == kNoVReg ? emitConstI(0, line) : call.dst;
  }

  const TranslationUnit &unit_;
  const FunctionDecl &decl_;
  DiagnosticEngine &diags_;
  MirFunction fn_;
  std::uint32_t cur_ = 0;
  VReg thisReg_ = kNoVReg;
  std::vector<VarSlot> locals_; // by the slot sema bound
};

} // namespace

MirModule lowerToMir(const TranslationUnit &unit,
                     const CompilerOptions &options, DiagnosticEngine &diags) {
  MirModule module;
  const std::vector<const FunctionDecl *> functions = unit.allFunctions();
  module.functions.reserve(functions.size());
  for (const FunctionDecl *decl : functions) {
    FunctionLowerer lowerer(unit, *decl, diags);
    module.functions.push_back(lowerer.run());
  }
  if (options.optimize) {
    for (MirFunction &fn : module.functions) {
      foldConstants(fn);
      propagateCopies(fn);
      eliminateDeadCode(fn);
      removeUnreachableBlocks(fn);
    }
  }
  if (options.vectorize) {
    for (MirFunction &fn : module.functions)
      vectorizeLoops(fn);
  }
  return module;
}

} // namespace mira::mir
