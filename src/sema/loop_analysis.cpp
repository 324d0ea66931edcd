#include "sema/loop_analysis.h"

#include <limits>

#include "symbolic/interner.h"

namespace mira::sema {

using frontend::AssignOp;
using frontend::BinaryOp;
using frontend::ExprKind;
using frontend::Expression;
using frontend::Statement;
using frontend::StmtKind;
using frontend::UnaryOp;
using polyhedral::AffineExpr;
using symbolic::ExprInterner;

namespace {

/// exprToAffine without the overflow guard: AffineExpr arithmetic throws
/// symbolic::ArithmeticError on int64 overflow.
std::optional<AffineExpr> toAffine(const Expression &expr) {
  switch (expr.kind) {
  case ExprKind::IntLiteral:
    return AffineExpr(expr.intValue);
  case ExprKind::VarRef:
    return AffineExpr::variable(ExprInterner::current().symbol(expr.name));
  case ExprKind::Unary:
    if (expr.unaryOp == UnaryOp::Neg) {
      auto inner = toAffine(*expr.children[0]);
      if (inner)
        return -*inner;
    }
    return std::nullopt;
  case ExprKind::Binary: {
    auto lhs = toAffine(*expr.children[0]);
    auto rhs = toAffine(*expr.children[1]);
    if (!lhs || !rhs)
      return std::nullopt;
    switch (expr.binaryOp) {
    case BinaryOp::Add:
      return *lhs + *rhs;
    case BinaryOp::Sub:
      return *lhs - *rhs;
    case BinaryOp::Mul:
      if (lhs->isConstant())
        return rhs->scaled(lhs->constant());
      if (rhs->isConstant())
        return lhs->scaled(rhs->constant());
      return std::nullopt; // nonlinear
    case BinaryOp::Div: {
      // Exact division by a constant only when every coefficient divides.
      // INT64_MIN / -1 has no int64 quotient (the compile-time fold leaves
      // it unfolded too), and evaluating its '%' would trap.
      if (!rhs->isConstant() || rhs->constant() == 0)
        return std::nullopt;
      const std::int64_t d = rhs->constant();
      auto divides = [d](std::int64_t v) {
        return !(d == -1 && v == std::numeric_limits<std::int64_t>::min()) &&
               v % d == 0;
      };
      if (!divides(lhs->constant()))
        return std::nullopt;
      AffineExpr out(lhs->constant() / d);
      for (const auto &[v, c] : lhs->terms()) {
        if (!divides(c))
          return std::nullopt;
        out += AffineExpr::variable(v, c / d);
      }
      return out;
    }
    default:
      return std::nullopt;
    }
  }
  default:
    return std::nullopt;
  }
}

} // namespace

std::optional<AffineExpr> exprToAffine(const Expression &expr) {
  try {
    return toAffine(expr);
  } catch (const symbolic::ArithmeticError &) {
    return std::nullopt; // a coefficient overflows int64: not affine
  }
}

namespace {

LoopInfo fail(std::string reason) {
  LoopInfo info;
  info.failReason = std::move(reason);
  return info;
}

} // namespace

LoopInfo analyzeForLoop(const Statement &forStmt) {
  if (forStmt.kind != StmtKind::For)
    return fail("not a for statement");

  LoopInfo info;

  // ---- init: 'type var = expr' or 'var = expr' ----
  const Statement *init = forStmt.forInit.get();
  const Expression *initValue = nullptr;
  std::string_view var;
  if (!init)
    return fail("missing loop initialization");
  if (init->kind == StmtKind::Decl) {
    var = init->declName;
    initValue = init->declInit.get();
  } else if (init->kind == StmtKind::ExprStmt && init->expr &&
             init->expr->kind == ExprKind::Assign &&
             init->expr->assignOp == AssignOp::Assign &&
             init->expr->children[0]->kind == ExprKind::VarRef) {
    var = init->expr->children[0]->name;
    initValue = init->expr->children[1].get();
  } else {
    return fail("loop initialization is not a simple assignment");
  }
  if (!initValue)
    return fail("loop variable has no initial value");
  info.var = ExprInterner::current().symbol(var);

  // ---- condition: 'var < expr' | 'var <= expr' | reversed forms ----
  const Expression *cond = forStmt.forCond.get();
  if (!cond)
    return fail("missing loop condition");
  if (cond->kind != ExprKind::Binary)
    return fail("loop condition is not a comparison");
  const Expression *condLhs = cond->children[0].get();
  const Expression *condRhs = cond->children[1].get();
  BinaryOp rel = cond->binaryOp;
  // Normalize to 'var REL bound'.
  if (!(condLhs->kind == ExprKind::VarRef && condLhs->name == var)) {
    if (condRhs->kind == ExprKind::VarRef && condRhs->name == var) {
      std::swap(condLhs, condRhs);
      switch (rel) { // mirror the relation
      case BinaryOp::Lt:
        rel = BinaryOp::Gt;
        break;
      case BinaryOp::Le:
        rel = BinaryOp::Ge;
        break;
      case BinaryOp::Gt:
        rel = BinaryOp::Lt;
        break;
      case BinaryOp::Ge:
        rel = BinaryOp::Le;
        break;
      default:
        break;
      }
    } else {
      return fail("loop condition does not test the loop variable");
    }
  }
  auto bound = exprToAffine(*condRhs);
  if (!bound)
    return fail("loop bound is not affine: " + condRhs->str());
  if (bound->involves(info.var))
    return fail("loop bound references the loop variable itself");

  // ---- increment: var++ / ++var / var += c / var = var + c ----
  const Expression *inc = forStmt.forInc.get();
  if (!inc)
    return fail("missing loop increment");
  std::int64_t step = 0;
  if (inc->kind == ExprKind::Unary &&
      (inc->unaryOp == UnaryOp::PostInc || inc->unaryOp == UnaryOp::PreInc) &&
      inc->children[0]->kind == ExprKind::VarRef &&
      inc->children[0]->name == var) {
    step = 1;
  } else if (inc->kind == ExprKind::Assign &&
             inc->assignOp == AssignOp::AddAssign &&
             inc->children[0]->kind == ExprKind::VarRef &&
             inc->children[0]->name == var &&
             inc->children[1]->kind == ExprKind::IntLiteral) {
    step = inc->children[1]->intValue;
  } else if (inc->kind == ExprKind::Assign &&
             inc->assignOp == AssignOp::Assign &&
             inc->children[0]->kind == ExprKind::VarRef &&
             inc->children[0]->name == var &&
             inc->children[1]->kind == ExprKind::Binary &&
             inc->children[1]->binaryOp == BinaryOp::Add) {
    const Expression *a = inc->children[1]->children[0].get();
    const Expression *b = inc->children[1]->children[1].get();
    if (a->kind == ExprKind::VarRef && a->name == var &&
        b->kind == ExprKind::IntLiteral)
      step = b->intValue;
    else if (b->kind == ExprKind::VarRef && b->name == var &&
             a->kind == ExprKind::IntLiteral)
      step = a->intValue;
  }
  if (step <= 0)
    return fail("loop increment is not a positive constant step");
  info.step = step;

  // Only upward-counting loops with < / <= are recognized (the paper's
  // kernels are all of this shape; downward loops would mirror this code).
  auto lb = exprToAffine(*initValue);
  if (!lb)
    return fail("loop initial value is not affine: " + initValue->str());
  switch (rel) {
  case BinaryOp::Lt:
    try {
      info.upperBound = *bound - AffineExpr(1);
    } catch (const symbolic::ArithmeticError &) {
      return fail("loop bound is not affine: " + condRhs->str());
    }
    break;
  case BinaryOp::Le:
    info.upperBound = *bound;
    break;
  default:
    return fail("loop condition relation must be '<' or '<='");
  }
  info.lowerBound = *lb;
  info.recognized = true;
  return info;
}

} // namespace mira::sema
