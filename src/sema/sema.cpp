#include "sema/sema.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace mira::sema {

using frontend::ClassDecl;
using frontend::ExprKind;
using frontend::Expression;
using frontend::ScalarType;
using frontend::Statement;
using frontend::StmtKind;

namespace {

Type makeType(ScalarType s, int ptr = 0) {
  Type t;
  t.scalar = s;
  t.pointerDepth = ptr;
  return t;
}

/// Usual arithmetic conversions, simplified.
Type promote(const Type &a, const Type &b) {
  if (a.isPointer())
    return a;
  if (b.isPointer())
    return b;
  auto rank = [](ScalarType s) {
    switch (s) {
    case ScalarType::Bool:
      return 0;
    case ScalarType::Int:
      return 1;
    case ScalarType::Long:
      return 2;
    case ScalarType::Float:
      return 3;
    case ScalarType::Double:
      return 4;
    default:
      return 1;
    }
  };
  return rank(a.scalar) >= rank(b.scalar) ? a : b;
}

/// The index of `cls`'s first field called `name`, or -1.
std::int32_t fieldIndex(const ClassDecl &cls, const std::string &name) {
  for (std::size_t f = 0; f < cls.fields.size(); ++f)
    if (cls.fields[f].name == name)
      return static_cast<std::int32_t>(f);
  return -1;
}

/// What a name denotes at one point of a function: a local slot, or a
/// field of the method's class.
struct Binding {
  const Type *type = nullptr; // null when the name is undeclared
  std::int32_t slot = -1;
  std::int32_t field = -1;
};

/// Checks and binds one function body at a time.
class FunctionChecker {
public:
  FunctionChecker(TranslationUnit &unit, DiagnosticEngine &diags)
      : unit_(unit), diags_(diags) {}

  /// Checks `fn`, a method of `cls` or a free function (`cls` null), and
  /// appends the index of each user function it calls to `calls`.
  void run(const FunctionDecl &fn, const ClassDecl *cls,
           std::vector<std::uint32_t> &calls) {
    fn_ = &fn;
    cls_ = cls;
    calls_ = &calls;
    slots_ = 0;
    for (const auto &p : fn.params)
      declare(p.name, p.type, p.location);
    checkStmt(*fn.bodyStmt);
    scope_.clear();
  }

private:
  /// A declaration visible at the current point.
  struct Local {
    const std::string *name;
    Type type;
    std::int32_t slot;
  };

  /// Declares `name` in the innermost block; returns its new slot.
  std::int32_t declare(const std::string &name, const Type &type,
                       SourceLocation loc) {
    for (std::size_t i = blockStart_; i < scope_.size(); ++i)
      if (*scope_[i].name == name) {
        diags_.error(loc, "redeclaration of '" + name + "'");
        break;
      }
    scope_.push_back({&name, type, slots_});
    return slots_++;
  }

  /// The innermost declaration of `name`, else the method's field. The
  /// type pointer is good until the next declaration.
  Binding lookup(const std::string &name) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it)
      if (*it->name == name)
        return {&it->type, it->slot, -1};
    if (cls_)
      if (const std::int32_t f = fieldIndex(*cls_, name); f >= 0)
        return {&cls_->fields[static_cast<std::size_t>(f)].type, -1, f};
    return {};
  }

  /// Checks what `body` does as one block: its declarations end with it.
  template <class Body> void block(Body body) {
    const std::size_t outer = blockStart_;
    blockStart_ = scope_.size();
    body();
    scope_.erase(scope_.begin() + static_cast<std::ptrdiff_t>(blockStart_),
                 scope_.end());
    blockStart_ = outer;
  }

  void checkStmt(Statement &stmt) {
    switch (stmt.kind) {
    case StmtKind::Compound:
      block([&] {
        for (auto &s : stmt.body)
          checkStmt(*s);
      });
      break;
    case StmtKind::Decl: {
      for (auto &dim : stmt.arrayDims)
        checkExpr(*dim);
      Type varType = stmt.declType;
      // Local arrays decay to pointers for typing purposes.
      varType.pointerDepth += static_cast<int>(stmt.arrayDims.size());
      if (stmt.declInit) {
        checkExpr(*stmt.declInit);
        if (varType.scalar == ScalarType::Class && !varType.isPointer())
          diags_.error(stmt.range.begin,
                       "class-typed variables cannot have initializers");
      }
      stmt.declSlot = declare(stmt.declName, varType, stmt.range.begin);
      break;
    }
    case StmtKind::ExprStmt:
      if (stmt.expr)
        checkExpr(*stmt.expr);
      break;
    case StmtKind::For:
      block([&] {
        if (stmt.forInit)
          checkStmt(*stmt.forInit);
        if (stmt.forCond)
          checkExpr(*stmt.forCond);
        if (stmt.forInc)
          checkExpr(*stmt.forInc);
        if (stmt.loopBody)
          checkStmt(*stmt.loopBody);
      });
      break;
    case StmtKind::While:
      if (stmt.forCond)
        checkExpr(*stmt.forCond);
      if (stmt.loopBody)
        checkStmt(*stmt.loopBody);
      break;
    case StmtKind::If:
      if (stmt.expr)
        checkExpr(*stmt.expr);
      if (stmt.thenBranch)
        checkStmt(*stmt.thenBranch);
      if (stmt.elseBranch)
        checkStmt(*stmt.elseBranch);
      break;
    case StmtKind::Return:
      if (stmt.expr) {
        checkExpr(*stmt.expr);
        if (fn_->returnType.isVoid())
          diags_.error(stmt.range.begin,
                       "void function '" + fn_->qualifiedName() +
                           "' returns a value");
      } else if (!fn_->returnType.isVoid()) {
        diags_.error(stmt.range.begin,
                     "non-void function '" + fn_->qualifiedName() +
                         "' returns nothing");
      }
      break;
    case StmtKind::Empty:
      break;
    }
  }

  void checkExpr(Expression &expr) {
    switch (expr.kind) {
    case ExprKind::IntLiteral:
      expr.type = makeType(ScalarType::Int);
      break;
    case ExprKind::FloatLiteral:
      expr.type = makeType(ScalarType::Double);
      break;
    case ExprKind::BoolLiteral:
      expr.type = makeType(ScalarType::Bool);
      break;
    case ExprKind::VarRef: {
      const Binding b = lookup(expr.name);
      if (!b.type) {
        diags_.error(expr.range.begin,
                     "use of undeclared identifier '" + expr.name + "'");
        expr.type = makeType(ScalarType::Int);
      } else {
        expr.type = *b.type;
        expr.slot = b.slot;
        expr.field = b.field;
      }
      break;
    }
    case ExprKind::Binary: {
      checkExpr(*expr.children[0]);
      checkExpr(*expr.children[1]);
      using frontend::BinaryOp;
      switch (expr.binaryOp) {
      case BinaryOp::Lt:
      case BinaryOp::Le:
      case BinaryOp::Gt:
      case BinaryOp::Ge:
      case BinaryOp::Eq:
      case BinaryOp::Ne:
      case BinaryOp::LAnd:
      case BinaryOp::LOr:
        expr.type = makeType(ScalarType::Bool);
        break;
      case BinaryOp::Mod: {
        Type t = promote(expr.children[0]->type, expr.children[1]->type);
        if (t.isFloatingPoint())
          diags_.error(expr.range.begin, "'%' requires integer operands");
        expr.type = t;
        break;
      }
      default:
        expr.type = promote(expr.children[0]->type, expr.children[1]->type);
        break;
      }
      break;
    }
    case ExprKind::Unary:
      checkExpr(*expr.children[0]);
      expr.type = expr.unaryOp == frontend::UnaryOp::Not
                      ? makeType(ScalarType::Bool)
                      : expr.children[0]->type;
      break;
    case ExprKind::Assign: {
      Expression &target = *expr.children[0];
      checkExpr(target);
      checkExpr(*expr.children[1]);
      if (target.kind != ExprKind::VarRef && target.kind != ExprKind::Index &&
          target.kind != ExprKind::Member)
        diags_.error(expr.range.begin, "assignment target is not an lvalue");
      expr.type = target.type;
      break;
    }
    case ExprKind::Index: {
      checkExpr(*expr.children[0]);
      checkExpr(*expr.children[1]);
      Type base = expr.children[0]->type;
      if (!base.isPointer()) {
        diags_.error(expr.range.begin,
                     "subscripted value is not a pointer/array");
        expr.type = makeType(ScalarType::Int);
      } else {
        expr.type = base;
        --expr.type.pointerDepth;
      }
      if (!expr.children[1]->type.isInteger())
        diags_.error(expr.range.begin, "array subscript is not an integer");
      break;
    }
    case ExprKind::Member: {
      checkExpr(*expr.children[0]);
      const Type &base = expr.children[0]->type;
      if (base.scalar != ScalarType::Class) {
        diags_.error(expr.range.begin,
                     "member access on non-class value");
        expr.type = makeType(ScalarType::Int);
        break;
      }
      const ClassDecl *cls = unit_.findClass(base.className);
      expr.field = cls ? fieldIndex(*cls, expr.name) : -1;
      if (expr.field < 0) {
        diags_.error(expr.range.begin, "no field '" + expr.name +
                                           "' in class '" + base.className +
                                           "'");
        expr.type = makeType(ScalarType::Int);
      } else {
        expr.type = cls->fields[static_cast<std::size_t>(expr.field)].type;
      }
      break;
    }
    case ExprKind::Call:
      checkCall(expr);
      break;
    }
  }

  void checkCall(Expression &expr) {
    // `x(args)` where x is a class-typed variable is an operator() call.
    if (!expr.receiver && !expr.name.empty()) {
      const Binding b = lookup(expr.name);
      if (b.type && b.type->scalar == ScalarType::Class &&
          !b.type->isPointer()) {
        expr.receiver = Expression::varRef(unit_.arena, expr.name, expr.range);
        expr.name = "operator()";
      }
    }

    for (auto &arg : expr.children)
      checkExpr(*arg);

    if (expr.receiver) {
      checkExpr(*expr.receiver);
      const Type &recvType = expr.receiver->type;
      if (recvType.scalar != ScalarType::Class) {
        diags_.error(expr.range.begin, "method call on non-class value");
        expr.type = makeType(ScalarType::Int);
        return;
      }
      std::string qualified = recvType.className + "::" + expr.name;
      const FunctionDecl *callee = unit_.findFunction(qualified);
      if (!callee) {
        diags_.error(expr.range.begin,
                     "no method '" + expr.name + "' in class '" +
                         recvType.className + "'");
        expr.type = makeType(ScalarType::Int);
        return;
      }
      if (callee->params.size() != expr.children.size())
        diags_.error(expr.range.begin,
                     "call to '" + qualified + "' with " +
                         std::to_string(expr.children.size()) +
                         " arguments; expected " +
                         std::to_string(callee->params.size()));
      bindCall(expr, *callee, std::move(qualified));
      return;
    }

    // Free function: user-defined first, then builtins/externals.
    if (const FunctionDecl *callee = unit_.findFunction(expr.name)) {
      if (callee->params.size() != expr.children.size())
        diags_.error(expr.range.begin,
                     "call to '" + expr.name + "' with " +
                         std::to_string(expr.children.size()) +
                         " arguments; expected " +
                         std::to_string(callee->params.size()));
      bindCall(expr, *callee, expr.name);
      return;
    }
    for (const KnownFunction &kf : SemanticAnalyzer::knownFunctions()) {
      if (kf.name != expr.name)
        continue;
      if (kf.paramTypes.size() != expr.children.size()) {
        diags_.error(expr.range.begin,
                     "call to '" + expr.name + "' with wrong arity");
      }
      expr.resolvedCallee = expr.name;
      expr.isBuiltin = !kf.isExtern;
      expr.isExtern = kf.isExtern;
      expr.type = kf.returnType;
      return;
    }
    diags_.error(expr.range.begin,
                 "call to undeclared function '" + expr.name + "'");
    expr.type = makeType(ScalarType::Int);
  }

  void bindCall(Expression &expr, const FunctionDecl &callee,
                std::string qualified) {
    expr.resolvedCallee = std::move(qualified);
    expr.callee = &callee;
    expr.type = callee.returnType;
    calls_->push_back(callee.index);
  }

  TranslationUnit &unit_;
  DiagnosticEngine &diags_;
  const FunctionDecl *fn_ = nullptr;
  const ClassDecl *cls_ = nullptr;
  std::vector<std::uint32_t> *calls_ = nullptr;
  // Visible declarations, outermost first; the innermost block's start
  // at blockStart_. A block's declarations end with it, and a later
  // declaration of a name shadows an earlier one.
  std::vector<Local> scope_;
  std::size_t blockStart_ = 0;
  std::int32_t slots_ = 0;
};

} // namespace

SemanticAnalyzer::SemanticAnalyzer(DiagnosticEngine &diags) : diags_(diags) {}

const std::vector<KnownFunction> &SemanticAnalyzer::knownFunctions() {
  static const std::vector<KnownFunction> table = [] {
    Type d = makeType(ScalarType::Double);
    Type i = makeType(ScalarType::Int);
    Type v = makeType(ScalarType::Void);
    std::vector<KnownFunction> fns;
    // Builtins lowered to machine instructions:
    fns.push_back({"sqrt", d, {d}, false});
    fns.push_back({"fabs", d, {d}, false});
    fns.push_back({"fmin", d, {d, d}, false});
    fns.push_back({"fmax", d, {d, d}, false});
    fns.push_back({"min", i, {i, i}, false});
    fns.push_back({"max", i, {i, i}, false});
    // Externals: opaque library calls, the paper's residual error source.
    fns.push_back({"mc_clock", d, {}, true});
    fns.push_back({"mc_print", v, {d}, true});
    fns.push_back({"mc_print_int", v, {i}, true});
    fns.push_back({"mc_rand", d, {}, true});
    return fns;
  }();
  return table;
}

SemaResult SemanticAnalyzer::analyze(TranslationUnit &unit) {
  SemaResult result;
  CallGraph &graph = result.callGraph;

  for (const auto &cls : unit.classes) {
    if (unit.findClass(cls->name) != cls.get())
      diags_.error(cls->range.begin,
                   "redefinition of class '" + cls->name + "'");
    for (std::size_t f = 0; f < cls->fields.size(); ++f) {
      const std::string &name = cls->fields[f].name;
      if (fieldIndex(*cls, name) != static_cast<std::int32_t>(f))
        diags_.error(cls->fields[f].location,
                     "redeclaration of field '" + name + "'");
    }
  }

  // Every function in allFunctions() order, with its class if a method.
  std::vector<std::pair<FunctionDecl *, const ClassDecl *>> functions;
  for (const auto &cls : unit.classes)
    for (const auto &method : cls->methods)
      functions.emplace_back(method.get(), cls.get());
  for (const auto &fn : unit.functions)
    functions.emplace_back(fn.get(), nullptr);
  const auto count = static_cast<std::uint32_t>(functions.size());

  // byName: the functions in qualified-name order, declaration order
  // among equal names; rank is its inverse.
  std::vector<std::string> names(count);
  std::vector<std::uint32_t> byName(count);
  for (std::uint32_t f = 0; f < count; ++f) {
    functions[f].first->index = f;
    names[f] = functions[f].first->qualifiedName();
    byName[f] = f;
  }
  std::sort(byName.begin(), byName.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return std::tie(names[a], a) < std::tie(names[b], b);
            });
  std::vector<std::uint32_t> rank(count);
  for (std::uint32_t k = 0; k < count; ++k)
    rank[byName[k]] = k;
  for (std::uint32_t f = 0; f < count; ++f)
    if (rank[f] > 0 && names[byName[rank[f] - 1]] == names[f])
      diags_.error(functions[f].first->range.begin,
                   "redefinition of function '" + names[f] + "'");

  FunctionChecker checker(unit, diags_);
  graph.callees.resize(count);
  std::vector<std::uint32_t> calls;
  for (std::uint32_t f = 0; f < count; ++f) {
    calls.clear();
    checker.run(*functions[f].first, functions[f].second, calls);
    std::sort(calls.begin(), calls.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return rank[a] < rank[b];
              });
    calls.erase(std::unique(calls.begin(), calls.end()), calls.end());
    graph.callees[f].assign(calls.begin(), calls.end());
  }

  // Depth-first post-order from each root in name order; meeting a
  // function that is still being visited closes a call cycle.
  enum : std::uint8_t { kUnseen, kVisiting, kDone };
  std::vector<std::uint8_t> state(count, kUnseen);
  bool hasCycle = false;
  graph.order.reserve(count);
  auto visit = [&](auto &self, std::uint32_t f) -> void {
    if (state[f] == kDone)
      return;
    if (state[f] == kVisiting) {
      hasCycle = true;
      return;
    }
    state[f] = kVisiting;
    for (std::uint32_t callee : graph.callees[f])
      self(self, callee);
    state[f] = kDone;
    graph.order.push_back(f);
  };
  for (std::uint32_t f : byName)
    visit(visit, f);
  if (hasCycle)
    diags_.error({}, "recursive call cycle detected; MiniC models are "
                     "non-recursive");

  result.success = !diags_.hasErrors();
  return result;
}

} // namespace mira::sema
