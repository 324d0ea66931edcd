#include "sema/sema.h"

#include <cassert>
#include <functional>

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

struct Scope {
  std::map<std::string, Type> vars;
};

class FunctionChecker {
public:
  FunctionChecker(TranslationUnit &unit, FunctionDecl &fn,
                  DiagnosticEngine &diags, CallGraph &graph)
      : unit_(unit), fn_(fn), diags_(diags), graph_(graph) {}

  void run() {
    scopes_.emplace_back();
    for (const auto &p : fn_.params)
      declare(p.name, p.type, p.location);
    checkStmt(*fn_.bodyStmt);
    scopes_.pop_back();
  }

private:
  void declare(const std::string &name, const Type &type,
               SourceLocation loc) {
    if (scopes_.back().vars.count(name))
      diags_.error(loc, "redeclaration of '" + name + "'");
    scopes_.back().vars[name] = type;
  }

  const Type *lookup(const std::string &name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->vars.find(name);
      if (found != it->vars.end())
        return &found->second;
    }
    // class fields of the enclosing class
    if (!fn_.className.empty()) {
      if (const ClassDecl *cls = unit_.findClass(fn_.className)) {
        for (const auto &f : cls->fields)
          if (f.name == name)
            return &f.type;
      }
    }
    return nullptr;
  }

  void checkStmt(Statement &stmt) {
    switch (stmt.kind) {
    case StmtKind::Compound:
      scopes_.emplace_back();
      for (auto &s : stmt.body)
        checkStmt(*s);
      scopes_.pop_back();
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
      declare(stmt.declName, varType, stmt.range.begin);
      break;
    }
    case StmtKind::ExprStmt:
      if (stmt.expr)
        checkExpr(*stmt.expr);
      break;
    case StmtKind::For:
      scopes_.emplace_back();
      if (stmt.forInit)
        checkStmt(*stmt.forInit);
      if (stmt.forCond)
        checkExpr(*stmt.forCond);
      if (stmt.forInc)
        checkExpr(*stmt.forInc);
      if (stmt.loopBody)
        checkStmt(*stmt.loopBody);
      scopes_.pop_back();
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
        if (fn_.returnType.isVoid())
          diags_.error(stmt.range.begin,
                       "void function '" + fn_.qualifiedName() +
                           "' returns a value");
      } else if (!fn_.returnType.isVoid()) {
        diags_.error(stmt.range.begin,
                     "non-void function '" + fn_.qualifiedName() +
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
      const Type *t = lookup(expr.name);
      if (!t) {
        diags_.error(expr.range.begin,
                     "use of undeclared identifier '" + expr.name + "'");
        expr.type = makeType(ScalarType::Int);
      } else {
        expr.type = *t;
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
      const frontend::FieldDecl *field = nullptr;
      if (cls)
        for (const auto &f : cls->fields)
          if (f.name == expr.name)
            field = &f;
      if (!field) {
        diags_.error(expr.range.begin, "no field '" + expr.name +
                                           "' in class '" + base.className +
                                           "'");
        expr.type = makeType(ScalarType::Int);
      } else {
        expr.type = field->type;
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
      if (const Type *t = lookup(expr.name)) {
        if (t->scalar == ScalarType::Class && !t->isPointer()) {
          expr.receiver =
              Expression::varRef(unit_.arena, expr.name, expr.range);
          expr.receiver->type = *t;
          expr.name = "operator()";
        }
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
      expr.resolvedCallee = qualified;
      expr.type = callee->returnType;
      graph_.edges[fn_.qualifiedName()].insert(qualified);
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
      expr.resolvedCallee = expr.name;
      expr.type = callee->returnType;
      graph_.edges[fn_.qualifiedName()].insert(expr.name);
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
      graph_.externCalls[fn_.qualifiedName()].insert(expr.name);
      return;
    }
    diags_.error(expr.range.begin,
                 "call to undeclared function '" + expr.name + "'");
    expr.type = makeType(ScalarType::Int);
  }

  TranslationUnit &unit_;
  FunctionDecl &fn_;
  DiagnosticEngine &diags_;
  CallGraph &graph_;
  std::vector<Scope> scopes_;
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

std::vector<std::string> CallGraph::topologicalOrder(bool &hasCycle) const {
  hasCycle = false;
  std::vector<std::string> order;
  std::map<std::string, int> state; // 0=unseen 1=visiting 2=done
  std::function<void(const std::string &)> visit =
      [&](const std::string &node) {
        int &s = state[node];
        if (s == 2)
          return;
        if (s == 1) {
          hasCycle = true;
          return;
        }
        s = 1;
        auto it = edges.find(node);
        if (it != edges.end())
          for (const std::string &callee : it->second)
            visit(callee);
        s = 2;
        order.push_back(node);
      };
  for (const auto &[caller, callees] : edges)
    visit(caller);
  return order;
}

SemaResult SemanticAnalyzer::analyze(TranslationUnit &unit) {
  SemaResult result;
  // Pre-populate call-graph nodes so leaf functions appear too.
  for (const FunctionDecl *fn : unit.allFunctions())
    result.callGraph.edges[fn->qualifiedName()];

  // Duplicate detection.
  {
    std::set<std::string> seen;
    for (const FunctionDecl *fn : unit.allFunctions()) {
      if (!seen.insert(fn->qualifiedName()).second)
        diags_.error(fn->range.begin,
                     "redefinition of function '" + fn->qualifiedName() +
                         "'");
    }
  }

  for (const auto &cls : unit.classes)
    for (const auto &method : cls->methods)
      FunctionChecker(unit, *method, diags_, result.callGraph).run();
  for (const auto &fn : unit.functions)
    FunctionChecker(unit, *fn, diags_, result.callGraph).run();

  bool hasCycle = false;
  result.callGraph.topologicalOrder(hasCycle);
  if (hasCycle)
    diags_.error({}, "recursive call cycle detected; MiniC models are "
                     "non-recursive");

  result.success = !diags_.hasErrors();
  return result;
}

} // namespace mira::sema
