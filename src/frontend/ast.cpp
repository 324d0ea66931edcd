#include "frontend/ast.h"

#include <algorithm>

namespace mira::frontend {

std::string Type::str() const {
  std::string base;
  switch (scalar) {
  case ScalarType::Void:
    base = "void";
    break;
  case ScalarType::Bool:
    base = "bool";
    break;
  case ScalarType::Int:
    base = "int";
    break;
  case ScalarType::Long:
    base = "long";
    break;
  case ScalarType::Float:
    base = "float";
    break;
  case ScalarType::Double:
    base = "double";
    break;
  case ScalarType::Class:
    base = className;
    break;
  }
  base.append(static_cast<std::size_t>(pointerDepth), '*');
  return base;
}

const char *toString(BinaryOp op) {
  switch (op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Mod:
    return "%";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::LAnd:
    return "&&";
  case BinaryOp::LOr:
    return "||";
  }
  return "?";
}

const char *toString(UnaryOp op) {
  switch (op) {
  case UnaryOp::Neg:
    return "-";
  case UnaryOp::Not:
    return "!";
  case UnaryOp::PreInc:
  case UnaryOp::PostInc:
    return "++";
  case UnaryOp::PreDec:
  case UnaryOp::PostDec:
    return "--";
  }
  return "?";
}

const char *toString(AssignOp op) {
  switch (op) {
  case AssignOp::Assign:
    return "=";
  case AssignOp::AddAssign:
    return "+=";
  case AssignOp::SubAssign:
    return "-=";
  case AssignOp::MulAssign:
    return "*=";
  case AssignOp::DivAssign:
    return "/=";
  }
  return "?";
}

AstArena::~AstArena() {
  while (chunks_) {
    Chunk *previous = chunks_->previous;
    ::operator delete(chunks_);
    chunks_ = previous;
  }
}

void *AstArena::allocate(std::size_t bytes, std::size_t align) {
  auto aligned = [align](char *p) {
    const auto address = reinterpret_cast<std::uintptr_t>(p);
    return p + ((align - address % align) % align);
  };
  if (next_) {
    char *at = aligned(next_);
    if (at <= end_ && bytes <= static_cast<std::size_t>(end_ - at)) {
      next_ = at + bytes;
      return at;
    }
  }
  // A new chunk: its header, then room for `bytes` at any alignment a
  // node needs. A request larger than a chunk gets a block of its own,
  // linked in behind the current chunk so that chunk stays open.
  constexpr std::size_t header = alignof(std::max_align_t);
  static_assert(sizeof(Chunk) <= header);
  const std::size_t payload = std::max(kChunkBytes, bytes + align);
  auto *chunk = static_cast<Chunk *>(::operator new(header + payload));
  char *data = reinterpret_cast<char *>(chunk) + header;
  char *at = aligned(data);
  if (payload > kChunkBytes && chunks_) {
    chunk->previous = chunks_->previous;
    chunks_->previous = chunk;
    return at;
  }
  chunk->previous = chunks_;
  chunks_ = chunk;
  next_ = at + bytes;
  end_ = data + payload;
  return at;
}

ExprPtr Expression::intLiteral(AstArena &arena, std::int64_t value,
                               SourceRange range) {
  auto e = arena.make<Expression>(ExprKind::IntLiteral);
  e->intValue = value;
  e->range = range;
  return e;
}

ExprPtr Expression::floatLiteral(AstArena &arena, double value,
                                 SourceRange range) {
  auto e = arena.make<Expression>(ExprKind::FloatLiteral);
  e->floatValue = value;
  e->range = range;
  return e;
}

ExprPtr Expression::boolLiteral(AstArena &arena, bool value,
                                SourceRange range) {
  auto e = arena.make<Expression>(ExprKind::BoolLiteral);
  e->boolValue = value;
  e->range = range;
  return e;
}

ExprPtr Expression::varRef(AstArena &arena, std::string name,
                           SourceRange range) {
  auto e = arena.make<Expression>(ExprKind::VarRef);
  e->name = std::move(name);
  e->range = range;
  return e;
}

ExprPtr Expression::binary(AstArena &arena, BinaryOp op, ExprPtr lhs,
                           ExprPtr rhs, SourceRange range) {
  auto e = arena.make<Expression>(ExprKind::Binary);
  e->binaryOp = op;
  e->children = arena.list({std::move(lhs), std::move(rhs)});
  e->range = range;
  return e;
}

ExprPtr Expression::unary(AstArena &arena, UnaryOp op, ExprPtr operand,
                          SourceRange range) {
  auto e = arena.make<Expression>(ExprKind::Unary);
  e->unaryOp = op;
  e->children = arena.list({std::move(operand)});
  e->range = range;
  return e;
}

ExprPtr Expression::assign(AstArena &arena, AssignOp op, ExprPtr target,
                           ExprPtr value, SourceRange range) {
  auto e = arena.make<Expression>(ExprKind::Assign);
  e->assignOp = op;
  e->children = arena.list({std::move(target), std::move(value)});
  e->range = range;
  return e;
}

ExprPtr Expression::call(AstArena &arena, std::string callee,
                         ExprPtr receiver, std::vector<ExprPtr> &scratch,
                         std::size_t from, SourceRange range) {
  auto e = arena.make<Expression>(ExprKind::Call);
  e->name = std::move(callee);
  e->receiver = std::move(receiver);
  e->children = arena.adopt(scratch, from);
  e->range = range;
  return e;
}

ExprPtr Expression::index(AstArena &arena, ExprPtr base, ExprPtr idx,
                          SourceRange range) {
  auto e = arena.make<Expression>(ExprKind::Index);
  e->children = arena.list({std::move(base), std::move(idx)});
  e->range = range;
  return e;
}

ExprPtr Expression::member(AstArena &arena, ExprPtr base, std::string field,
                           SourceRange range) {
  auto e = arena.make<Expression>(ExprKind::Member);
  e->name = std::move(field);
  e->children = arena.list({std::move(base)});
  e->range = range;
  return e;
}

std::string Expression::str() const {
  switch (kind) {
  case ExprKind::IntLiteral:
    return std::to_string(intValue);
  case ExprKind::FloatLiteral:
    return std::to_string(floatValue);
  case ExprKind::BoolLiteral:
    return boolValue ? "true" : "false";
  case ExprKind::VarRef:
    return name;
  case ExprKind::Binary:
    return "(" + children[0]->str() + " " + toString(binaryOp) + " " +
           children[1]->str() + ")";
  case ExprKind::Unary:
    if (unaryOp == UnaryOp::PostInc || unaryOp == UnaryOp::PostDec)
      return children[0]->str() + toString(unaryOp);
    return std::string(toString(unaryOp)) + children[0]->str();
  case ExprKind::Assign:
    return children[0]->str() + " " + toString(assignOp) + " " +
           children[1]->str();
  case ExprKind::Call: {
    std::string s;
    if (receiver)
      s += receiver->str() + ".";
    s += name + "(";
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (i)
        s += ", ";
      s += children[i]->str();
    }
    return s + ")";
  }
  case ExprKind::Index:
    return children[0]->str() + "[" + children[1]->str() + "]";
  case ExprKind::Member:
    return children[0]->str() + "." + name;
  }
  return "?";
}

StmtPtr Statement::compound(AstArena &arena, std::vector<StmtPtr> &scratch,
                            std::size_t from, SourceRange range) {
  auto s = arena.make<Statement>(StmtKind::Compound);
  s->body = arena.adopt(scratch, from);
  s->range = range;
  return s;
}

StmtPtr Statement::empty(AstArena &arena, SourceRange range) {
  auto s = arena.make<Statement>(StmtKind::Empty);
  s->range = range;
  return s;
}

std::string FunctionDecl::qualifiedName() const {
  return className.empty() ? name : className + "::" + name;
}

std::string FunctionDecl::modelName() const {
  // Paper Sec. III-B5/7: the generated Python function is named from the
  // class name, original function name and argument count, e.g. A_foo_2.
  std::string base = name;
  if (base == "operator()")
    base = "operator_call";
  std::string out;
  if (!className.empty())
    out = className + "_";
  out += base + "_" + std::to_string(params.size());
  return out;
}

const FunctionDecl *
TranslationUnit::findFunction(const std::string &qualified) const {
  for (const auto &f : functions)
    if (f->qualifiedName() == qualified)
      return f.get();
  for (const auto &c : classes)
    for (const auto &m : c->methods)
      if (m->qualifiedName() == qualified)
        return m.get();
  return nullptr;
}

std::vector<const FunctionDecl *> TranslationUnit::allFunctions() const {
  std::vector<const FunctionDecl *> out;
  std::size_t count = functions.size();
  for (const auto &c : classes)
    count += c->methods.size();
  out.reserve(count);
  for (const auto &c : classes)
    for (const auto &m : c->methods)
      out.push_back(m.get());
  for (const auto &f : functions)
    out.push_back(f.get());
  return out;
}

const ClassDecl *TranslationUnit::findClass(const std::string &name) const {
  for (const auto &c : classes)
    if (c->name == name)
      return c.get();
  return nullptr;
}

} // namespace mira::frontend
