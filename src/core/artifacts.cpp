#include "core/artifacts.h"

#include "symbolic/interner.h"

namespace mira::core {

std::shared_ptr<ProgramHandle>
ProgramHandle::live(std::shared_ptr<const CompiledProgram> program) {
  auto handle = std::shared_ptr<ProgramHandle>(new ProgramHandle());
  handle->program_ = std::move(program);
  handle->attempted_ = true;
  return handle;
}

std::shared_ptr<ProgramHandle> ProgramHandle::deferred(std::string source,
                                                       std::string fileName,
                                                       CompileOptions options) {
  auto handle = std::shared_ptr<ProgramHandle>(new ProgramHandle());
  handle->deferred_ = true;
  handle->source_ = std::move(source);
  handle->name_ = std::move(fileName);
  handle->options_ = options;
  return handle;
}

namespace {

// Recompile = parse -> sema -> optimize -> codegen -> object ->
// disassembly -> bridge. Model generation (the expensive stage) is what
// the cache hit already paid for, so it is skipped here. The diagnostics
// are discarded: the original analysis already rendered them, and a
// source that analyzed cleanly recompiles cleanly.
std::shared_ptr<const CompiledProgram>
recompile(const std::string &source, const std::string &name,
          const CompileOptions &options) {
  DiagnosticEngine diags;
  // Recompilation gets its own expression arena, like a full analyze:
  // symbolic churn from this one compile stays out of the calling
  // thread's default interner (nodes the program keeps stay alive
  // through their shared_ptrs after the arena dies).
  symbolic::ExprInterner interner;
  symbolic::ExprInterner::Scope scope(interner);
  return compileProgram(source, name, options, diags);
}

} // namespace

std::shared_ptr<const CompiledProgram> ProgramHandle::get(bool *compiledNow) {
  if (compiledNow)
    *compiledNow = false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!attempted_) {
    attempted_ = true;
    program_ = recompile(source_, name_, options_);
    if (compiledNow)
      *compiledNow = program_ != nullptr;
  }
  return program_;
}

std::shared_ptr<const CompiledProgram>
ProgramHandle::getUnkept(bool *compiledNow) {
  if (compiledNow)
    *compiledNow = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (program_ || !deferred_)
      return program_;
  }
  // The inputs never change after construction, so no lock is needed.
  std::shared_ptr<const CompiledProgram> program =
      recompile(source_, name_, options_);
  if (compiledNow)
    *compiledNow = program != nullptr;
  return program;
}

bool ProgramHandle::materialized() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return program_ != nullptr;
}

std::optional<double> Artifacts::staticFPI(const std::string &function,
                                           const model::Env &env,
                                           std::string *error) const {
  if (!model) {
    if (error)
      *error = "no model artifact (request kArtifactModel)";
    return std::nullopt;
  }
  auto counts = model->evaluate(function, env, error);
  if (!counts)
    return std::nullopt;
  return counts->fpInstructions;
}

void putCoverageSummary(std::string &out, const sema::LoopCoverage &coverage) {
  bio::putU64(out, coverage.loops);
  bio::putU64(out, coverage.statements);
  bio::putU64(out, coverage.inLoopStatements);
}

bool readCoverageSummary(bio::Reader &r, sema::LoopCoverage &coverage) {
  std::uint64_t loops = 0, statements = 0, inLoop = 0;
  if (!r.u64(loops) || !r.u64(statements) || !r.u64(inLoop))
    return false;
  coverage.loops = static_cast<std::size_t>(loops);
  coverage.statements = static_cast<std::size_t>(statements);
  coverage.inLoopStatements = static_cast<std::size_t>(inLoop);
  return true;
}

Artifacts analyze(const AnalysisSpec &spec) {
  DiagnosticEngine diags;
  return analyze(spec, diags);
}

Artifacts analyze(const AnalysisSpec &spec, DiagnosticEngine &diags) {
  Artifacts out;
  out.name = spec.name;
  out.requested = spec.artifacts;

  // Per-compile expression arena: every symbolic node built while
  // analyzing this spec (parse -> sema -> MIR -> model) is hash-consed
  // here, so within one analysis structurally equal expressions are one
  // node and equality is pointer identity. The arena dies with the
  // request; nodes the returned artifacts reference stay alive through
  // their shared_ptrs.
  symbolic::ExprInterner interner;
  symbolic::ExprInterner::Scope scope(interner);

  std::shared_ptr<const CompiledProgram> program =
      compileProgram(spec.source, spec.name, spec.options.compile, diags);
  if (!program) {
    out.diagnostics = diags.str();
    return out;
  }

  if (spec.artifacts & kArtifactModel) {
    auto generated = std::make_shared<const model::PerformanceModel>(
        metrics::generateModel(*program->unit, program->sema.callGraph,
                               *program->bridge, spec.options.metrics, diags));
    if (diags.hasErrors()) {
      out.diagnostics = diags.str();
      return out;
    }
    out.model = std::move(generated);
  }

  out.ok = true;
  out.diagnostics = diags.str();
  out.program = ProgramHandle::live(program);
  if (spec.artifacts & kArtifactCoverage)
    out.coverage = sema::computeLoopCoverage(*program->unit);
  if (spec.artifacts & kArtifactSimulation)
    out.simulation = std::make_shared<const sim::SimResult>(
        simulate(*program, spec.simulation.function, spec.simulation.args,
                 spec.simulation.options));
  return out;
}

} // namespace mira::core
