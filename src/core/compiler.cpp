#include "core/compiler.h"

#include "frontend/parser.h"

namespace mira::core {

std::unique_ptr<CompiledProgram> compileProgram(const std::string &source,
                                                const std::string &fileName,
                                                const CompileOptions &options,
                                                DiagnosticEngine &diags) {
  auto program = std::make_unique<CompiledProgram>();

  program->unit = frontend::Parser::parse(source, fileName, diags);
  if (diags.hasErrors())
    return nullptr;

  sema::SemanticAnalyzer analyzer(diags);
  program->sema = analyzer.analyze(*program->unit);
  if (!program->sema.success)
    return nullptr;

  program->mir = mir::lowerToMir(*program->unit, options.compiler, diags);
  if (diags.hasErrors())
    return nullptr;

  for (std::size_t i = 0; i < program->mir.functions.size(); ++i)
    program->functionIds[program->mir.functions[i].name] =
        static_cast<int>(i);

  program->codegen.reserve(program->mir.functions.size());
  for (const mir::MirFunction &fn : program->mir.functions)
    program->codegen.push_back(
        codegen::generateCode(fn, program->functionIds));
  std::vector<const isa::MachineFunction *> machineFunctions;
  machineFunctions.reserve(program->codegen.size());
  for (const codegen::CodegenResult &result : program->codegen)
    machineFunctions.push_back(&result.machine);

  // Serialize and re-parse so the binary side genuinely starts from bytes.
  objfile::MiraObject built =
      objfile::buildObject(machineFunctions, codegen::externFunctionTable());
  std::vector<std::uint8_t> bytes = built.serialize();
  auto parsed = objfile::MiraObject::parse(bytes, diags);
  if (!parsed) {
    diags.error({}, "internal: failed to re-parse the emitted object");
    return nullptr;
  }
  program->object = std::move(*parsed);

  auto binAst = binast::buildBinaryAst(program->object, diags);
  if (!binAst)
    return nullptr;
  program->binaryAst = std::move(*binAst);

  program->bridge = std::make_unique<bridge::ProgramBridge>(
      *program->unit, program->binaryAst);
  return program;
}

} // namespace mira::core
