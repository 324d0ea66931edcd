// MiraObject: the object-file container of the synthetic toolchain.
//
// Stands in for ELF in the paper's pipeline (DESIGN.md substitution
// table). Holds:
//   .symtab      — defined function symbols (name, offset, size, id) and
//                  undefined externals (library functions);
//   .text        — concatenated encoded machine code;
//   .debug_line  — a DWARF-style line program: a state machine over
//                  (address, line) with advance_pc / advance_line / copy
//                  opcodes, exactly the mechanism the paper describes for
//                  bridging source and binary (Sec. III-A2).
//
// The container serializes to bytes and parses back; the Input Processor
// side of Mira consumes parsed objects only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/instruction.h"
#include "support/diagnostics.h"

namespace mira::objfile {

struct FunctionSymbol {
  std::string name;     // qualified source name
  std::uint64_t offset = 0; // into .text
  std::uint64_t size = 0;
  int id = 0; // call-target id used by CALL Label operands
};

struct LineEntry {
  std::uint64_t address = 0; // absolute .text offset
  std::uint32_t line = 0;
};

class MiraObject {
public:
  std::vector<FunctionSymbol> symbols;
  std::vector<std::string> externSymbols; // undefined (library) symbols
  std::vector<std::uint8_t> text;
  std::vector<LineEntry> lineTable; // sorted by address

  /// Serialize to the on-disk/in-memory byte format.
  std::vector<std::uint8_t> serialize() const;

  /// Parse; returns nullopt (with diagnostics) on malformed input.
  static std::optional<MiraObject> parse(const std::vector<std::uint8_t> &data,
                                         DiagnosticEngine &diags);

  /// Line for an absolute .text address (nearest entry at or before it),
  /// 0 if none.
  std::uint32_t lineForAddress(std::uint64_t address) const;
};

/// Build an object from laid-out machine functions: encodes each body,
/// assigns offsets, emits the line program. Function ids are assigned in
/// order (matching codegen's functionIds map).
MiraObject buildObject(const std::vector<isa::MachineFunction> &functions,
                       const std::vector<std::string> &externs);
/// The same from functions kept elsewhere (each codegen result holds
/// its own), read in place rather than copied into one list.
MiraObject
buildObject(const std::vector<const isa::MachineFunction *> &functions,
            const std::vector<std::string> &externs);

} // namespace mira::objfile
