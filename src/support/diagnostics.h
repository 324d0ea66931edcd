// Diagnostic engine: collects errors/warnings/notes with source locations.
//
// Every pipeline stage reports through a DiagnosticEngine instead of
// throwing or printing. Callers decide whether to abort (hasErrors()) and
// tests assert on specific diagnostics. Malformed input must surface as
// diagnostics, never as crashes (DESIGN.md Sec. 5, failure injection).
#pragma once

#include <string>
#include <vector>

#include "support/source_location.h"

namespace mira {

enum class DiagSeverity { Note, Warning, Error };

struct Diagnostic {
  DiagSeverity severity = DiagSeverity::Error;
  SourceLocation location;
  std::string message;

  std::string str() const;
};

const char *toString(DiagSeverity severity);

/// Accumulates diagnostics for one compilation/analysis.
class DiagnosticEngine {
public:
  void report(DiagSeverity severity, SourceLocation loc, std::string message);

  void error(SourceLocation loc, std::string message) {
    report(DiagSeverity::Error, loc, std::move(message));
  }
  void warning(SourceLocation loc, std::string message) {
    report(DiagSeverity::Warning, loc, std::move(message));
  }
  void note(SourceLocation loc, std::string message) {
    report(DiagSeverity::Note, loc, std::move(message));
  }

  bool hasErrors() const { return error_count_ > 0; }
  std::size_t errorCount() const { return error_count_; }
  std::size_t warningCount() const { return warning_count_; }
  const std::vector<Diagnostic> &all() const { return diagnostics_; }

  /// True if any diagnostic message contains `substring` (test helper).
  bool containsMessage(const std::string &substring) const;

  /// Concatenated human-readable dump of all diagnostics.
  std::string str() const;

  void clear();

private:
  std::vector<Diagnostic> diagnostics_;
  std::size_t error_count_ = 0;
  std::size_t warning_count_ = 0;
};

} // namespace mira
