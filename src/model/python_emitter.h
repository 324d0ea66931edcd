// Python code generation for performance models (paper Fig. 5).
//
// Produces a runnable Python module: one function per source function
// (renamed Class_name_nargs), bodies updating per-category metric
// dictionaries, calls combined through handle_function_call. Parameters
// that static analysis could not resolve stay as Python function
// arguments, to be supplied at evaluation time.
#pragma once

#include <string>

#include "model/model.h"

namespace mira::model {

/// Emit the whole model as one Python module source string. Metric keys
/// are the instruction categories of the Haswell description (the
/// paper's Table II keys).
std::string emitPython(const PerformanceModel &model);

} // namespace mira::model
