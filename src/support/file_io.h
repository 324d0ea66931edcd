// Reading a whole file by path, for every input a user names: sources,
// manifests, batch inputs.
#pragma once

#include <string>

namespace mira {

/// Read the file at `path` byte for byte into `bytes`. False, leaving
/// `bytes` untouched, when it cannot be opened, names a directory, or a
/// read fails. Regular files and pipes read alike. The CLI reads its
/// sources and batch inputs through it, corpus/manifest.h its manifests
/// and the files it hashes, and driver::runManifestBatch its sources.
bool readFile(const std::string &path, std::string &bytes);

} // namespace mira
