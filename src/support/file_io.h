// Whole files by path: reading every input a user names (sources,
// manifests, batch inputs), and replacing the files a long-running
// command keeps fresh (metrics dumps).
#pragma once

#include <string>

namespace mira {

/// Read the file at `path` byte for byte into `bytes`. False, leaving
/// `bytes` untouched, when it cannot be opened, names a directory, or a
/// read fails. Regular files and pipes read alike. The CLI reads its
/// sources and batch inputs through it, corpus/manifest.h its manifests
/// and the files it hashes, and driver::runManifestBatch its sources.
bool readFile(const std::string &path, std::string &bytes);

/// Replace the file at `path` with `bytes`: write `<path>.tmp`, then
/// rename it over `path`, so a reader sees the old file or the new one,
/// never a torn one. False when any step fails (the temporary cannot be
/// created or written, or `path` is a directory); a temporary this call
/// created is removed then, and `path` is left as it was. The daemon's
/// and the fleet coordinator's `--metrics-file` dumps go through it.
bool replaceFile(const std::string &path, const std::string &bytes);

} // namespace mira
