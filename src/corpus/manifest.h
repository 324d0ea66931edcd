/// \file
/// Content-addressed corpus manifests for incremental re-analysis.
///
/// A manifest is the durable description of one workload tree: every
/// analyzable source file under a root directory, named by its
/// root-relative path and fingerprinted with the same 64-bit FNV-1a
/// content hash that seeds the analysis cache key
/// (driver::requestKey starts from fnv1a(source) and mixes in the
/// model-affecting options — see driver::requestKeyFromContentHash).
/// That shared scheme is the whole point: a manifest entry's hash plus a
/// set of pipeline options *is* the cache key, so batch drivers can
/// plan incremental and sharded work — and garbage-collect the cache —
/// without re-reading a byte of source.
///
/// Workflow (docs/MANIFESTS.md is the operator guide):
///   1. `mira-cli manifest build <dir>` walks the tree and writes a
///      schema-versioned, checksummed manifest file;
///   2. `mira-cli manifest diff OLD NEW` reports added/changed/removed
///      entries;
///   3. `mira-cli batch --manifest M [--since OLD] [--shard I/N]`
///      analyzes only what changed, deterministically partitioned
///      across shard processes that share one cache directory.
///
/// Determinism contract: entries are sorted by path, paths use '/'
/// separators regardless of host, and serialization is byte-stable —
/// two builds over identical trees produce identical *entry* bytes.
/// The recorded root directory string is serialized verbatim (batch
/// drivers resolve entries against it), so whole-file byte identity
/// additionally requires the same root argument spelling; content
/// comparison across differently-rooted builds is `manifest diff`'s
/// job, not cmp's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mira::corpus {

/// Manifest file magic: the bytes "MirC" (for Corpus), read as a
/// little-endian u32. First field of a serialized manifest.
inline constexpr std::uint32_t kManifestMagic = 0x4372694du;

/// On-disk manifest schema version. Bump when the serialized layout
/// below changes; loaders reject other versions with a clear error
/// instead of misreading bytes.
inline constexpr std::uint32_t kManifestVersion = 1;

/// One source file of a corpus: where it lives relative to the root,
/// what its bytes hash to, and how big it is.
struct ManifestEntry {
  /// Root-relative path with '/' separators on every host — the entry's
  /// identity across manifest versions (renames are remove + add).
  std::string path;
  /// FNV-1a of the file's bytes — the seed of the analysis cache key
  /// (driver::requestKeyFromContentHash mixes the options into this).
  std::uint64_t contentHash = 0;
  /// File size in bytes when the manifest was built (informational:
  /// lets planners estimate work without stat()ing the tree).
  std::uint64_t size = 0;
};

/// A built manifest: the root it was built from plus its entries,
/// sorted by path.
struct Manifest {
  /// Root directory as given to buildManifest — the default base
  /// against which batch drivers resolve entry paths (`--root`
  /// overrides it when a manifest travels to another machine).
  std::string root;
  std::vector<ManifestEntry> entries; ///< sorted by ManifestEntry::path
};

/// The FNV-1a content hash of one source, exactly as buildManifest
/// computes it for each file — and exactly the seed driver::requestKey
/// hashes options into. Exposed so tests and planners can pin the
/// "manifest hash + options == cache key" contract.
std::uint64_t contentHash(const std::string &sourceBytes);

/// Walk `rootDir` recursively and build a manifest of every regular
/// file whose extension is in `extensions` (default: ".mc"). Entries
/// come back sorted by path. Returns false — with a description in
/// `error` — when the root is not a directory or any matching file
/// cannot be read (a partially hashed tree would be a silently wrong
/// manifest).
bool buildManifest(const std::string &rootDir, Manifest &manifest,
                   std::string &error,
                   const std::vector<std::string> &extensions = {".mc"});

/// Byte-stable serialization:
/// `[magic u32][version u32][root str][count u32]` then per entry
/// `[path str][contentHash u64][size u64]`, then `[checksum u64]` — an
/// FNV-1a over every preceding byte, same scheme as the cache store.
std::string serializeManifest(const Manifest &manifest);

/// Parse serializeManifest bytes. Returns false with a description on
/// any structural problem: bad magic, unsupported version, truncation,
/// trailing garbage, unsorted or duplicate paths, checksum mismatch.
bool deserializeManifest(const std::string &bytes, Manifest &manifest,
                         std::string &error);

/// Write `manifest` to `path` (serializeManifest bytes); false with a
/// description on I/O failure.
bool writeManifestFile(const std::string &path, const Manifest &manifest,
                       std::string &error);

/// Read (mira::readFile) and validate a manifest file; false with a
/// description naming `path` when it cannot be read (missing, a
/// directory, a failed read) or fails deserializeManifest.
bool loadManifestFile(const std::string &path, Manifest &manifest,
                      std::string &error);

/// What changed between two manifests, keyed by path.
struct ManifestDiff {
  std::vector<ManifestEntry> added;   ///< in `to` only (entries from `to`)
  std::vector<ManifestEntry> changed; ///< both, different contentHash
                                      ///< (entries from `to`)
  std::vector<std::string> removed;   ///< paths in `from` only
  bool empty() const {
    return added.empty() && changed.empty() && removed.empty();
  }
};

/// Diff two manifests. Both sides' entries must be path-sorted (which
/// build and load guarantee); results are path-sorted too. A size-only
/// change with an equal hash is NOT a change — content addressing means
/// the hash is the identity (and equal hashes imply equal sizes for
/// real files).
ManifestDiff diffManifests(const Manifest &from, const Manifest &to);

} // namespace mira::corpus
