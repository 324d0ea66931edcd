#include "corpus/manifest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "support/binary_io.h"
#include "support/file_io.h"
#include "support/hash.h"

namespace mira::corpus {

namespace fs = std::filesystem;

std::uint64_t contentHash(const std::string &sourceBytes) {
  return fnv1a(sourceBytes);
}

bool buildManifest(const std::string &rootDir, Manifest &manifest,
                   std::string &error,
                   const std::vector<std::string> &extensions) {
  manifest = Manifest{};
  manifest.root = rootDir;
  std::error_code ec;
  if (!fs::is_directory(rootDir, ec)) {
    error = "manifest root '" + rootDir + "' is not a directory";
    return false;
  }

  const fs::path root(rootDir);
  fs::recursive_directory_iterator it(root, ec), end;
  if (ec) {
    error = "cannot open '" + rootDir + "': " + ec.message();
    return false;
  }
  for (; it != end; it.increment(ec)) {
    if (ec) {
      error = "cannot walk '" + rootDir + "': " + ec.message();
      return false;
    }
    // A stat failure is not a skip: a silently incomplete manifest
    // would later prune live cache entries / plan a wrong batch.
    std::error_code statEc;
    const bool regular = it->is_regular_file(statEc);
    if (statEc) {
      error = "cannot stat '" + it->path().string() +
              "': " + statEc.message();
      return false;
    }
    if (!regular)
      continue;
    const std::string extension = it->path().extension().string();
    if (std::find(extensions.begin(), extensions.end(), extension) ==
        extensions.end())
      continue;

    std::string bytes;
    if (!readFile(it->path().string(), bytes)) {
      error = "cannot read '" + it->path().string() + "'";
      return false;
    }

    ManifestEntry entry;
    // generic_string: '/' separators on every host, so the same tree
    // produces the same manifest bytes everywhere.
    entry.path = it->path().lexically_relative(root).generic_string();
    entry.contentHash = contentHash(bytes);
    entry.size = bytes.size();
    manifest.entries.push_back(std::move(entry));
  }

  std::sort(manifest.entries.begin(), manifest.entries.end(),
            [](const ManifestEntry &a, const ManifestEntry &b) {
              return a.path < b.path;
            });
  return true;
}

std::string serializeManifest(const Manifest &manifest) {
  std::string out;
  bio::putU32(out, kManifestMagic);
  bio::putU32(out, kManifestVersion);
  bio::putString(out, manifest.root);
  bio::putU32(out, static_cast<std::uint32_t>(manifest.entries.size()));
  for (const ManifestEntry &entry : manifest.entries) {
    bio::putString(out, entry.path);
    bio::putU64(out, entry.contentHash);
    bio::putU64(out, entry.size);
  }
  bio::putU64(out, fnv1a(out)); // checksum over everything above
  return out;
}

bool deserializeManifest(const std::string &bytes, Manifest &manifest,
                         std::string &error) {
  manifest = Manifest{};
  bio::Reader r{bytes, 0};
  std::uint32_t magic = 0, version = 0, count = 0;
  if (!r.u32(magic) || magic != kManifestMagic) {
    error = "not a Mira manifest (bad magic)";
    return false;
  }
  if (!r.u32(version) || version != kManifestVersion) {
    error = "unsupported manifest version " + std::to_string(version) +
            " (this build reads version " + std::to_string(kManifestVersion) +
            ")";
    return false;
  }
  if (!r.str(manifest.root) || !r.u32(count)) {
    error = "truncated manifest header";
    return false;
  }
  // No reserve(count): the count is untrusted; per-entry reads fail
  // naturally when the bytes run out.
  for (std::uint32_t i = 0; i < count; ++i) {
    ManifestEntry entry;
    if (!r.str(entry.path) || !r.u64(entry.contentHash) ||
        !r.u64(entry.size)) {
      error = "truncated manifest entry " + std::to_string(i);
      return false;
    }
    if (!manifest.entries.empty() &&
        manifest.entries.back().path >= entry.path) {
      error = "manifest entries not strictly path-sorted at '" + entry.path +
              "'";
      return false;
    }
    manifest.entries.push_back(std::move(entry));
  }
  const std::size_t checksummed = r.offset;
  std::uint64_t checksum = 0;
  if (!r.u64(checksum) || r.remaining() != 0) {
    error = "truncated or oversized manifest trailer";
    return false;
  }
  if (fnv1a(bytes.data(), checksummed) != checksum) {
    error = "manifest checksum mismatch (corrupt or torn file)";
    return false;
  }
  return true;
}

bool writeManifestFile(const std::string &path, const Manifest &manifest,
                       std::string &error) {
  const std::string bytes = serializeManifest(manifest);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    error = "cannot write manifest to '" + path + "'";
    return false;
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    error = "write error on '" + path + "'";
    return false;
  }
  return true;
}

bool loadManifestFile(const std::string &path, Manifest &manifest,
                      std::string &error) {
  std::string bytes;
  if (!readFile(path, bytes)) {
    error = "cannot open manifest '" + path + "'";
    return false;
  }
  if (!deserializeManifest(bytes, manifest, error)) {
    error = "'" + path + "': " + error;
    return false;
  }
  return true;
}

ManifestDiff diffManifests(const Manifest &from, const Manifest &to) {
  ManifestDiff diff;
  // Both sides are path-sorted (build and load guarantee it), so one
  // linear merge classifies every path.
  std::size_t i = 0, j = 0;
  while (i < from.entries.size() || j < to.entries.size()) {
    if (i == from.entries.size()) {
      diff.added.push_back(to.entries[j++]);
    } else if (j == to.entries.size()) {
      diff.removed.push_back(from.entries[i++].path);
    } else if (from.entries[i].path < to.entries[j].path) {
      diff.removed.push_back(from.entries[i++].path);
    } else if (to.entries[j].path < from.entries[i].path) {
      diff.added.push_back(to.entries[j++]);
    } else {
      if (from.entries[i].contentHash != to.entries[j].contentHash)
        diff.changed.push_back(to.entries[j]);
      ++i;
      ++j;
    }
  }
  return diff;
}

} // namespace mira::corpus
