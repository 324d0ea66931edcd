// Corpus-manifest tests: tree walking, byte-stable serialization,
// diffing, the "manifest hash + options == cache key" contract that
// makes incremental/sharded batches and cache pruning possible without
// reading source bytes, seeded property tests over the shard partition
// (every key lands in exactly one shard, assignment is a pure function
// of (key, count)) and the report merge (N shard reports fold into the
// single-process report byte-identically), and how the manifest executor
// reads its sources.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "corpus/manifest.h"
#include "driver/batch.h"
#include "support/file_io.h"
#include "support/hash.h"

namespace mira::corpus {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string &tag) {
    path = fs::temp_directory_path() /
           ("mira_corpus_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

void writeFile(const fs::path &path, const std::string &bytes) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ----------------------------------------------------------- building

TEST(ManifestBuild, WalksTreeSortedWithHashesAndSizes) {
  TempDir dir("build");
  writeFile(dir.path / "b.mc", "int b() { return 2; }");
  writeFile(dir.path / "a.mc", "int a() { return 1; }");
  writeFile(dir.path / "sub" / "deep" / "c.mc", "int c() { return 3; }");
  writeFile(dir.path / "ignored.txt", "not a source");

  Manifest manifest;
  std::string error;
  ASSERT_TRUE(buildManifest(dir.path.string(), manifest, error)) << error;
  ASSERT_EQ(manifest.entries.size(), 3u);
  EXPECT_EQ(manifest.root, dir.path.string());
  EXPECT_EQ(manifest.entries[0].path, "a.mc");
  EXPECT_EQ(manifest.entries[1].path, "b.mc");
  EXPECT_EQ(manifest.entries[2].path, "sub/deep/c.mc");
  EXPECT_EQ(manifest.entries[0].contentHash, fnv1a("int a() { return 1; }"));
  EXPECT_EQ(manifest.entries[0].size, 21u);
}

TEST(ManifestBuild, CustomExtensionsAndMissingRoot) {
  TempDir dir("ext");
  writeFile(dir.path / "a.minic", "int a() { return 1; }");
  writeFile(dir.path / "b.mc", "int b() { return 2; }");

  Manifest manifest;
  std::string error;
  ASSERT_TRUE(
      buildManifest(dir.path.string(), manifest, error, {".minic"}));
  ASSERT_EQ(manifest.entries.size(), 1u);
  EXPECT_EQ(manifest.entries[0].path, "a.minic");

  EXPECT_FALSE(buildManifest((dir.path / "nope").string(), manifest, error));
  EXPECT_NE(error.find("not a directory"), std::string::npos);
}

TEST(ManifestBuild, IdenticalTreesSerializeIdentically) {
  TempDir one("stable1"), two("stable2");
  for (const TempDir *dir : {&one, &two}) {
    writeFile(dir->path / "x.mc", "int x() { return 0; }");
    writeFile(dir->path / "y.mc", "int y() { return 1; }");
  }
  Manifest a, b;
  std::string error;
  ASSERT_TRUE(buildManifest(one.path.string(), a, error));
  ASSERT_TRUE(buildManifest(two.path.string(), b, error));
  // Roots differ, so full serializations differ — but the entry blocks
  // are identical: serialize with the roots normalized.
  a.root = b.root = "corpus";
  EXPECT_EQ(serializeManifest(a), serializeManifest(b));
}

// ------------------------------------------------------ serialization

Manifest sampleManifest() {
  Manifest manifest;
  manifest.root = "some/root";
  manifest.entries = {{"a.mc", 0x1111u, 10}, {"b/b.mc", 0x2222u, 20},
                      {"c.mc", 0x3333u, 0}};
  return manifest;
}

TEST(ManifestSerde, RoundTripsThroughBytesAndFiles) {
  const Manifest manifest = sampleManifest();
  const std::string bytes = serializeManifest(manifest);

  Manifest decoded;
  std::string error;
  ASSERT_TRUE(deserializeManifest(bytes, decoded, error)) << error;
  EXPECT_EQ(decoded.root, manifest.root);
  ASSERT_EQ(decoded.entries.size(), manifest.entries.size());
  for (std::size_t i = 0; i < decoded.entries.size(); ++i) {
    EXPECT_EQ(decoded.entries[i].path, manifest.entries[i].path);
    EXPECT_EQ(decoded.entries[i].contentHash, manifest.entries[i].contentHash);
    EXPECT_EQ(decoded.entries[i].size, manifest.entries[i].size);
  }

  TempDir dir("serde");
  const std::string file = (dir.path / "m.manifest").string();
  ASSERT_TRUE(writeManifestFile(file, manifest, error)) << error;
  Manifest loaded;
  ASSERT_TRUE(loadManifestFile(file, loaded, error)) << error;
  EXPECT_EQ(serializeManifest(loaded), bytes);
}

TEST(ManifestSerde, RejectsCorruption) {
  const std::string good = serializeManifest(sampleManifest());
  Manifest decoded;
  std::string error;

  std::string badMagic = good;
  badMagic[0] = 'X';
  EXPECT_FALSE(deserializeManifest(badMagic, decoded, error));
  EXPECT_NE(error.find("magic"), std::string::npos);

  std::string badVersion = good;
  badVersion[4] = 99;
  EXPECT_FALSE(deserializeManifest(badVersion, decoded, error));
  EXPECT_NE(error.find("version"), std::string::npos);

  // Flipping any payload byte must trip the checksum (or an earlier
  // structural check) — never round-trip silently.
  std::string flipped = good;
  flipped[good.size() / 2] ^= 0x40;
  EXPECT_FALSE(deserializeManifest(flipped, decoded, error));

  EXPECT_FALSE(
      deserializeManifest(good.substr(0, good.size() - 3), decoded, error));
  EXPECT_FALSE(deserializeManifest(good + "x", decoded, error));

  Manifest unsorted = sampleManifest();
  std::swap(unsorted.entries[0], unsorted.entries[2]);
  EXPECT_FALSE(
      deserializeManifest(serializeManifest(unsorted), decoded, error));
  EXPECT_NE(error.find("sorted"), std::string::npos);
}

// ------------------------------------------------------------ diffing

TEST(ManifestDiffTest, ClassifiesAddedChangedRemoved) {
  Manifest from, to;
  from.entries = {{"dropped.mc", 1, 1}, {"same.mc", 2, 2},
                  {"touched.mc", 3, 3}};
  to.entries = {{"new.mc", 9, 9}, {"same.mc", 2, 2}, {"touched.mc", 30, 3}};

  const ManifestDiff diff = diffManifests(from, to);
  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.added[0].path, "new.mc");
  ASSERT_EQ(diff.changed.size(), 1u);
  EXPECT_EQ(diff.changed[0].path, "touched.mc");
  EXPECT_EQ(diff.changed[0].contentHash, 30u); // new-side entry
  ASSERT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.removed[0], "dropped.mc");
  EXPECT_FALSE(diff.empty());

  EXPECT_TRUE(diffManifests(to, to).empty());
  EXPECT_TRUE(diffManifests(Manifest{}, Manifest{}).empty());
}

// ------------------------------------------- the cache-key contract

TEST(ManifestKeys, ContentHashPlusOptionsIsTheCacheKey) {
  // The property the whole incremental/shard/prune design rests on:
  // for any source and options, the manifest's stored hash continued
  // with the options reproduces driver::requestKey exactly.
  std::mt19937_64 rng(20260727u);
  for (int i = 0; i < 200; ++i) {
    std::string source;
    const std::size_t length = rng() % 400;
    for (std::size_t j = 0; j < length; ++j)
      source.push_back(static_cast<char>(rng() & 0xff));

    core::AnalysisSpec spec;
    spec.source = source;
    spec.options.compile.compiler.optimize = (rng() & 1) != 0;
    spec.options.compile.compiler.vectorize = (rng() & 1) != 0;
    spec.options.metrics.assumeBranchesTaken = (rng() & 1) != 0;

    EXPECT_EQ(driver::requestKey(spec),
              driver::requestKeyFromContentHash(contentHash(source),
                                                spec.options));
  }
}

// ------------------------------------------------- shard properties

TEST(ShardPlanning, ParsesOneBasedSpecs) {
  driver::ShardSpec shard;
  ASSERT_TRUE(driver::parseShardSpec("1/1", shard));
  EXPECT_EQ(shard.index, 0u);
  EXPECT_EQ(shard.count, 1u);
  ASSERT_TRUE(driver::parseShardSpec("3/8", shard));
  EXPECT_EQ(shard.index, 2u);
  EXPECT_EQ(shard.count, 8u);

  for (const char *bad : {"", "/", "1/", "/4", "0/4", "5/4", "a/4", "1/b",
                          "1.5/4", "-1/4", "1",
                          // strtoull saturation must be rejected, not
                          // accepted as a shard that matches nothing
                          "1/99999999999999999999999",
                          "99999999999999999999999/4"})
    EXPECT_FALSE(driver::parseShardSpec(bad, shard)) << bad;
}

TEST(ShardPlanning, EveryKeyLandsInExactlyOneShard) {
  std::mt19937_64 rng(4242u);
  for (int round = 0; round < 50; ++round) {
    const std::size_t count = 1 + rng() % 9;
    for (int k = 0; k < 40; ++k) {
      const std::uint64_t key = rng();
      std::size_t owners = 0;
      for (std::size_t index = 0; index < count; ++index)
        if (driver::keyInShard(key, {index, count}))
          ++owners;
      ASSERT_EQ(owners, 1u) << "key " << key << " count " << count;
    }
  }
}

TEST(ShardPlanning, AssignmentIsAPureFunctionOfKeyAndCount) {
  std::mt19937_64 rng(777u);
  for (int k = 0; k < 100; ++k) {
    const std::uint64_t key = rng();
    const std::size_t count = 1 + rng() % 7;
    for (std::size_t index = 0; index < count; ++index)
      EXPECT_EQ(driver::keyInShard(key, {index, count}),
                driver::keyInShard(key, {index, count}));
  }
}

// ------------------------------------------------------ report merge

driver::BatchReportEntry entry(const std::string &name, std::uint64_t key,
                               bool ok) {
  driver::BatchReportEntry e;
  e.name = name;
  e.key = key;
  e.ok = ok;
  return e;
}

TEST(BatchReport, RoundTripsAndRejectsCorruption) {
  driver::BatchReport report;
  report.entries = {entry("a.mc", 0xAAAA, true), entry("b.mc", 0xBBBB, false)};
  report.stats.requests = 2;
  report.stats.failures = 1;
  report.stats.diskStores = 2;
  report.stats.wallSeconds = 123.0; // must NOT survive serialization

  const std::string bytes = driver::serializeBatchReport(report);
  driver::BatchReport decoded;
  std::string error;
  ASSERT_TRUE(driver::deserializeBatchReport(bytes, decoded, error)) << error;
  ASSERT_EQ(decoded.entries.size(), 2u);
  EXPECT_EQ(decoded.entries[1].name, "b.mc");
  EXPECT_FALSE(decoded.entries[1].ok);
  EXPECT_EQ(decoded.stats.requests, 2u);
  EXPECT_EQ(decoded.stats.failures, 1u);
  EXPECT_EQ(decoded.stats.diskStores, 2u);
  EXPECT_EQ(decoded.stats.wallSeconds, 0.0);

  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 1;
  EXPECT_FALSE(driver::deserializeBatchReport(flipped, decoded, error));
  EXPECT_FALSE(driver::deserializeBatchReport(
      bytes.substr(0, bytes.size() - 1), decoded, error));
  EXPECT_FALSE(driver::deserializeBatchReport(bytes + "z", decoded, error));
}

TEST(BatchReport, ShardMergeEqualsWholeRunByteForByte) {
  // Simulate the multi-process invariant in-process: split a "whole
  // run" report into per-shard reports by key, merge them back, and
  // require identical bytes. Randomized shapes, fixed seed.
  std::mt19937_64 rng(99u);
  for (int round = 0; round < 30; ++round) {
    const std::size_t count = 1 + rng() % 5;
    driver::BatchReport whole;
    const std::size_t n = rng() % 24;
    for (std::size_t i = 0; i < n; ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "src_%03zu.mc", i);
      whole.entries.push_back(entry(name, rng(), (rng() & 7) != 0));
    }
    whole.stats.requests = n;

    std::vector<driver::BatchReport> shards(count);
    for (const auto &e : whole.entries) {
      for (std::size_t index = 0; index < count; ++index)
        if (driver::keyInShard(e.key, {index, count})) {
          shards[index].entries.push_back(e);
          shards[index].stats.requests += 1;
          break;
        }
    }
    const driver::BatchReport merged = driver::mergeBatchReports(shards);
    EXPECT_EQ(driver::serializeBatchReport(merged),
              driver::serializeBatchReport(whole));
  }
}

TEST(BatchReport, MergeStatsSumCountersAndMaxWallClock) {
  driver::BatchStats a, b;
  a.requests = 3;
  a.diskStores = 2;
  a.wallSeconds = 1.5;
  b.requests = 4;
  b.diskStores = 1;
  b.wallSeconds = 2.5;
  const driver::BatchStats merged = driver::mergeBatchStats({a, b});
  EXPECT_EQ(merged.requests, 7u);
  EXPECT_EQ(merged.diskStores, 3u);
  EXPECT_EQ(merged.wallSeconds, 2.5);
}

TEST(BatchReport, EmptyShardsAreMergeIdentity) {
  // A shard can legitimately select zero entries (--since with nothing
  // changed, or an unlucky key split): merging it in must change
  // nothing, including the serialized bytes.
  driver::BatchReport work;
  work.entries = {entry("a.mc", 0x1, true), entry("b.mc", 0x2, false)};
  work.stats.requests = 2;
  work.stats.failures = 1;
  const driver::BatchReport empty;

  const std::string alone =
      driver::serializeBatchReport(driver::mergeBatchReports({work}));
  EXPECT_EQ(driver::serializeBatchReport(
                driver::mergeBatchReports({empty, work, empty})),
            alone);
  // All-empty input merges to the empty report, which round-trips.
  const driver::BatchReport nothing =
      driver::mergeBatchReports({empty, empty});
  EXPECT_TRUE(nothing.entries.empty());
  EXPECT_EQ(nothing.stats.requests, 0u);
  driver::BatchReport decoded;
  std::string error;
  ASSERT_TRUE(driver::deserializeBatchReport(
      driver::serializeBatchReport(nothing), decoded, error))
      << error;
  EXPECT_TRUE(decoded.entries.empty());
}

TEST(BatchReport, DuplicateKeysAcrossShardsMergeDeterministically) {
  // Overlapping shard runs (operator error: the same shard executed
  // twice) must not silently drop or dedup entries — the merged report
  // shows the duplicate work, in an input-order-independent order.
  driver::BatchReport first, second;
  first.entries = {entry("dup.mc", 0xD, true), entry("x.mc", 0x1, true)};
  first.stats.requests = 2;
  second.entries = {entry("dup.mc", 0xD, true), entry("y.mc", 0x2, true)};
  second.stats.requests = 2;

  const driver::BatchReport merged =
      driver::mergeBatchReports({first, second});
  ASSERT_EQ(merged.entries.size(), 4u);
  EXPECT_EQ(merged.entries[0].name, "dup.mc");
  EXPECT_EQ(merged.entries[1].name, "dup.mc");
  EXPECT_EQ(merged.stats.requests, 4u);
  EXPECT_EQ(driver::serializeBatchReport(merged),
            driver::serializeBatchReport(
                driver::mergeBatchReports({second, first})));

  // Same name under different keys (same path, two option configs)
  // orders by key — the serialize-stable tiebreak.
  driver::BatchReport opts;
  opts.entries = {entry("dup.mc", 0xF, true)};
  const driver::BatchReport withOpts =
      driver::mergeBatchReports({opts, merged});
  ASSERT_EQ(withOpts.entries.size(), 5u);
  EXPECT_EQ(withOpts.entries[2].key, 0xFu);
}

TEST(BatchReport, MergeIsCommutativeAndAssociativeProperty) {
  // Seeded property: for random shard splits, any merge order and any
  // merge tree produce the same serialized report. This is what lets
  // CI merge shard reports in whatever order the jobs finish.
  std::mt19937_64 rng(0x4d657267ull); // "Merg"
  for (int round = 0; round < 40; ++round) {
    const std::size_t parts = 2 + rng() % 4;
    std::vector<driver::BatchReport> shards(parts);
    for (std::size_t p = 0; p < parts; ++p) {
      const std::size_t n = rng() % 8;
      for (std::size_t i = 0; i < n; ++i) {
        char name[32];
        std::snprintf(name, sizeof(name), "s%zu_%02zu.mc", p, i);
        shards[p].entries.push_back(entry(name, rng(), (rng() & 3) != 0));
      }
      shards[p].stats.requests = n;
      shards[p].stats.failures = rng() % (n + 1);
      shards[p].stats.wallSeconds = static_cast<double>(rng() % 100) / 10.0;
    }

    const std::string flat =
        driver::serializeBatchReport(driver::mergeBatchReports(shards));

    // Commutativity: a random permutation merges to the same bytes.
    std::vector<driver::BatchReport> shuffled = shards;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    EXPECT_EQ(driver::serializeBatchReport(
                  driver::mergeBatchReports(shuffled)),
              flat);

    // Associativity: fold pairwise left-to-right instead of all at
    // once. wallSeconds folds through max, so nesting cannot skew it.
    driver::BatchReport folded = shards[0];
    for (std::size_t p = 1; p < parts; ++p)
      folded = driver::mergeBatchReports({folded, shards[p]});
    EXPECT_EQ(driver::serializeBatchReport(folded), flat);
    EXPECT_EQ(folded.stats.wallSeconds,
              driver::mergeBatchReports(shards).stats.wallSeconds);
  }
}

// ------------------------------------------------- manifest execution

TEST(ManifestExecution, ReadFileTakesBytesAsIsAndRefusesDirectories) {
  TempDir dir("readfile");
  const std::string raw("line\r\n\0tail", 11);
  writeFile(dir.path / "raw.bin", raw);
  std::string bytes;
  ASSERT_TRUE(mira::readFile((dir.path / "raw.bin").string(), bytes));
  EXPECT_EQ(bytes, raw);

  // A pipe reads to its writer's end, like a regular file.
  const fs::path fifo = dir.path / "pipe";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer([&] { writeFile(fifo, "int f();\n"); });
  const bool readPipe = mira::readFile(fifo.string(), bytes);
  writer.join();
  ASSERT_TRUE(readPipe);
  EXPECT_EQ(bytes, "int f();\n");

  // A directory opens but cannot be read; it is no empty file.
  bytes = "kept";
  EXPECT_FALSE(mira::readFile(dir.path.string(), bytes));
  EXPECT_FALSE(mira::readFile((dir.path / "missing.mc").string(), bytes));
  EXPECT_EQ(bytes, "kept");
}

TEST(FileIo, ReplaceFileSwapsWholeFilesAndLeavesNoTemporary) {
  TempDir dir("replacefile");
  const std::string path = (dir.path / "metrics.txt").string();
  std::string bytes;
  ASSERT_TRUE(mira::replaceFile(path, "first\n"));
  ASSERT_TRUE(mira::replaceFile(path, "second\n"));
  ASSERT_TRUE(mira::readFile(path, bytes));
  EXPECT_EQ(bytes, "second\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // A directory at the path cannot be replaced: false, the directory
  // stays, and the temporary written beside it is gone again.
  const fs::path taken = dir.path / "taken";
  fs::create_directory(taken);
  EXPECT_FALSE(mira::replaceFile(taken.string(), "x"));
  EXPECT_TRUE(fs::is_directory(taken));
  EXPECT_FALSE(fs::exists(taken.string() + ".tmp"));

  // No parent directory: nothing to create, nothing left.
  EXPECT_FALSE(
      mira::replaceFile((dir.path / "missing" / "m.txt").string(), "x"));
  EXPECT_FALSE(fs::exists(dir.path / "missing"));

  // A temporary path this call did not create is not removed.
  fs::create_directory(path + ".tmp");
  EXPECT_FALSE(mira::replaceFile(path, "third\n"));
  EXPECT_TRUE(fs::is_directory(path + ".tmp"));
  ASSERT_TRUE(mira::readFile(path, bytes));
  EXPECT_EQ(bytes, "second\n");
}

TEST(ManifestExecution, EntryReplacedByADirectoryIsUnreadable) {
  // A manifest promises its sources: an entry that became a directory
  // after the build fails the whole run, instead of analyzing as an
  // empty program under the old key.
  TempDir dir("replaced");
  writeFile(dir.path / "a.mc", "int f() { return 1; }\n");
  writeFile(dir.path / "b.mc", "int g() { return 2; }\n");
  driver::ManifestJob job;
  std::string error;
  ASSERT_TRUE(buildManifest(dir.path.string(), job.manifest, error)) << error;
  fs::remove(dir.path / "a.mc");
  fs::create_directory(dir.path / "a.mc");

  driver::BatchOptions options;
  options.threads = 1;
  options.useCache = false;
  driver::BatchAnalyzer analyzer(options);
  const driver::ManifestOutcome outcome =
      driver::runManifestBatch(analyzer, job);
  EXPECT_EQ(outcome.status, driver::ManifestOutcome::Status::unreadable);
  EXPECT_EQ(outcome.error,
            "cannot read source '" + (dir.path / "a.mc").string() + "'");
  EXPECT_TRUE(outcome.results.empty());
  EXPECT_TRUE(outcome.report.entries.empty());
}

} // namespace
} // namespace mira::corpus
