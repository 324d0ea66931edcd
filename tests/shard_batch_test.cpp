// Multi-process shard tests: fork real `mira-cli batch --shard I/N`
// processes against one shared cache directory and pin the headline
// invariants of the corpus-manifest design (docs/MANIFESTS.md):
//
//   - the merged N-shard report is byte-identical to a single-process
//     run's report;
//   - the shared cache directory ends up byte-identical to the one a
//     single process produces, with zero corrupted entries;
//   - an incremental rerun after touching 1 of K entries performs
//     exactly 1 full compute (pinned through BatchStats in the report);
//   - `cache stats` on a nonexistent directory fails loudly (clear
//     message, nonzero exit) instead of showing an empty table.
//
// MIRA_CLI_PATH is injected by CMake ($<TARGET_FILE:mira-cli>), so the
// test always drives the binary it was built with.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cli_harness.h"
#include "corpus/manifest.h"
#include "support/cache_store.h"

namespace mira {
namespace {

using namespace cli_harness;

// ------------------------------------------------------------- tests

TEST(ShardBatch, MergedShardsAreByteIdenticalToOneProcessRun) {
  constexpr int kSources = 10;
  constexpr int kShards = 3;
  TempDir dir("merge");
  const fs::path corpus = dir.path / "corpus";
  writeCorpus(corpus, kSources);

  const fs::path manifest = dir.path / "corpus.manifest";
  ASSERT_EQ(runCli({"manifest", "build", corpus.string(), "--out",
                    manifest.string()},
                   dir.path / "build.log"),
            0)
      << readFile(dir.path / "build.log");

  // Reference: one process, its own cache directory and report.
  const fs::path oneCache = dir.path / "cache_one";
  const fs::path oneReport = dir.path / "one.report";
  ASSERT_EQ(runCli({"batch", "--manifest", manifest.string(), "--cache-dir",
                    oneCache.string(), "--report", oneReport.string()},
                   dir.path / "one.log"),
            0)
      << readFile(dir.path / "one.log");

  // N concurrent shard processes over one shared cache directory.
  const fs::path sharedCache = dir.path / "cache_shared";
  std::vector<pid_t> children;
  std::vector<fs::path> shardReports;
  for (int i = 1; i <= kShards; ++i) {
    const fs::path report =
        dir.path / ("shard_" + std::to_string(i) + ".report");
    shardReports.push_back(report);
    children.push_back(spawnCli(
        {"batch", "--manifest", manifest.string(), "--shard",
         std::to_string(i) + "/" + std::to_string(kShards), "--cache-dir",
         sharedCache.string(), "--report", report.string()},
        dir.path / ("shard_" + std::to_string(i) + ".log")));
  }
  for (std::size_t i = 0; i < children.size(); ++i)
    EXPECT_EQ(waitFor(children[i]), 0)
        << readFile(dir.path / ("shard_" + std::to_string(i + 1) + ".log"));

  // Merge through the CLI (the operator workflow), then compare bytes.
  const fs::path merged = dir.path / "merged.report";
  std::vector<std::string> mergeArgs = {"manifest", "merge", "--out",
                                        merged.string()};
  for (const fs::path &report : shardReports)
    mergeArgs.push_back(report.string());
  ASSERT_EQ(runCli(mergeArgs, dir.path / "merge.log"), 0)
      << readFile(dir.path / "merge.log");
  EXPECT_EQ(readFile(merged), readFile(oneReport))
      << "merged shard report differs from the single-process report";

  // The merged report covers every source exactly once, all ok, and
  // the summed stats equal the single-process run's.
  const driver::BatchReport mergedReport = loadReport(merged);
  ASSERT_EQ(mergedReport.entries.size(),
            static_cast<std::size_t>(kSources));
  for (const auto &entry : mergedReport.entries)
    EXPECT_TRUE(entry.ok) << entry.name;
  EXPECT_EQ(mergedReport.stats.requests,
            static_cast<std::size_t>(kSources));
  EXPECT_EQ(mergedReport.stats.diskStores,
            static_cast<std::size_t>(kSources));
  EXPECT_EQ(mergedReport.stats.failures, 0u);

  // The shared cache directory is byte-identical to the one-process
  // cache: same entry files, same contents.
  std::vector<std::string> oneEntries, sharedEntries;
  for (const auto &it : fs::directory_iterator(oneCache))
    oneEntries.push_back(it.path().filename().string());
  for (const auto &it : fs::directory_iterator(sharedCache))
    sharedEntries.push_back(it.path().filename().string());
  std::sort(oneEntries.begin(), oneEntries.end());
  std::sort(sharedEntries.begin(), sharedEntries.end());
  ASSERT_EQ(oneEntries, sharedEntries);
  for (const std::string &name : oneEntries)
    EXPECT_EQ(readFile(oneCache / name), readFile(sharedCache / name))
        << "cache entry " << name << " differs";

  // Zero corrupted entries: every key loads and validates.
  CacheStore store(sharedCache.string());
  const auto keys = store.keys();
  EXPECT_EQ(keys.size(), static_cast<std::size_t>(kSources));
  for (std::uint64_t key : keys)
    EXPECT_TRUE(store.load(key).has_value());
  EXPECT_EQ(store.stats().corrupt, 0u);
  EXPECT_EQ(store.stats().misses, 0u);
}

TEST(ShardBatch, IncrementalRerunRecomputesExactlyTheTouchedEntry) {
  constexpr int kSources = 6;
  TempDir dir("incremental");
  const fs::path corpus = dir.path / "corpus";
  writeCorpus(corpus, kSources);

  const fs::path m1 = dir.path / "m1.manifest";
  ASSERT_EQ(
      runCli({"manifest", "build", corpus.string(), "--out", m1.string()},
             dir.path / "b1.log"),
      0);
  const fs::path cache = dir.path / "cache";
  ASSERT_EQ(runCli({"batch", "--manifest", m1.string(), "--cache-dir",
                    cache.string()},
                   dir.path / "cold.log"),
            0);

  // Touch one file's *content* (mtime alone must not matter — the
  // manifest is content-addressed).
  std::ofstream touch(corpus / "kernel_03.mc", std::ios::app);
  touch << "\n";
  touch.close();

  const fs::path m2 = dir.path / "m2.manifest";
  ASSERT_EQ(
      runCli({"manifest", "build", corpus.string(), "--out", m2.string()},
             dir.path / "b2.log"),
      0);

  // `manifest diff` exits 1 on differences and reports exactly one —
  // and 2 (trouble, not "differs") when a manifest is unreadable, so
  // gating on exit 1 can't pass vacuously.
  EXPECT_EQ(runCli({"manifest", "diff", m1.string(), m2.string()},
                   dir.path / "diff.log"),
            1);
  EXPECT_EQ(runCli({"manifest", "diff", m1.string(),
                    (dir.path / "no_such.manifest").string()},
                   dir.path / "diff-missing.log"),
            2);
  const std::string diffLog = readFile(dir.path / "diff.log");
  EXPECT_NE(diffLog.find("changed   kernel_03.mc"), std::string::npos)
      << diffLog;
  EXPECT_NE(diffLog.find("manifest diff: 0 added, 1 changed, 0 removed"),
            std::string::npos)
      << diffLog;

  // Incremental --since run: exactly the touched entry, one compute.
  const fs::path report = dir.path / "incr.report";
  ASSERT_EQ(runCli({"batch", "--manifest", m2.string(), "--since",
                    m1.string(), "--cache-dir", cache.string(), "--report",
                    report.string()},
                   dir.path / "incr.log"),
            0);
  const driver::BatchReport incremental = loadReport(report);
  ASSERT_EQ(incremental.entries.size(), 1u);
  EXPECT_EQ(incremental.entries[0].name, "kernel_03.mc");
  EXPECT_TRUE(incremental.entries[0].ok);
  EXPECT_EQ(incremental.stats.requests, 1u);
  EXPECT_EQ(incremental.stats.cacheMisses, 1u); // THE one full compute
  EXPECT_EQ(incremental.stats.cacheHits, 0u);
  EXPECT_EQ(incremental.stats.diskStores, 1u);

  // A full warm rerun over the new manifest confirms through the cache:
  // K-1 disk hits, exactly 1 miss already recomputed above -> 0 misses.
  const fs::path warmReport = dir.path / "warm.report";
  ASSERT_EQ(runCli({"batch", "--manifest", m2.string(), "--cache-dir",
                    cache.string(), "--report", warmReport.string()},
                   dir.path / "warm.log"),
            0);
  const driver::BatchReport warm = loadReport(warmReport);
  EXPECT_EQ(warm.stats.requests, static_cast<std::size_t>(kSources));
  EXPECT_EQ(warm.stats.cacheHits, static_cast<std::size_t>(kSources));
  EXPECT_EQ(warm.stats.cacheMisses, 0u);
}

TEST(ShardBatch, ShardSelectionIsDisjointAndExhaustive) {
  // Pure planning check against a real manifest: every entry is
  // selected by exactly one shard, for several shard counts.
  TempDir dir("partition");
  const fs::path corpus = dir.path / "corpus";
  writeCorpus(corpus, 12);
  corpus::Manifest manifest;
  std::string error;
  ASSERT_TRUE(corpus::buildManifest(corpus.string(), manifest, error));

  const core::MiraOptions options;
  for (std::size_t count : {1u, 2u, 3u, 5u, 8u}) {
    std::size_t selected = 0;
    for (const auto &entry : manifest.entries) {
      const std::uint64_t key =
          driver::requestKeyFromContentHash(entry.contentHash, options);
      std::size_t owners = 0;
      for (std::size_t index = 0; index < count; ++index)
        if (driver::keyInShard(key, {index, count}))
          ++owners;
      EXPECT_EQ(owners, 1u) << entry.path << " count " << count;
      selected += owners;
    }
    EXPECT_EQ(selected, manifest.entries.size());
  }
}

TEST(ShardBatch, ShardReexecutionIsIdempotent) {
  // The property the fleet coordinator's lease re-issue leans on
  // (docs/FLEET.md): running the same shard again — on a fresh machine
  // after a crash, or against a cache the dead attempt half-populated —
  // changes nothing observable. Three runs of shard 1/2 pin both arms:
  //   run 1: cold cache A        -> the canonical report bytes;
  //   run 2: cold fresh cache B  -> byte-identical report (a re-issued
  //          lease on a different worker reproduces the original);
  //   run 3: cache A again       -> byte-identical cache dir, zero
  //          recomputes (a duplicate execution is a no-op).
  TempDir dir("idempotent");
  const fs::path corpus = dir.path / "corpus";
  writeCorpus(corpus, 8);
  const fs::path manifest = dir.path / "corpus.manifest";
  ASSERT_EQ(runCli({"manifest", "build", corpus.string(), "--out",
                    manifest.string()},
                   dir.path / "build.log"),
            0);

  const fs::path cacheA = dir.path / "cache_a";
  const fs::path cacheB = dir.path / "cache_b";
  const fs::path r1 = dir.path / "run1.report";
  const fs::path r2 = dir.path / "run2.report";
  const fs::path r3 = dir.path / "run3.report";
  const std::vector<std::string> base = {"batch", "--manifest",
                                         manifest.string(), "--shard", "1/2"};

  auto withArgs = [&base](std::initializer_list<std::string> extra) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
  };
  ASSERT_EQ(runCli(withArgs({"--cache-dir", cacheA.string(), "--report",
                             r1.string()}),
                   dir.path / "run1.log"),
            0);
  ASSERT_EQ(runCli(withArgs({"--cache-dir", cacheB.string(), "--report",
                             r2.string()}),
                   dir.path / "run2.log"),
            0);
  EXPECT_EQ(readFile(r1), readFile(r2))
      << "re-executing a shard on a fresh cache changed the report bytes";

  // Snapshot cache A, re-run against it, and diff: same files, same
  // bytes, and the report records pure cache hits.
  std::vector<std::string> before;
  for (const auto &it : fs::directory_iterator(cacheA))
    before.push_back(it.path().filename().string());
  std::sort(before.begin(), before.end());
  std::vector<std::string> beforeBytes;
  for (const std::string &name : before)
    beforeBytes.push_back(readFile(cacheA / name));

  ASSERT_EQ(runCli(withArgs({"--cache-dir", cacheA.string(), "--report",
                             r3.string()}),
                   dir.path / "run3.log"),
            0);
  const driver::BatchReport warm = loadReport(r3);
  EXPECT_EQ(warm.stats.cacheMisses, 0u)
      << "duplicate shard execution recomputed instead of hitting cache";
  EXPECT_EQ(warm.stats.cacheHits, warm.stats.requests);

  std::vector<std::string> after;
  for (const auto &it : fs::directory_iterator(cacheA))
    after.push_back(it.path().filename().string());
  std::sort(after.begin(), after.end());
  ASSERT_EQ(after, before);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(readFile(cacheA / after[i]), beforeBytes[i])
        << "cache entry " << after[i] << " changed on re-execution";

  // The two reports' entry sets agree with the planner: every entry in
  // shard 1/2 and none from shard 2/2.
  const driver::BatchReport run1 = loadReport(r1);
  EXPECT_FALSE(run1.entries.empty());
  for (const auto &entry : run1.entries)
    EXPECT_TRUE(driver::keyInShard(entry.key, {0, 2})) << entry.name;
}

TEST(CacheCli, PruneKeepsEveryOptionConfigAndUnionsManifests) {
  TempDir dir("prune");
  const fs::path corpusA = dir.path / "corpus_a";
  const fs::path corpusB = dir.path / "corpus_b";
  writeCorpus(corpusA, 3);
  // Distinct contents for corpus B (offset the variant index).
  writeFile(corpusB / "other.mc",
            "int other(int n) {\n"
            "  int s = 7;\n"
            "  for (int i = 0; i < n; i++) {\n"
            "    s = s + 5;\n"
            "  }\n"
            "  return s;\n"
            "}\n");
  const fs::path mA = dir.path / "a.manifest";
  const fs::path mB = dir.path / "b.manifest";
  ASSERT_EQ(runCli({"manifest", "build", corpusA.string(), "--out",
                    mA.string()},
                   dir.path / "ba.log"),
            0);
  ASSERT_EQ(runCli({"manifest", "build", corpusB.string(), "--out",
                    mB.string()},
                   dir.path / "bb.log"),
            0);

  // One shared cache: corpus A under two option configurations plus
  // corpus B under the default — 3 + 3 + 1 = 7 entries.
  const fs::path cache = dir.path / "cache";
  ASSERT_EQ(runCli({"batch", "--manifest", mA.string(), "--cache-dir",
                    cache.string()},
                   dir.path / "r1.log"),
            0);
  ASSERT_EQ(runCli({"batch", "--manifest", mA.string(), "--no-optimize",
                    "--cache-dir", cache.string()},
                   dir.path / "r2.log"),
            0);
  ASSERT_EQ(runCli({"batch", "--manifest", mB.string(), "--cache-dir",
                    cache.string()},
                   dir.path / "r3.log"),
            0);
  ASSERT_EQ(CacheStore(cache.string()).entryCount(), 7u);

  // Prune keeping both manifests: nothing goes — including the
  // --no-optimize generation of corpus A (all option combos are kept).
  ASSERT_EQ(runCli({"cache", "prune", "--cache-dir", cache.string(),
                    "--manifest", mA.string(), "--manifest", mB.string()},
                   dir.path / "p1.log"),
            0);
  EXPECT_NE(readFile(dir.path / "p1.log").find("pruned 0 of 7 entries"),
            std::string::npos);
  EXPECT_EQ(CacheStore(cache.string()).entryCount(), 7u);

  // Prune keeping only corpus B: every corpus A entry (both option
  // configurations) is collected.
  ASSERT_EQ(runCli({"cache", "prune", "--cache-dir", cache.string(),
                    "--manifest", mB.string()},
                   dir.path / "p2.log"),
            0);
  EXPECT_NE(readFile(dir.path / "p2.log").find("pruned 6 of 7 entries"),
            std::string::npos);
  EXPECT_EQ(CacheStore(cache.string()).entryCount(), 1u);
}

TEST(CacheCli, StatsOnNonexistentDirectoryFailsLoudly) {
  TempDir dir("nostats");
  const fs::path missing = dir.path / "never_created";
  const fs::path log = dir.path / "stats.log";
  EXPECT_EQ(runCli({"cache", "stats", "--cache-dir", missing.string()}, log),
            1);
  const std::string output = readFile(log);
  EXPECT_NE(output.find("no cache directory"), std::string::npos) << output;
  // The inspection must not have conjured the directory into existence.
  EXPECT_FALSE(fs::exists(missing));
  // Same guard for clear and prune.
  EXPECT_EQ(runCli({"cache", "clear", "--cache-dir", missing.string()}, log),
            1);
  EXPECT_FALSE(fs::exists(missing));
}

} // namespace
} // namespace mira
