// Persistent-cache subsystem tests: the CacheStore on-disk format and
// its corruption tolerance (truncation, wrong schema version, torn
// payloads, concurrent writers all degrade to recompute, never to a
// failed batch), the PerformanceModel binary serializer round trip, and
// the BatchAnalyzer disk level — a second run over an unchanged corpus
// performs zero recomputation and is byte-identical to a cold run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "driver/batch.h"
#include "model/python_emitter.h"
#include "model/serialize.h"
#include "support/binary_io.h"
#include "support/cache_store.h"
#include "symbolic/interner.h"
#include "workloads/coverage_suite.h"
#include "workloads/workloads.h"

namespace mira {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under the system temp root, removed on scope exit.
struct TempDir {
  fs::path path;

  explicit TempDir(const std::string &tag) {
#ifndef _WIN32
    const unsigned long pid = static_cast<unsigned long>(::getpid());
#else
    const unsigned long pid = 0;
#endif
    path = fs::temp_directory_path() /
           ("mira_cache_test_" + tag + "_" + std::to_string(pid));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

/// The single cache entry file in `dir` (fails the test when there isn't
/// exactly one).
fs::path onlyEntry(const fs::path &dir) {
  std::vector<fs::path> entries;
  for (const auto &it : fs::directory_iterator(dir))
    if (it.path().extension() == ".mira")
      entries.push_back(it.path());
  EXPECT_EQ(entries.size(), 1u);
  return entries.empty() ? fs::path() : entries.front();
}

// ------------------------------------------------------------ CacheStore

TEST(CacheStoreTest, RoundTripAndMiss) {
  TempDir dir("roundtrip");
  CacheStore store(dir.str());
  ASSERT_TRUE(store.usable());
  EXPECT_FALSE(store.load(1).has_value());
  EXPECT_EQ(store.stats().misses, 1u);

  ASSERT_TRUE(store.store(1, "hello cache"));
  auto loaded = store.load(1);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "hello cache");
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.entryCount(), 1u);
  EXPECT_GT(store.totalBytes(), 11u); // payload + header

  ASSERT_TRUE(store.store(1, "replaced"));
  EXPECT_EQ(store.entryCount(), 1u);
  EXPECT_EQ(*store.load(1), "replaced");

  store.clear();
  EXPECT_EQ(store.entryCount(), 0u);
  EXPECT_FALSE(store.load(1).has_value());
}

TEST(CacheStoreTest, EmptyPayloadRoundTrips) {
  TempDir dir("empty");
  CacheStore store(dir.str());
  ASSERT_TRUE(store.store(7, ""));
  auto loaded = store.load(7);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
}

TEST(CacheStoreTest, SurvivesAcrossInstances) {
  TempDir dir("instances");
  {
    CacheStore store(dir.str());
    ASSERT_TRUE(store.store(99, "persistent"));
  }
  CacheStore reopened(dir.str());
  auto loaded = reopened.load(99);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "persistent");
}

TEST(CacheStoreTest, TruncatedEntryIsAMissAndRemoved) {
  TempDir dir("truncated");
  CacheStore store(dir.str());
  ASSERT_TRUE(store.store(5, "a payload that will be cut short"));
  fs::path file = onlyEntry(dir.path);

  fs::resize_file(file, fs::file_size(file) / 2);
  EXPECT_FALSE(store.load(5).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
  EXPECT_FALSE(fs::exists(file)) << "corrupt entry should be unlinked";

  // Truncated below the header too.
  ASSERT_TRUE(store.store(5, "again"));
  fs::resize_file(onlyEntry(dir.path), 3);
  EXPECT_FALSE(store.load(5).has_value());
}

/// Rewrite the schema version of `file`'s header (bytes [4, 8)).
void setEntryVersion(const fs::path &file, std::uint32_t version) {
  std::string bytes;
  bio::putU32(bytes, version);
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(4);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CacheStoreTest, WrongSchemaVersionIsAMissButNotDestroyed) {
  for (std::uint32_t version :
       {0u, 1u, kCacheSchemaVersion - 1, kCacheSchemaVersion + 1}) {
    SCOPED_TRACE("schema version " + std::to_string(version));
    TempDir dir("version");
    CacheStore store(dir.str());
    ASSERT_TRUE(store.store(6, "versioned payload"));
    fs::path file = onlyEntry(dir.path);
    setEntryVersion(file, version);

    // A different schema version is another binary's valid entry, not
    // corruption: miss, but leave the file alone so two versions sharing
    // a directory cannot destroy each other's caches.
    EXPECT_FALSE(store.load(6).has_value());
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().corrupt, 0u);
    EXPECT_TRUE(fs::exists(file));

    // Our own store replaces it, after which loads hit again.
    ASSERT_TRUE(store.store(6, "current version"));
    auto reloaded = store.load(6);
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(*reloaded, "current version");
  }
}

TEST(CacheStoreTest, PeekDoesNotBumpRecencyOrCounters) {
  TempDir dir("peek");
  CacheStore store(dir.str());
  ASSERT_TRUE(store.store(9, "peeked payload"));
  fs::path file = onlyEntry(dir.path);
  const auto mtimeBefore = fs::last_write_time(file);
  const CacheStoreStats before = store.stats();

  auto peeked = store.peek(9);
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(*peeked, "peeked payload");
  EXPECT_EQ(store.stats().hits, before.hits);
  EXPECT_EQ(store.stats().misses, before.misses);
  EXPECT_EQ(fs::last_write_time(file), mtimeBefore)
      << "peek must not perturb LRU recency";

  // Even a corrupt entry is left for the next real load to reap: an
  // inspection pass must not delete files or move counters.
  fs::resize_file(file, fs::file_size(file) / 2);
  EXPECT_FALSE(store.peek(9).has_value());
  EXPECT_TRUE(fs::exists(file)) << "peek must not unlink corrupt entries";
  EXPECT_EQ(store.stats().corrupt, before.corrupt);
  EXPECT_FALSE(store.load(9).has_value()); // the real load reaps it
  EXPECT_FALSE(fs::exists(file));
  EXPECT_EQ(store.stats().corrupt, before.corrupt + 1);
}

TEST(CacheStoreTest, KeysListEveryEntryWhateverItsSchema) {
  TempDir dir("keys");
  CacheStore store(dir.str());
  ASSERT_TRUE(store.store(0x11, "current"));
  ASSERT_TRUE(store.store(0x22, "current too"));
  ASSERT_TRUE(store.store(0x33, "will become v1"));
  setEntryVersion(dir.path / "0000000000000033.mira", 1);

  auto keys = store.keys();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{0x11, 0x22, 0x33}));
}

TEST(CacheStoreTest, ClearReclaimsOrphanedTempFiles) {
  TempDir dir("orphans");
  CacheStore store(dir.str());
  ASSERT_TRUE(store.store(1, "entry"));
  // A crashed writer's leftover temp alongside a foreign file.
  std::ofstream(dir.path / ".00000000000000ff.123.0.tmp") << "orphan";
  std::ofstream(dir.path / "README") << "foreign, must survive";

  store.clear();
  EXPECT_EQ(store.entryCount(), 0u);
  EXPECT_FALSE(fs::exists(dir.path / ".00000000000000ff.123.0.tmp"));
  EXPECT_TRUE(fs::exists(dir.path / "README"));
}

TEST(CacheStoreTest, FlippedPayloadByteFailsTheChecksum) {
  TempDir dir("checksum");
  CacheStore store(dir.str());
  ASSERT_TRUE(store.store(8, "checksummed payload bytes"));
  fs::path file = onlyEntry(dir.path);

  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-1, std::ios::end);
  char last = 0;
  f.seekg(-1, std::ios::end);
  f.read(&last, 1);
  f.seekp(-1, std::ios::end);
  last = static_cast<char>(last ^ 0x5a);
  f.write(&last, 1);
  f.close();

  EXPECT_FALSE(store.load(8).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST(CacheStoreTest, ForeignBytesAreAMiss) {
  TempDir dir("foreign");
  CacheStore store(dir.str());
  // A file with an entry-shaped name but arbitrary contents (e.g. a
  // partial write from a crashed process before atomic rename existed).
  std::ofstream(dir.path / "00000000000000aa.mira") << "not a cache entry";
  EXPECT_FALSE(store.load(0xaa).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST(CacheStoreTest, NonRegularEntryPathsAreMissesAndStay) {
  // A directory cannot be read and opening a FIFO for reading waits for
  // a writer: at an entry path, both are misses — never a thrown read or
  // a hang — and neither is the store's to delete.
  TempDir dir("nonregular");
  CacheStore store(dir.str());
  const fs::path directory = dir.path / "00000000000000d1.mira";
  const fs::path fifo = dir.path / "00000000000000f1.mira";
  fs::create_directory(directory);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  for (const std::uint64_t key : {0xd1ull, 0xf1ull}) {
    EXPECT_FALSE(store.peek(key).has_value()) << std::hex << key;
    EXPECT_FALSE(store.load(key).has_value()) << std::hex << key;
  }
  EXPECT_EQ(store.stats().misses, 2u);
  EXPECT_EQ(store.stats().corrupt, 0u);
  EXPECT_TRUE(fs::is_directory(directory));
  EXPECT_TRUE(fs::is_fifo(fifo));
}

TEST(CacheStoreTest, LruEvictionKeepsRecentEntries) {
  TempDir dir("lru");
  const std::string payload(512, 'x');
  // Each entry is 512 + 24 header bytes; cap at ~2.5 entries.
  CacheStore store(dir.str(), 1400);
  ASSERT_TRUE(store.store(1, payload));
  ASSERT_TRUE(store.store(2, payload));
  EXPECT_EQ(store.entryCount(), 2u);

  // mtime granularity can be coarse; make the LRU order unambiguous.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(store.load(1).has_value()); // bump entry 1's recency
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  ASSERT_TRUE(store.store(3, payload)); // must evict 2 (oldest), not 1 or 3
  EXPECT_GT(store.stats().evictions, 0u);
  EXPECT_TRUE(store.load(1).has_value());
  EXPECT_FALSE(store.load(2).has_value());
  EXPECT_TRUE(store.load(3).has_value());
}

TEST(CacheStoreTest, ConcurrentWritersNeverProduceTornReads) {
  TempDir dir("concurrent");
  CacheStore store(dir.str());
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  std::atomic<int> tornReads{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &tornReads, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Everyone hammers the same key with distinct payloads plus a
        // private key; any load must see some writer's complete payload.
        const std::string payload =
            "writer " + std::to_string(t) + " round " + std::to_string(round);
        store.store(0xc0ffee, payload);
        store.store(0x1000 + static_cast<std::uint64_t>(t), payload);
        auto shared = store.load(0xc0ffee);
        if (shared && shared->find("writer ") != 0)
          ++tornReads;
        auto own = store.load(0x1000 + static_cast<std::uint64_t>(t));
        if (own && *own != payload)
          ++tornReads;
      }
    });
  }
  for (auto &thread : threads)
    thread.join();
  EXPECT_EQ(tornReads.load(), 0);
  EXPECT_EQ(store.stats().corrupt, 0u);
  auto final = store.load(0xc0ffee);
  ASSERT_TRUE(final.has_value());
  EXPECT_EQ(final->find("writer "), 0u);
}

// ------------------------------------------------------- model serializer

model::PerformanceModel modelOrDie(const std::string &source) {
  core::AnalysisSpec spec;
  spec.name = "test.mc";
  spec.source = source;
  spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics;
  core::Artifacts artifacts = core::analyze(spec);
  EXPECT_TRUE(artifacts.ok && artifacts.model) << artifacts.diagnostics;
  return *artifacts.model;
}

/// Every embedded source: the Table I suite plus the fig-series kernels.
std::vector<std::pair<std::string, const std::string *>> embeddedSources() {
  std::vector<std::pair<std::string, const std::string *>> sources;
  for (const auto &kernel : workloads::coverageSuite())
    sources.emplace_back(kernel.name, &kernel.source);
  for (const auto &workload : workloads::figSeriesWorkloads())
    sources.emplace_back(workload.name, workload.source);
  return sources;
}

/// Every expression a model holds, in model order.
std::vector<symbolic::Expr> modelExprs(const model::PerformanceModel &m) {
  std::vector<symbolic::Expr> exprs;
  for (const model::FunctionModel &fn : m.functions) {
    for (const model::CountStep &step : fn.counts)
      exprs.push_back(step.multiplier);
    for (const model::CallStep &step : fn.calls) {
      exprs.push_back(step.multiplier);
      for (const auto &[name, expr] : step.argBindings)
        exprs.push_back(expr);
    }
  }
  return exprs;
}

TEST(ModelSerializeTest, RoundTripIsByteIdentical) {
  const auto sources = embeddedSources();
  ASSERT_EQ(sources.size(), 15u);
  std::size_t sharedPairs = 0;
  for (const auto &[name, source] : sources) {
    const model::PerformanceModel analyzed = modelOrDie(*source);
    std::string bytes;
    model::serializeModel(analyzed, bytes);

    model::PerformanceModel restored;
    std::size_t offset = 0;
    ASSERT_TRUE(model::deserializeModel(bytes, offset, restored)) << name;
    EXPECT_EQ(offset, bytes.size()) << name;
    std::string again;
    model::serializeModel(restored, again);
    EXPECT_EQ(again, bytes) << name;
    // emitPython renders every expression, count, call binding, and note,
    // so byte equality here means the models are semantically identical.
    EXPECT_EQ(model::emitPython(restored), model::emitPython(analyzed))
        << name;

    // One decoded model hash-conses its expressions: structurally equal
    // expressions are one node, wherever in the model they appear.
    const std::vector<symbolic::Expr> exprs = modelExprs(restored);
    for (std::size_t i = 0; i < exprs.size(); ++i) {
      for (std::size_t j = i + 1; j < exprs.size(); ++j) {
        if (!exprs[i].equals(exprs[j]))
          continue;
        ++sharedPairs;
        EXPECT_EQ(&exprs[i].node(), &exprs[j].node())
            << name << ": " << exprs[i].str() << " decoded twice";
      }
    }
  }
  EXPECT_GT(sharedPairs, 0u) << "no repeated expression to check sharing on";
}

TEST(ModelSerializeTest, RestoredModelEvaluates) {
  const model::PerformanceModel analyzed = modelOrDie(workloads::fig5Source());
  std::string bytes;
  model::serializeModel(analyzed, bytes);
  model::PerformanceModel restored;
  std::size_t offset = 0;
  ASSERT_TRUE(model::deserializeModel(bytes, offset, restored));

  model::Env env{{"total", 8}, {"y", 16}};
  auto fresh = analyzed.evaluate("fig5_main", env);
  auto cached = restored.evaluate("fig5_main", env);
  ASSERT_TRUE(fresh.has_value());
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->fpInstructions, fresh->fpInstructions);
  EXPECT_EQ(cached->totalInstructions, fresh->totalInstructions);
}

std::string constExpr(std::int64_t value) {
  std::string out;
  bio::putU8(out, static_cast<std::uint8_t>(symbolic::ExprKind::IntConst));
  bio::putI64(out, value);
  return out;
}

std::string paramExpr(const std::string &name) {
  std::string out;
  bio::putU8(out, static_cast<std::uint8_t>(symbolic::ExprKind::Param));
  bio::putString(out, name);
  return out;
}

/// A `kind` node over already-encoded operands.
std::string naryExpr(symbolic::ExprKind kind,
                     const std::vector<std::string> &operands) {
  std::string out;
  bio::putU8(out, static_cast<std::uint8_t>(kind));
  bio::putU32(out, static_cast<std::uint32_t>(operands.size()));
  for (const std::string &operand : operands)
    out += operand;
  return out;
}

/// `depth` one-operand Add nodes around a constant.
std::string nestedExpr(std::size_t depth) {
  std::string out;
  for (std::size_t i = 0; i < depth; ++i) {
    bio::putU8(out, static_cast<std::uint8_t>(symbolic::ExprKind::Add));
    bio::putU32(out, 1);
  }
  return out + constExpr(1);
}

std::string sumExpr(std::uint32_t arity) {
  std::string out;
  bio::putU8(out, static_cast<std::uint8_t>(symbolic::ExprKind::Sum));
  bio::putString(out, "i");
  bio::putU32(out, arity);
  for (std::uint32_t i = 0; i < arity; ++i)
    out += constExpr(i);
  return out;
}

/// One call step's argument bindings: (name, expression encoding) pairs
/// in the order they are written.
using HandBindings = std::vector<std::pair<std::string, std::string>>;

/// A one-function model encoded by hand: one count step per entry of
/// `multipliers` (each an expression's encoding), the first carrying the
/// (opcode, count) entries `opcodes`, then one call step per entry of
/// `calls`. A test can corrupt any part.
std::string handEncodedFunction(
    const std::vector<std::string> &multipliers,
    const std::vector<std::pair<std::uint32_t, std::int64_t>> &opcodes,
    const std::vector<HandBindings> &calls) {
  std::string out;
  bio::putString(out, "hand.mc");
  bio::putU32(out, 1); // functions
  bio::putString(out, "f");
  bio::putString(out, "f_1");
  bio::putU32(out, 0); // parameters
  bio::putU8(out, 1);  // exact
  bio::putU32(out, 0); // notes
  bio::putU32(out, static_cast<std::uint32_t>(multipliers.size()));
  for (std::size_t i = 0; i < multipliers.size(); ++i) {
    out += multipliers[i];
    bio::putString(out, "step");
    if (i > 0) {
      bio::putU32(out, 0);
      continue;
    }
    bio::putU32(out, static_cast<std::uint32_t>(opcodes.size()));
    for (const auto &[opcode, n] : opcodes) {
      bio::putU32(out, opcode);
      bio::putI64(out, n);
    }
  }
  bio::putU32(out, static_cast<std::uint32_t>(calls.size()));
  for (const HandBindings &bindings : calls) {
    out += constExpr(1);
    bio::putString(out, "g");
    bio::putU32(out, 1); // line
    bio::putU32(out, static_cast<std::uint32_t>(bindings.size()));
    for (const auto &[name, expr] : bindings) {
      bio::putString(out, name);
      out += expr;
    }
  }
  return out;
}

/// A one-function model with one count step, encoded by hand: `expr` is
/// the multiplier's encoding and `opcodes` the step's (opcode, count)
/// entries, so a test can corrupt either.
std::string handEncodedModel(
    const std::string &expr,
    const std::vector<std::pair<std::uint32_t, std::int64_t>> &opcodes) {
  return handEncodedFunction({expr}, opcodes, {});
}

/// A one-function model with one call step binding `bindings`.
std::string handEncodedCall(const HandBindings &bindings) {
  return handEncodedFunction({}, {}, {bindings});
}

bool decodes(const std::string &bytes) {
  model::PerformanceModel out;
  std::size_t offset = 0;
  return model::deserializeModel(bytes, offset, out) && offset == bytes.size();
}

TEST(ModelSerializeTest, RejectsTruncatedAndMutatedBuffers) {
  const model::PerformanceModel analyzed = modelOrDie(workloads::fig5Source());
  std::string bytes;
  model::serializeModel(analyzed, bytes);

  // Every truncation must fail cleanly, never crash or over-read.
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                          std::size_t(5), std::size_t(0)}) {
    model::PerformanceModel out;
    std::size_t offset = 0;
    EXPECT_FALSE(
        model::deserializeModel(bytes.substr(0, cut), offset, out))
        << "truncated to " << cut << " bytes";
  }

  const auto addsd = static_cast<std::uint32_t>(isa::Opcode::ADDSD);
  const auto mulsd = static_cast<std::uint32_t>(isa::Opcode::MULSD);
  // The well-formed neighbours of each mutation decode, so each rejection
  // below is the mutation's doing.
  EXPECT_TRUE(decodes(handEncodedModel(constExpr(7), {{addsd, 1}, {mulsd, 2}})));
  EXPECT_TRUE(decodes(handEncodedModel(sumExpr(3), {})));
  EXPECT_TRUE(decodes(handEncodedModel(nestedExpr(64), {})));

  std::string badKind;
  bio::putU8(badKind,
             static_cast<std::uint8_t>(symbolic::ExprKind::Sum) + 1);
  bio::putI64(badKind, 0);
  EXPECT_FALSE(decodes(handEncodedModel(badKind, {})))
      << "expression kind tag above Sum";
  EXPECT_FALSE(decodes(handEncodedModel(sumExpr(2), {}))) << "Sum of arity 2";
  EXPECT_FALSE(decodes(handEncodedModel(sumExpr(4), {}))) << "Sum of arity 4";
  EXPECT_FALSE(decodes(handEncodedModel(
      constExpr(7), {{static_cast<std::uint32_t>(isa::kNumOpcodes), 1}})))
      << "opcode past the ISA";
  EXPECT_FALSE(decodes(handEncodedModel(nestedExpr(10000), {})))
      << "nesting beyond the depth cap";
  EXPECT_FALSE(decodes(handEncodedModel(constExpr(7), {{addsd, 1}, {addsd, 2}})))
      << "duplicate opcode entry";
  EXPECT_FALSE(decodes(handEncodedModel(constExpr(7), {{mulsd, 1}, {addsd, 2}})))
      << "descending opcode pair";

  // Call bindings must strictly increase by name, the order a model's
  // binding map writes them: a decoder that merged or sorted them would
  // hand back a model that re-encodes to different bytes.
  EXPECT_TRUE(decodes(handEncodedCall({{"a", paramExpr("n")},
                                       {"b", constExpr(2)}})));
  EXPECT_FALSE(decodes(handEncodedCall({{"a", paramExpr("n")},
                                        {"a", constExpr(2)}})))
      << "duplicate binding name";
  EXPECT_FALSE(decodes(handEncodedCall({{"b", paramExpr("n")},
                                        {"a", constExpr(2)}})))
      << "descending binding pair";
}

TEST(ModelSerializeTest, DecodingInternsOnlyThePayloadsNodes) {
  // Each payload decodes into an arena of its own, so every node it
  // holds is one miss. A step default-constructed before its multiplier
  // is read would intern an unused 0 node there as well.
  const std::string bytes = handEncodedModel(constExpr(7), {});
  const std::uint64_t before = symbolic::ExprInterner::globalStats().misses;
  ASSERT_TRUE(decodes(bytes));
  EXPECT_EQ(symbolic::ExprInterner::globalStats().misses, before + 1);
}

/// Decodes `bytes` (which must decode whole) and checks that the result
/// re-encodes to exactly `bytes`.
model::PerformanceModel decodeAndRoundTrip(const std::string &bytes) {
  model::PerformanceModel out;
  std::size_t offset = 0;
  EXPECT_TRUE(model::deserializeModel(bytes, offset, out));
  EXPECT_EQ(offset, bytes.size());
  std::string again;
  model::serializeModel(out, again);
  EXPECT_EQ(again, bytes);
  return out;
}

/// Trip count `n * (m + k)` with a per-test constant `k`: a compound
/// root, so a repeat has a whole subtree to reuse.
std::string tripCount(std::int64_t k) {
  using symbolic::ExprKind;
  return naryExpr(ExprKind::Mul,
                  {paramExpr("n"),
                   naryExpr(ExprKind::Add, {paramExpr("m"), constExpr(k)})});
}

TEST(ModelSerializeTest, RepeatedRootsDecodeToOneNode) {
  // Every statement of a loop body carries the loop's trip count, so a
  // model repeats its roots byte for byte.
  const std::vector<std::string> roots(40, tripCount(500));
  const model::PerformanceModel decoded =
      decodeAndRoundTrip(handEncodedFunction(roots, {}, {}));
  ASSERT_EQ(decoded.functions.size(), 1u);
  const auto &counts = decoded.functions[0].counts;
  ASSERT_EQ(counts.size(), 40u);
  for (const model::CountStep &step : counts)
    EXPECT_EQ(&step.multiplier.node(), &counts[0].multiplier.node());
  EXPECT_EQ(counts[39].multiplier.str(), "(n*(m + 500))");
}

TEST(ModelSerializeTest, RootRepeatedBeyondTheWindowDecodesAgain) {
  // 20 distinct roots push the first out of the reader's 16-root window,
  // so its repeat decodes from its bytes, to the same canonical node.
  std::vector<std::string> roots;
  for (std::int64_t k = 0; k < 20; ++k)
    roots.push_back(tripCount(500 + k));
  roots.push_back(roots[0]);
  const model::PerformanceModel decoded =
      decodeAndRoundTrip(handEncodedFunction(roots, {}, {}));
  ASSERT_EQ(decoded.functions.size(), 1u);
  const auto &counts = decoded.functions[0].counts;
  ASSERT_EQ(counts.size(), 21u);
  EXPECT_EQ(&counts[20].multiplier.node(), &counts[0].multiplier.node());
  EXPECT_NE(&counts[19].multiplier.node(), &counts[0].multiplier.node());

  // The same holds for roots in call multipliers and bindings.
  const model::PerformanceModel calls = decodeAndRoundTrip(handEncodedFunction(
      {tripCount(7)}, {},
      {{{"a", tripCount(7)}, {"b", paramExpr("n")}}, {{"a", constExpr(1)}}}));
  ASSERT_EQ(calls.functions[0].calls.size(), 2u);
  EXPECT_EQ(&calls.functions[0].calls[0].argBindings.at("a").node(),
            &calls.functions[0].counts[0].multiplier.node());
}

TEST(ModelSerializeTest, RootCutShortAfterARememberedPrefixFails) {
  // The last root repeats an earlier one, but the buffer ends inside it
  // or right after it: no cut may decode. A cut inside it leaves fewer
  // bytes than the remembered range, so the reader decodes and runs out;
  // a cut right after it matches the remembered root and then fails on
  // the step's missing comment.
  const std::string root = tripCount(500);
  const std::string whole = handEncodedFunction({root, root}, {}, {});
  ASSERT_TRUE(decodes(whole));
  const std::size_t last = whole.rfind(root);
  ASSERT_NE(last, std::string::npos);
  for (std::size_t cut = last; cut <= last + root.size(); ++cut)
    EXPECT_FALSE(decodes(whole.substr(0, cut))) << "cut at " << cut;
}

// ------------------------------------------------- disk-backed batch runs

core::AnalysisSpec specFor(const std::string &name, const std::string &source) {
  core::AnalysisSpec spec;
  spec.name = name;
  spec.source = source;
  return spec;
}

std::vector<core::AnalysisSpec> suiteSpecs() {
  std::vector<core::AnalysisSpec> specs;
  for (const auto &kernel : workloads::coverageSuite())
    specs.push_back(specFor(kernel.name, kernel.source));
  return specs;
}

/// Canonical byte rendering of a batch (same scheme as driver_test.cpp).
std::string fingerprint(const std::vector<core::Artifacts> &results) {
  std::string bytes;
  for (const auto &artifacts : results) {
    bytes += artifacts.name;
    bytes += artifacts.ok ? "|ok|" : "|fail|";
    bytes += artifacts.diagnostics;
    if (artifacts.model)
      bytes += model::emitPython(*artifacts.model);
    bytes += '\n';
  }
  return bytes;
}

driver::BatchOptions diskOptions(const TempDir &dir, std::size_t threads) {
  driver::BatchOptions options;
  options.threads = threads;
  options.cacheDir = dir.str();
  return options;
}

TEST(DiskCacheBatchTest, SecondRunPerformsZeroRecomputation) {
  TempDir dir("warm");
  auto specs = suiteSpecs();

  driver::BatchAnalyzer cold(diskOptions(dir, 2));
  std::string coldPrint = fingerprint(cold.runArtifacts(specs));
  EXPECT_EQ(cold.stats().failures, 0u);
  EXPECT_EQ(cold.stats().diskHits, 0u);
  EXPECT_EQ(cold.stats().diskMisses, specs.size());
  EXPECT_EQ(cold.stats().diskStores, specs.size());

  // A brand-new analyzer (fresh process, as far as the in-memory level
  // is concerned): everything must come from disk, nothing recomputed.
  driver::BatchAnalyzer warm(diskOptions(dir, 2));
  std::string warmPrint = fingerprint(warm.runArtifacts(specs));
  EXPECT_EQ(warm.stats().cacheMisses, 0u) << "a warm run recomputed";
  EXPECT_EQ(warm.stats().cacheHits, specs.size());
  EXPECT_EQ(warm.stats().diskHits, specs.size());
  EXPECT_EQ(warm.stats().diskMisses, 0u);
  EXPECT_EQ(warm.stats().failures, 0u);
  EXPECT_EQ(warmPrint, coldPrint) << "disk round trip changed results";
}

TEST(DiskCacheBatchTest, FailedAnalysesAreCachedToo) {
  TempDir dir("failures");
  const std::vector<core::AnalysisSpec> specs = {
      specFor("bad.mc", "int broken(")};

  driver::BatchAnalyzer cold(diskOptions(dir, 1));
  auto coldResults = cold.runArtifacts(specs);
  EXPECT_FALSE(coldResults[0].ok);
  EXPECT_EQ(cold.stats().diskStores, 1u);

  driver::BatchAnalyzer warm(diskOptions(dir, 1));
  auto warmResults = warm.runArtifacts(specs);
  EXPECT_FALSE(warmResults[0].ok);
  EXPECT_TRUE(warmResults[0].cacheHit);
  EXPECT_EQ(warm.stats().diskHits, 1u);
  EXPECT_EQ(warmResults[0].diagnostics, coldResults[0].diagnostics);
}

TEST(DiskCacheBatchTest, PayloadSizesAddUpToTheStoredSections) {
  TempDir dir("sizes");
  const core::AnalysisSpec fig5 = specFor("@fig5", workloads::fig5Source());
  const core::AnalysisSpec broken = specFor("bad.mc", "int broken(");
  driver::BatchAnalyzer analyzer(diskOptions(dir, 1));
  const auto results = analyzer.runArtifacts({fig5, broken});
  ASSERT_TRUE(results[0].ok);
  ASSERT_FALSE(results[1].ok);
  CacheStore store(dir.str());
  driver::ArtifactPayloadSizes sizes;

  // A stored model: [ok][name][diagnostics][coverage flag + 3 x u64]
  // [model], with each section measured exactly.
  const auto model = store.peek(driver::requestKey(fig5));
  ASSERT_TRUE(model.has_value());
  ASSERT_TRUE(driver::measureArtifactPayload(*model, sizes));
  EXPECT_TRUE(sizes.ok);
  std::string modelBytes;
  model::serializeModel(*results[0].model, modelBytes);
  EXPECT_EQ(sizes.modelBytes, modelBytes.size());
  EXPECT_EQ(sizes.coverageBytes, 1u + 3 * 8);
  EXPECT_EQ(sizes.diagnosticsBytes, results[0].diagnostics.size());
  EXPECT_EQ(model->size(), 1 + (4 + fig5.name.size()) +
                               (4 + sizes.diagnosticsBytes) +
                               sizes.coverageBytes + sizes.modelBytes);

  // A cached failure: diagnostics only.
  const auto failure = store.peek(driver::requestKey(broken));
  ASSERT_TRUE(failure.has_value());
  ASSERT_TRUE(driver::measureArtifactPayload(*failure, sizes));
  EXPECT_FALSE(sizes.ok);
  EXPECT_GT(sizes.diagnosticsBytes, 0u);
  EXPECT_EQ(sizes.diagnosticsBytes, results[1].diagnostics.size());
  EXPECT_EQ(sizes.coverageBytes, 0u);
  EXPECT_EQ(sizes.modelBytes, 0u);
  EXPECT_EQ(failure->size(),
            1 + (4 + broken.name.size()) + (4 + sizes.diagnosticsBytes));

  // A header cut short is malformed, not an empty entry.
  EXPECT_FALSE(driver::measureArtifactPayload(model->substr(0, 3), sizes));
}

TEST(DiskCacheBatchTest, DiskHitsCarryTheModelButDeferTheProgram) {
  TempDir dir("program");
  core::AnalysisSpec spec = specFor("fig5", workloads::fig5Source());
  spec.artifacts = core::kArtifactModel | core::kArtifactProgram;

  driver::BatchAnalyzer cold(diskOptions(dir, 1));
  auto coldResults = cold.runArtifacts({spec});
  ASSERT_TRUE(coldResults[0].ok);
  EXPECT_FALSE(coldResults[0].program->isDeferred());

  driver::BatchAnalyzer warm(diskOptions(dir, 1));
  auto warmResults = warm.runArtifacts({spec});
  ASSERT_TRUE(warmResults[0].ok);
  EXPECT_TRUE(warmResults[0].cacheHit);
  // Disk hits restore the model only; the program recompiles on demand.
  EXPECT_TRUE(warmResults[0].program->isDeferred());
  EXPECT_FALSE(warmResults[0].program->materialized());
  model::Env env{{"total", 8}, {"y", 16}};
  auto cached = warmResults[0].model->evaluate("fig5_main", env);
  auto fresh = coldResults[0].model->evaluate("fig5_main", env);
  ASSERT_TRUE(cached.has_value());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(cached->fpInstructions, fresh->fpInstructions);
}

TEST(DiskCacheBatchTest, CorruptedEntriesFallBackToRecompute) {
  TempDir dir("corrupt");
  auto specs = suiteSpecs();

  driver::BatchAnalyzer cold(diskOptions(dir, 2));
  std::string reference = fingerprint(cold.runArtifacts(specs));

  // Vandalize every cached entry a different way: truncate, rewrite
  // garbage, or chop to below the header.
  int mode = 0;
  for (const auto &it : fs::directory_iterator(dir.path)) {
    if (it.path().extension() != ".mira")
      continue;
    switch (mode++ % 3) {
    case 0:
      fs::resize_file(it.path(), fs::file_size(it.path()) / 2);
      break;
    case 1:
      std::ofstream(it.path(), std::ios::trunc) << "garbage";
      break;
    case 2:
      fs::resize_file(it.path(), 2);
      break;
    }
  }

  driver::BatchAnalyzer recover(diskOptions(dir, 2));
  std::string recovered = fingerprint(recover.runArtifacts(specs));
  EXPECT_EQ(recover.stats().failures, 0u)
      << "corrupt cache entries must never fail the batch";
  EXPECT_EQ(recover.stats().diskHits, 0u);
  EXPECT_EQ(recover.stats().diskMisses, specs.size());
  EXPECT_EQ(recover.stats().diskStores, specs.size()) << "re-stored";
  EXPECT_EQ(recovered, reference);

  // And the re-stored entries are valid again.
  driver::BatchAnalyzer warm(diskOptions(dir, 2));
  warm.runArtifacts(specs);
  EXPECT_EQ(warm.stats().diskHits, specs.size());
}

// An element count is trusted only as far as the bytes behind it: a
// buffer whose counts claim more elements than it could hold must fail to
// decode, never size a reserve by the claim. Under a 1 GiB address-space
// cap, eight bytes claiming 8 Mi functions would otherwise throw
// std::bad_alloc out of deserializeModel (documented never to throw), and
// a valid-checksum cache entry carrying them would fail the request
// instead of recomputing it. The address and thread sanitizers' shadow
// mappings cannot run under RLIMIT_AS, so the test is compiled out there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MIRA_TEST_SHADOW_MAPPED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MIRA_TEST_SHADOW_MAPPED 1
#endif
#endif
#if !defined(MIRA_TEST_SHADOW_MAPPED) && !defined(_WIN32)
/// The death test's child: exit code 0 when both checks hold, a distinct
/// non-zero code for each that fails; an escaping std::bad_alloc kills it.
[[noreturn]] void decodeHostileCountsUnderAddressCap(const TempDir &dir) {
  const rlim_t cap = rlim_t(1) << 30;
  const struct rlimit limit = {cap, cap};
  if (::setrlimit(RLIMIT_AS, &limit) != 0)
    std::_Exit(2);

  const std::uint32_t claimed = 8u << 20; // 8 Mi functions
  std::string hostile;
  bio::putString(hostile, "hostile.mc");
  bio::putU32(hostile, claimed);
  hostile.append(claimed, '\0');
  model::PerformanceModel decoded;
  std::size_t offset = 0;
  if (model::deserializeModel(hostile, offset, decoded))
    std::_Exit(3);

  // The same model behind a valid-checksum @fig5 cache entry: a miss
  // that recomputes and re-stores the entry.
  const core::AnalysisSpec spec = specFor("fig5", workloads::fig5Source());
  std::string payload;
  bio::putU8(payload, 1); // ok
  bio::putString(payload, spec.name);
  bio::putString(payload, "");
  bio::putU8(payload, 1); // coverage summary
  for (int i = 0; i < 3; ++i)
    bio::putU64(payload, 1);
  payload += hostile;
  if (!CacheStore(dir.str()).store(driver::requestKey(spec), payload))
    std::_Exit(4);
  driver::BatchAnalyzer analyzer(diskOptions(dir, 1));
  const core::Artifacts artifacts = analyzer.analyzeArtifacts(spec);
  if (!artifacts.ok || !artifacts.diskMiss || !artifacts.diskStored)
    std::_Exit(5);
  std::_Exit(0);
}

TEST(DiskCacheBatchDeathTest, HostileCountsDecodeToFalseUnderAnAddressCap) {
  TempDir dir("hostile");
  EXPECT_EXIT(decodeHostileCountsUnderAddressCap(dir),
              ::testing::ExitedWithCode(0), "");
}
#endif

TEST(DiskCacheBatchTest, ConcurrentAnalyzersShareOneDirectory) {
  TempDir dir("shared");
  auto specs = suiteSpecs();

  // Two analyzers race over the same cache directory (stand-in for two
  // processes); both must succeed and agree, whoever wins each store.
  driver::BatchAnalyzer a(diskOptions(dir, 2));
  driver::BatchAnalyzer b(diskOptions(dir, 2));
  std::string printA, printB;
  std::thread threadA([&] { printA = fingerprint(a.runArtifacts(specs)); });
  std::thread threadB([&] { printB = fingerprint(b.runArtifacts(specs)); });
  threadA.join();
  threadB.join();
  EXPECT_EQ(a.stats().failures, 0u);
  EXPECT_EQ(b.stats().failures, 0u);
  EXPECT_EQ(printA, printB);

  driver::BatchAnalyzer warm(diskOptions(dir, 2));
  warm.runArtifacts(specs);
  EXPECT_EQ(warm.stats().diskHits, specs.size());
  EXPECT_EQ(warm.stats().failures, 0u);
}

TEST(DiskCacheBatchTest, UnwritableDirectoryDegradesToCompute) {
  // A cache dir that cannot be created (file in the way) must not fail
  // the batch — the disk level just disables itself.
  TempDir dir("unwritable");
  const std::string blocker = (dir.path / "blocker").string();
  std::ofstream(blocker) << "in the way";

  driver::BatchOptions options;
  options.threads = 1;
  options.cacheDir = blocker; // a file, not a directory
  driver::BatchAnalyzer analyzer(options);
  auto results =
      analyzer.runArtifacts({specFor("fig5", workloads::fig5Source())});
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(analyzer.stats().failures, 0u);
}

TEST(DiskCacheBatchTest, ByteCapEvictsButNeverBreaks) {
  TempDir dir("cap");
  driver::BatchOptions options = diskOptions(dir, 2);
  options.cacheBytesLimit = 16 * 1024; // far too small for the whole suite
  driver::BatchAnalyzer analyzer(options);
  analyzer.runArtifacts(suiteSpecs());
  EXPECT_EQ(analyzer.stats().failures, 0u);
  ASSERT_NE(analyzer.diskCache(), nullptr);
  EXPECT_LE(analyzer.diskCache()->totalBytes(), options.cacheBytesLimit);
  EXPECT_GT(analyzer.diskCache()->stats().evictions, 0u);
}

} // namespace
} // namespace mira
