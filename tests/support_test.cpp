#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/diagnostics.h"
#include "support/inline_vector.h"
#include "support/source_location.h"
#include "support/string_utils.h"
#include "support/thread_pool.h"

namespace mira {
namespace {

TEST(SourceLocation, InvalidByDefault) {
  SourceLocation loc;
  EXPECT_FALSE(loc.isValid());
  EXPECT_EQ(loc.str(), "<unknown>");
}

TEST(SourceLocation, Ordering) {
  SourceLocation a{1, 5}, b{1, 9}, c{2, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (SourceLocation{1, 5}));
  EXPECT_NE(a, b);
}

TEST(SourceRange, ContainsLine) {
  SourceRange r{{3, 1}, {7, 80}};
  EXPECT_TRUE(r.containsLine(3));
  EXPECT_TRUE(r.containsLine(5));
  EXPECT_TRUE(r.containsLine(7));
  EXPECT_FALSE(r.containsLine(2));
  EXPECT_FALSE(r.containsLine(8));
}

TEST(SourceRange, OpenEndedContainsAnythingAfterBegin) {
  SourceRange r{{3, 1}, {}};
  EXPECT_TRUE(r.containsLine(1000));
  EXPECT_FALSE(r.containsLine(2));
}

TEST(Diagnostics, CountsBySeverity) {
  DiagnosticEngine diags;
  diags.error({1, 1}, "bad thing");
  diags.warning({2, 1}, "iffy thing");
  diags.note({2, 1}, "context");
  EXPECT_TRUE(diags.hasErrors());
  EXPECT_EQ(diags.errorCount(), 1u);
  EXPECT_EQ(diags.warningCount(), 1u);
  EXPECT_EQ(diags.all().size(), 3u);
}

TEST(Diagnostics, ContainsMessage) {
  DiagnosticEngine diags;
  diags.error({1, 1}, "unexpected token '}'");
  EXPECT_TRUE(diags.containsMessage("unexpected token"));
  EXPECT_FALSE(diags.containsMessage("no such message"));
}

TEST(Diagnostics, StrFormatsLocationAndSeverity) {
  DiagnosticEngine diags;
  diags.error({4, 2}, "boom");
  EXPECT_EQ(diags.str(), "4:2: error: boom\n");
}

TEST(Diagnostics, ClearResets) {
  DiagnosticEngine diags;
  diags.error({1, 1}, "x");
  diags.clear();
  EXPECT_FALSE(diags.hasErrors());
  EXPECT_TRUE(diags.all().empty());
}

TEST(StringUtils, Split) {
  auto parts = splitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtils, StartsEndsWith) {
  EXPECT_TRUE(startsWith("mira_model", "mira"));
  EXPECT_FALSE(startsWith("mi", "mira"));
  EXPECT_TRUE(endsWith("model.py", ".py"));
  EXPECT_FALSE(endsWith("py", "model.py"));
}

TEST(StringUtils, ParseInt64) {
  std::int64_t v = 0;
  EXPECT_TRUE(parseInt64("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parseInt64("  -7 ", v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(parseInt64("12x", v));
  EXPECT_FALSE(parseInt64("", v));
  EXPECT_FALSE(parseInt64("99999999999999999999999", v));
}

TEST(StringUtils, FormatCountUsesScientificForBigValues) {
  EXPECT_EQ(formatCount(0), "0");
  EXPECT_EQ(formatCount(123), "123");
  std::string big = formatCount(2.05e10);
  EXPECT_NE(big.find("E10"), std::string::npos);
}

TEST(StringUtils, FormatPercent) {
  EXPECT_EQ(formatPercent(0.0308), "3.08%");
  EXPECT_EQ(formatPercent(0.0000123), "0.0012%");
}

TEST(StringUtils, Padding) {
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("abcdef", 4), "abcdef");
}

// -------------------------------------------------------------- inline vector

/// Like isa::Operand: default member initializers make it non-trivial,
/// but it is still trivially copyable and destructible.
struct Slot {
  std::uint8_t tag = 7;
  std::int64_t value = -1;

  bool operator==(const Slot &o) const {
    return tag == o.tag && value == o.value;
  }
};
static_assert(!std::is_trivial_v<Slot>);
static_assert(std::is_trivially_copyable_v<Slot>);

using Slots = InlineVector<Slot, 2>;

TEST(InlineVector, HoldsElementsWithDefaultMemberInitializers) {
  Slots v;
  EXPECT_TRUE(v.empty());
  v.push_back(Slot());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].tag, 7);
  EXPECT_EQ(v[0].value, -1);
}

TEST(InlineVector, InitializerListConstruction) {
  const Slots empty{};
  EXPECT_TRUE(empty.empty());
  const Slots two{{1, 10}, {2, 20}};
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], (Slot{1, 10}));
  EXPECT_EQ(two[1], (Slot{2, 20}));
  // More elements than the inline capacity start on the heap.
  const Slots three{{1, 10}, {2, 20}, {3, 30}};
  ASSERT_EQ(three.size(), 3u);
  EXPECT_EQ(three[2], (Slot{3, 30}));
}

TEST(InlineVector, Equality) {
  const Slots a{{1, 10}, {2, 20}};
  EXPECT_EQ(a, (Slots{{1, 10}, {2, 20}}));
  EXPECT_FALSE(a == (Slots{{1, 10}}));
  EXPECT_FALSE(a == (Slots{{1, 10}, {2, 21}}));
  EXPECT_FALSE(a == (Slots{{1, 10}, {2, 20}, {3, 30}}));
  EXPECT_EQ(Slots(), Slots{});
}

TEST(InlineVector, SpillThenCopyAndMoveBack) {
  Slots spilled;
  for (std::int64_t i = 0; i < 5; ++i)
    spilled.push_back({static_cast<std::uint8_t>(i), i * 100});
  ASSERT_EQ(spilled.size(), 5u);

  Slots copy(spilled);
  EXPECT_EQ(copy, spilled);
  copy[4].value = 1; // the copy owns its own heap block
  EXPECT_EQ(spilled[4].value, 400);

  Slots moved(std::move(copy));
  EXPECT_TRUE(copy.empty()); // a moved-from list is empty and inline
  ASSERT_EQ(moved.size(), 5u);
  EXPECT_EQ(moved[4].value, 1);

  // Move back into the emptied source, then copy-assign over a list that
  // is still inline, and reuse the moved-from one.
  copy = std::move(moved);
  ASSERT_EQ(copy.size(), 5u);
  EXPECT_EQ(copy[3], (Slot{3, 300}));
  Slots small{{9, 9}};
  small = spilled;
  EXPECT_EQ(small, spilled);
  moved.push_back({1, 1});
  moved.push_back({2, 2});
  moved.push_back({3, 3});
  EXPECT_EQ(moved, (Slots{{1, 1}, {2, 2}, {3, 3}}));
  spilled = Slots{{4, 4}};
  EXPECT_EQ(spilled, (Slots{{4, 4}}));
}

TEST(InlineVector, OwnsElementsThatAreNotTriviallyCopyable) {
  // Strings longer than the small-string buffer own heap blocks: a missed
  // destructor leaks (the ASan job's leak check), a shallow copy frees
  // twice.
  using Names = InlineVector<std::string, 2>;
  auto name = [](int i) { return std::string(40, 'a') + std::to_string(i); };
  Names names;
  for (int i = 0; i < 5; ++i)
    names.push_back(name(i));
  ASSERT_EQ(names.size(), 5u);
  names.emplace_back(names[0]); // an element of the list, while it grows
  names.erase(names.begin() + 1);
  names.erase(names.begin() + 2, names.begin() + 4);
  EXPECT_EQ(names, (Names{name(0), name(2), name(0)}));
  names.pop_back();
  names.emplace(names.begin() + 1, name(1));
  names.emplace(names.begin(), name(8));
  EXPECT_EQ(names, (Names{name(8), name(0), name(1), name(2)}));
  names.erase(names.begin());
  names.erase(names.begin() + 1);

  Names copy(names);
  copy[0] += "!";
  EXPECT_EQ(names[0], name(0));
  Names inlineMoved(Names{name(7)});
  EXPECT_EQ(inlineMoved, Names{name(7)});
  inlineMoved = std::move(copy);
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(inlineMoved, (Names{name(0) + "!", name(2)}));
  copy = inlineMoved;
  copy.clear();
  copy.push_back(name(9));
  EXPECT_EQ(copy.back(), name(9));
  EXPECT_EQ(names.front(), name(0));
}

// ---------------------------------------------------------------- thread pool

TEST(ThreadPool, ContainsThrowingTasks) {
  ThreadPool pool(2);
  std::atomic<int> handled{0};
  pool.setExceptionHandler([&handled] { ++handled; });
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&ran, i] {
      ++ran;
      if (i % 2 == 0)
        throw std::runtime_error("task failure");
    });
  // A throwing task must not take the worker (let alone the process via
  // std::terminate) down: waitIdle() still drains, every task still ran.
  pool.waitIdle();
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(pool.taskExceptions(), 4u);
  EXPECT_EQ(handled.load(), 4);

  // The pool stays healthy for subsequent work.
  std::atomic<bool> after{false};
  pool.submit([&after] { after = true; });
  pool.waitIdle();
  EXPECT_TRUE(after.load());
  EXPECT_EQ(pool.taskExceptions(), 4u);
}

TEST(ThreadPool, NonStdExceptionIsContainedToo) {
  ThreadPool pool(1);
  pool.submit([] { throw 42; }); // catch (...) path
  pool.waitIdle();
  EXPECT_EQ(pool.taskExceptions(), 1u);
}

TEST(ThreadPool, APoolThatNeverGetsATaskStartsNoThread) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.threadCount(), 8u);
  EXPECT_EQ(pool.startedThreads(), 0u);
  pool.waitIdle(); // nothing queued, nothing running: returns at once
  EXPECT_EQ(pool.startedThreads(), 0u);
  // ... and the destructor has no worker to join.
}

TEST(ThreadPool, ConcurrentFirstSubmitsStartExactlyThePool) {
  ThreadPool pool(3);
  std::atomic<bool> go{false};
  std::atomic<int> ran{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 8; ++t)
    submitters.emplace_back([&] {
      while (!go.load())
        std::this_thread::yield();
      for (int i = 0; i < 4; ++i)
        pool.submit([&ran] { ++ran; });
    });
  go = true;
  for (std::thread &submitter : submitters)
    submitter.join();
  pool.waitIdle();
  EXPECT_EQ(ran.load(), 32);
  EXPECT_EQ(pool.startedThreads(), 3u);
  EXPECT_EQ(pool.threadCount(), 3u);
}

/// The death test's child: MIRA_FAULT fails the second worker start.
/// Exit code 0 when every check holds, a distinct non-zero code for each
/// that fails.
[[noreturn]] void submitWhileAWorkerFailsToStart() {
  ::setenv("MIRA_FAULT", "thread-start:fail:2", 1);
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    // The second start fails after the first worker came up: submit
    // throws, and the task was never queued.
    try {
      pool.submit([&ran] { ++ran; });
      std::_Exit(2);
    } catch (const std::system_error &) {
    }
    if (pool.startedThreads() != 1)
      std::_Exit(3);
    pool.waitIdle(); // nothing stranded: returns at once
    if (ran.load() != 0)
      std::_Exit(4);
    // The next submit starts the missing worker and runs its task.
    pool.submit([&ran] { ++ran; });
    pool.waitIdle();
    if (ran.load() != 1 || pool.startedThreads() != 2)
      std::_Exit(5);
  } // the destructor joins both workers and returns
  std::_Exit(0);
}

TEST(ThreadPoolDeathTest, AWorkerThatFailsToStartStrandsNoTask) {
  // MIRA_FAULT is read once per process, so the child must be a fresh
  // process, not a fork of this one.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(submitWhileAWorkerFailsToStart(), ::testing::ExitedWithCode(0),
              "");
}

} // namespace
} // namespace mira
