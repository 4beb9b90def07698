#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <string>
#include <thread>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace upsim::util {
namespace {

// ---------------------------------------------------------------------------
// strings

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a.b.c", '.'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a..c", '.'), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", '.'), (std::vector<std::string>{""}));
  EXPECT_EQ(split(".", '.'), (std::vector<std::string>{"", ""}));
}

TEST(Strings, JoinInvertsSplit) {
  const std::vector<std::string> parts{"models", "usi", "t1"};
  EXPECT_EQ(join(parts, "."), "models.usi.t1");
  EXPECT_EQ(split(join(parts, "."), '.'), parts);
  EXPECT_EQ(join({}, "."), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\na b\r "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("models.usi", "models"));
  EXPECT_FALSE(starts_with("mod", "models"));
  EXPECT_TRUE(ends_with("file.xml", ".xml"));
  EXPECT_FALSE(ends_with("xml", ".xml"));
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("MtBf-42"), "mtbf-42"); }

struct IdentifierCase {
  const char* label;
  const char* input;
  bool valid;
};

void PrintTo(const IdentifierCase& c, std::ostream* os) {
  *os << c.label << ' ' << ::testing::PrintToString(std::string(c.input))
      << (c.valid ? " valid" : " invalid");
}

class IdentifierTest : public ::testing::TestWithParam<IdentifierCase> {};

TEST_P(IdentifierTest, Classification) {
  EXPECT_EQ(is_identifier(GetParam().input), GetParam().valid)
      << GetParam().input;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, IdentifierTest,
    ::testing::Values(IdentifierCase{"t1", "t1", true},
                      IdentifierCase{"printS", "printS", true},
                      IdentifierCase{"underscore_lead", "_x", true},
                      IdentifierCase{"send_documents", "send_documents", true},
                      IdentifierCase{"dot_and_dash", "a.b-c", true},
                      IdentifierCase{"empty", "", false},
                      IdentifierCase{"digit_lead", "1abc", false},
                      IdentifierCase{"space", "has space", false},
                      IdentifierCase{"semicolon", "semi;colon", false},
                      IdentifierCase{"dash_lead", "-lead", false}),
    [](const ::testing::TestParamInfo<IdentifierCase>& info) {
      return info.param.label;
    });

TEST(Strings, FormatSig) {
  EXPECT_EQ(format_sig(0.991694, 3), "0.992");
  EXPECT_EQ(format_sig(183498.0, 6), "183498");
}

// ---------------------------------------------------------------------------
// error

TEST(Error, ParseErrorCarriesPosition) {
  try {
    throw ParseError("bad token", 3, 14);
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("column 14"), std::string::npos);
  }
}

TEST(Error, AssertThrowsInvariantError) {
  EXPECT_THROW({ UPSIM_ASSERT(1 + 1 == 3); }, InvariantError);
  EXPECT_NO_THROW({ UPSIM_ASSERT(1 + 1 == 2); });
}

// ---------------------------------------------------------------------------
// table

TEST(Table, RendersAlignedColumns) {
  TextTable table({"AS", "RQ", "PR"});
  table.add_row({"request_printing", "t1", "printS"});
  table.add_row({"login_to_printer", "p2", "printS"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| AS "), std::string::npos);
  EXPECT_NE(out.find("| request_printing | t1 | printS |"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ModelError);
  EXPECT_THROW(TextTable({}), ModelError);
}

// ---------------------------------------------------------------------------
// rng

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng parent(7);
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1.uniform_int(0, 1000000) == child2.uniform_int(0, 1000000)) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BernoulliMatchesProbabilityRoughly) {
  Rng rng(123);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

// ---------------------------------------------------------------------------
// thread pool

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([](int x) { return x + 1; }, 41);
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), 42);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 57) throw ModelError("boom");
                                 }),
               ModelError);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(Stopwatch, MeasuresNonNegativeTime) {
  Stopwatch w;
  EXPECT_GE(w.seconds(), 0.0);
  w.reset();
  EXPECT_GE(w.millis(), 0.0);
}

TEST(Stopwatch, LapReturnsElapsedAndRestarts) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double first = w.lap();
  EXPECT_GE(first, 0.015);  // slept at least ~20ms (scheduler slack allowed)
  // lap() restarted the window: the immediately following reading cannot
  // include the sleep above.
  EXPECT_LT(w.seconds(), first);
  EXPECT_GE(w.lap_millis(), 0.0);
}

}  // namespace
}  // namespace upsim::util
