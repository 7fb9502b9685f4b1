#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace sdmpeb {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 3.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 3.5);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(99);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // every value hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(2024);
  const int n = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NormalScalesMeanAndStddev) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 0.5);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(3);
  Rng child = parent.split();
  // Child continues deterministically and differs from the parent stream.
  Rng parent2(3);
  Rng child2 = parent2.split();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
}

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    SDMPEB_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom 42"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(SDMPEB_CHECK(2 + 2 == 4));
}

TEST(Csv, RendersHeaderAndRows) {
  CsvWriter csv({"a", "b"});
  csv.add_row({"1", "2"});
  csv.add_row_numeric({3.5, -1.25});
  const auto text = csv.to_string();
  EXPECT_EQ(text, "a,b\n1,2\n3.5,-1.25\n");
  EXPECT_EQ(csv.row_count(), 2u);
}

TEST(Csv, EscapesSpecialCharacters) {
  CsvWriter csv({"x"});
  csv.add_row({"hello, \"world\""});
  EXPECT_EQ(csv.to_string(), "x\n\"hello, \"\"world\"\"\"\n");
}

TEST(Csv, RejectsMismatchedRowWidth) {
  CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.add_row({"only-one"}), Error);
}

TEST(Csv, MetadataRendersAsCommentLinesBeforeHeader) {
  CsvWriter csv({"a"});
  csv.add_metadata("source", "unit-test");
  csv.add_metadata("rev", "42");
  csv.add_row({"1"});
  EXPECT_EQ(csv.to_string(), "# source=unit-test\n# rev=42\na\n1\n");
}

TEST(Csv, BuildMetadataRecordsShaAndFlags) {
  CsvWriter csv({"a"});
  csv.add_build_metadata();
  const auto text = csv.to_string();
  // Values are machine-specific; the keys and ordering are the contract.
  EXPECT_EQ(text.rfind("# git_sha=", 0), 0u);
  EXPECT_NE(text.find("\n# build_type="), std::string::npos);
  EXPECT_NE(text.find("\n# build_flags="), std::string::npos);
  // The header line still follows the comments.
  EXPECT_NE(text.find("\na\n"), std::string::npos);
}

TEST(Timer, ReportsNonNegativeMonotonicTime) {
  Timer t;
  const double first = t.seconds();
  EXPECT_GE(first, 0.0);
  while (t.seconds() <= first) {
  }
  EXPECT_GT(t.seconds(), first);
  EXPECT_GE(t.milliseconds(), t.seconds());  // ms numerically larger
}

TEST(Timer, ResetDropsAccumulatedTime) {
  Timer t;
  while (t.seconds() < 0.05) {
  }
  t.reset();
  // Right after reset the elapsed time restarts from zero, far below the
  // 50 ms waited out above.
  EXPECT_LT(t.seconds(), 0.05);
}

}  // namespace
}  // namespace sdmpeb
