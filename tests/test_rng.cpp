#include "arbiterq/math/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "arbiterq/math/stats.hpp"

namespace arbiterq::math {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// The stream is part of the reproducibility contract: every seeded
// experiment, shot count and trajectory decision replays from it. These
// are the first draws of seed 1, so any change to the generator or to
// its uniform/bernoulli mapping fails here rather than as drift in a
// downstream figure.
TEST(Rng, GoldenStreamForSeedOne) {
  const std::uint64_t want_u64[8] = {
      0xb3f2af6d0fc710c5ULL, 0x853b559647364ceaULL, 0x92f89756082a4514ULL,
      0x642e1c7bc266a3a7ULL, 0xb27a48e29a233673ULL, 0x24c123126ffda722ULL,
      0x123004ef8df510e6ULL, 0x61954dcc47b1e89dULL};
  const double want_uniform[8] = {
      0x1.67e55eda1f8e2p-1, 0x1.0a76ab2c8e6c9p-1, 0x1.25f12eac10548p-1,
      0x1.90b871ef099a8p-2, 0x1.64f491c534466p-1, 0x1.260918937fedp-3,
      0x1.23004ef8df51p-4,  0x1.865537311ec7ap-2};
  const bool want_bernoulli[8] = {false, false, false, false,
                                  false, true,  true,  false};
  Rng a(1);
  Rng b(1);
  Rng c(1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.next_u64(), want_u64[i]) << "draw " << i;
    EXPECT_EQ(b.uniform(), want_uniform[i]) << "draw " << i;
    EXPECT_EQ(c.bernoulli(0.3), want_bernoulli[i]) << "draw " << i;
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIsDeterministicAndIndependent) {
  Rng root(7);
  Rng a = root.split("stream-a");
  Rng a2 = Rng(7).split("stream-a");
  Rng b = root.split("stream-b");
  EXPECT_EQ(a.next_u64(), a2.next_u64());
  // Different labels give different streams.
  Rng a3 = Rng(7).split("stream-a");
  EXPECT_NE(a3.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.uniform();
  EXPECT_NEAR(mean(xs), 0.5, 0.01);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(13);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) {
    const auto v = rng.uniform_int(7);
    ASSERT_LT(v, 7U);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) EXPECT_GT(c, 700);  // roughly uniform
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  std::vector<double> xs(40000);
  for (double& x : xs) x = rng.normal();
  EXPECT_NEAR(mean(xs), 0.0, 0.02);
  EXPECT_NEAR(stddev(xs), 1.0, 0.02);
}

TEST(Rng, NormalShiftScale) {
  Rng rng(19);
  std::vector<double> xs(40000);
  for (double& x : xs) x = rng.normal(5.0, 2.0);
  EXPECT_NEAR(mean(xs), 5.0, 0.05);
  EXPECT_NEAR(stddev(xs), 2.0, 0.05);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(23);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, NumericSplitMatchesRepeatedCall) {
  Rng root(31);
  EXPECT_EQ(root.split(99).next_u64(), Rng(31).split(99).next_u64());
}

}  // namespace
}  // namespace arbiterq::math
