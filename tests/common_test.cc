#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"

namespace ring {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("key missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "not_found: key missing");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgumentError("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FailedPreconditionError("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnavailableError("").code(), StatusCode::kUnavailable);
  EXPECT_EQ(TimeoutError("").code(), StatusCode::kTimeout);
  EXPECT_EQ(DataLossError("").code(), StatusCode::kDataLoss);
  EXPECT_EQ(InternalError("").code(), StatusCode::kInternal);
}

Status FailsWhenNegative(int x) {
  if (x < 0) {
    return InvalidArgumentError("negative");
  }
  return OkStatus();
}

Status Propagates(int x) {
  RING_RETURN_IF_ERROR(FailsWhenNegative(x));
  return OkStatus();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(Propagates(1).ok());
  EXPECT_EQ(Propagates(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) {
    return InvalidArgumentError("not positive");
  }
  return x;
}

Result<int> DoubledPositive(int x) {
  RING_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueAndError) {
  Result<int> good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 21);
  Result<int> bad = ParsePositive(0);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacro) {
  ASSERT_TRUE(DoubledPositive(4).ok());
  EXPECT_EQ(*DoubledPositive(4), 8);
  EXPECT_EQ(DoubledPositive(-4).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowCoversSmallRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.NextBelow(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanRoughlyInverseRate) {
  Rng rng(13);
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(rate);
  }
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
}

TEST(StatsTest, PercentilesOfKnownSequence) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(90), 90.1, 1e-9);
}

TEST(StatsTest, PercentileCacheInvalidatedByAddAndClear) {
  // Percentile() caches its sorted copy; adding samples (or clearing) must
  // invalidate it, and Add must not disturb insertion order in values().
  Samples s;
  s.Add(3.0);
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 3.0);
  s.Add(0.5);  // below the cached minimum
  s.Add(9.0);  // above the cached maximum
  EXPECT_DOUBLE_EQ(s.Percentile(0), 0.5);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 9.0);
  const std::vector<double> want = {3.0, 1.0, 0.5, 9.0};
  EXPECT_EQ(s.values(), want);
  s.Clear();
  EXPECT_TRUE(s.empty());
  s.Add(7.0);
  EXPECT_DOUBLE_EQ(s.Median(), 7.0);
}

TEST(StatsTest, SingleSample) {
  Samples s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.Median(), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 42.0);
}

TEST(HashTest, DeterministicAndSpread) {
  EXPECT_EQ(HashKey("abc"), HashKey("abc"));
  EXPECT_NE(HashKey("abc"), HashKey("abd"));
  // A HashedKey carries the hash of its key, the empty default included.
  EXPECT_EQ(HashedKey("abc").hash(), HashKey("abc"));
  EXPECT_EQ(HashedKey().hash(), HashKey(""));
  EXPECT_EQ(HashedKey("abc").Shard(7), KeyShard("abc", 7));
  // Shard balance: 3 shards over 30k sequential keys should be near-uniform.
  const uint32_t s = 3;
  std::vector<int> counts(s, 0);
  for (int i = 0; i < 30000; ++i) {
    counts[KeyShard("key-" + std::to_string(i), s)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 500);
  }
}

TEST(BytesTest, PatternBufferDeterministic) {
  Buffer a = MakePatternBuffer(128, 5);
  Buffer b = MakePatternBuffer(128, 5);
  Buffer c = MakePatternBuffer(128, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 128u);
}

TEST(BytesTest, StringRoundTrip) {
  const std::string s = "hello ring";
  EXPECT_EQ(ToString(ToBuffer(s)), s);
}

}  // namespace
}  // namespace ring
