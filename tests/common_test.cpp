#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"

namespace ns {
namespace {

TEST(Error, RequireThrowsWithMessage) {
  try {
    NS_REQUIRE(1 == 2, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(NS_CHECK(true, "never"));
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) counts[rng.uniform_int(0, 4)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 0.2, 0.02);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, GaussianMoments) {
  Rng rng(5);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(100);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(MathUtil, MeanVariance) {
  const std::vector<float> xs{1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(variance(xs), 1.25, 1e-12);
}

TEST(MathUtil, MeanOfEmptyIsZero) {
  EXPECT_EQ(mean(std::span<const float>{}), 0.0);
}

TEST(MathUtil, PercentileInterpolates) {
  const std::vector<float> xs{10.0f, 20.0f, 30.0f, 40.0f};
  EXPECT_NEAR(percentile(xs, 0.0), 10.0, 1e-9);
  EXPECT_NEAR(percentile(xs, 1.0), 40.0, 1e-9);
  EXPECT_NEAR(percentile(xs, 0.5), 25.0, 1e-9);
  EXPECT_NEAR(median(xs), 25.0, 1e-9);
}

TEST(MathUtil, PercentileRejectsBadArgs) {
  EXPECT_THROW(percentile({}, 0.5), InvalidArgument);
  EXPECT_THROW(percentile({1.0f}, 1.5), InvalidArgument);
  EXPECT_THROW(percentile({1.0f, std::nanf(""), 3.0f}, 0.5),
               InvalidArgument);
}

TEST(MathUtil, QuantileFromSortedGoldenType7) {
  // Type-7 (linear interpolation between order statistics): the values R's
  // quantile() and numpy.quantile() default to.
  const std::vector<float> xs{10.0f, 20.0f, 30.0f, 40.0f};
  EXPECT_NEAR(quantile_from_sorted(xs, 0.25), 17.5, 1e-9);
  EXPECT_NEAR(quantile_from_sorted(xs, 0.75), 32.5, 1e-9);
  EXPECT_NEAR(quantile_from_sorted(xs, 0.5), 25.0, 1e-9);
  EXPECT_NEAR(quantile_from_sorted(xs, 1.0 / 3.0), 20.0, 1e-6);
}

TEST(MathUtil, QuantileFromSortedEndpointsAndSingleton) {
  const std::vector<float> xs{10.0f, 20.0f, 30.0f, 40.0f};
  EXPECT_DOUBLE_EQ(quantile_from_sorted(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile_from_sorted(xs, 1.0), 40.0);
  const std::vector<float> one{7.0f};
  EXPECT_DOUBLE_EQ(quantile_from_sorted(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile_from_sorted(one, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(quantile_from_sorted(one, 1.0), 7.0);
}

TEST(MathUtil, QuantileFromSortedRejectsBadInput) {
  const std::vector<float> xs{10.0f, 20.0f};
  EXPECT_THROW(quantile_from_sorted({}, 0.5), InvalidArgument);
  EXPECT_THROW(quantile_from_sorted(xs, -0.1), InvalidArgument);
  EXPECT_THROW(quantile_from_sorted(xs, 1.1), InvalidArgument);
  const std::vector<float> nan_tail{1.0f, std::nanf("")};
  EXPECT_THROW(quantile_from_sorted(nan_tail, 0.5), InvalidArgument);
}

TEST(MathUtil, QuantilesFromSortedMatchesSingleCalls) {
  const std::vector<float> xs{1.0f, 2.0f, 3.0f, 5.0f, 8.0f, 13.0f};
  static constexpr double kQs[] = {0.0, 0.1, 0.5, 0.9, 0.99, 1.0};
  const std::vector<double> batch = quantiles_from_sorted(xs, kQs);
  ASSERT_EQ(batch.size(), 6u);
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_DOUBLE_EQ(batch[i], quantile_from_sorted(xs, kQs[i])) << "q " << i;
}

TEST(MathUtil, PercentileAgreesWithQuantileOnUnsortedInput) {
  const std::vector<float> unsorted{30.0f, 10.0f, 40.0f, 20.0f};
  const std::vector<float> sorted{10.0f, 20.0f, 30.0f, 40.0f};
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0})
    EXPECT_DOUBLE_EQ(percentile(unsorted, q), quantile_from_sorted(sorted, q))
        << "q " << q;
}

TEST(MathUtil, TrimmedMomentsDropsOutliers) {
  // 100 samples of value 1 plus extreme outliers at both tails.
  std::vector<float> xs(100, 1.0f);
  xs.push_back(1000.0f);
  xs.push_back(-1000.0f);
  xs.push_back(2000.0f);
  xs.push_back(-2000.0f);
  xs.push_back(3000.0f);
  xs.push_back(-3000.0f);
  const auto m = trimmed_moments(xs, 0.05);
  EXPECT_NEAR(m.mean, 1.0, 1e-6);
  EXPECT_NEAR(m.stddev, 0.0, 1e-6);
}

TEST(MathUtil, TrimmedMomentsDegenerateKeepsMiddle) {
  const auto m = trimmed_moments({5.0f}, 0.4);
  EXPECT_NEAR(m.mean, 5.0, 1e-9);
}

TEST(MathUtil, PearsonPerfectCorrelation) {
  const std::vector<float> a{1, 2, 3, 4, 5};
  const std::vector<float> b{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-9);
  std::vector<float> c{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-9);
}

TEST(MathUtil, PearsonZeroVarianceIsZero) {
  const std::vector<float> a{1, 1, 1, 1};
  const std::vector<float> b{1, 2, 3, 4};
  EXPECT_EQ(pearson(a, b), 0.0);
}

TEST(MathUtil, MeanAbsoluteChange) {
  const std::vector<float> xs{0.0f, 1.0f, -1.0f, 0.0f};
  // |1-0| + |-1-1| + |0-(-1)| = 1 + 2 + 1 = 4; / 3
  EXPECT_NEAR(mean_absolute_change(xs), 4.0 / 3.0, 1e-9);
  EXPECT_EQ(mean_absolute_change(std::vector<float>{1.0f}), 0.0);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i)
    futures.push_back(pool.submit([&counter] { counter++; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw Error("boom"); });
  EXPECT_THROW(f.get(), Error);
}

TEST(ThreadPool, ZeroThreadRequestStillGetsAWorker) {
  // hardware_concurrency() may legally report 0; the pool must still run.
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran = 1; }).get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, ShutdownDrainRunsEveryQueuedTask) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i)
    pool.submit([&counter] { counter++; });
  pool.shutdown();
  EXPECT_EQ(counter.load(), 20);
  EXPECT_TRUE(pool.stopped());
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), InvalidArgument);
  // shutdown() is idempotent.
  pool.shutdown();
}

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; }, &pool);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  parallel_for(5, 5, [](std::size_t) { FAIL(); });
  parallel_for(7, 3, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, RethrowsWorkerException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(
                   0, 100,
                   [](std::size_t i) {
                     if (i == 37) throw Error("bad index");
                   },
                   &pool),
               Error);
}

TEST(Stopwatch, MeasuresNonNegativeTime) {
  Stopwatch sw;
  volatile double x = 0.0;
  for (int i = 0; i < 10000; ++i) x = x + std::sqrt(static_cast<double>(i));
  EXPECT_GE(sw.elapsed_s(), 0.0);
  EXPECT_GE(sw.elapsed_ms(), sw.elapsed_s());
}

}  // namespace
}  // namespace ns
