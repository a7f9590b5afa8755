// Self-tests of the benchmark's own arithmetic: medians and quartiles (the
// reference values are Python's statistics.median / statistics.quantiles(
// values, n=4)), the highest percentile with at least 10 samples beyond it,
// and span self time with nested and overlapping children. Exits non-zero
// on the first failure.
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::abs(got - want) <= 1e-12 * std::max(1.0, std::abs(want))) return;
  std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got, want);
  ++failures;
}

void test_median_and_quartiles() {
  using perfbench::median;
  using perfbench::quartiles;
  expect_near(median({3.0, 1.0, 2.0}), 2.0, "median odd");
  expect_near(median({4.0, 1.0, 3.0, 2.0}), 2.5, "median even");
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const perfbench::Quartiles ten =
      quartiles({10, 1, 9, 2, 8, 3, 7, 4, 6, 5});
  expect_near(ten.q1, 2.75, "q1 of 1..10");
  expect_near(ten.q2, 5.5, "q2 of 1..10");
  expect_near(ten.q3, 8.25, "q3 of 1..10");
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  const perfbench::Quartiles five = quartiles({5, 4, 3, 2, 1});
  expect_near(five.q1, 1.5, "q1 of 1..5");
  expect_near(five.q2, 3.0, "q2 of 1..5");
  expect_near(five.q3, 4.5, "q3 of 1..5");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const perfbench::Quartiles two = quartiles({2, 1});
  expect_near(two.q1, 0.75, "q1 of 1..2");
  expect_near(two.q3, 2.25, "q3 of 1..2");
}

void test_tail_percentile() {
  std::vector<double> values(1000);
  std::iota(values.begin(), values.end(), 1.0);
  // p99.9 and p99.5 leave 1 and 5 samples beyond; p99 leaves exactly 10.
  perfbench::TailPercentile tail =
      perfbench::highest_supported_percentile(values);
  expect_near(tail.percentile, 99.0, "1000 samples support p99");
  expect_near(tail.value, 990.0, "p99 of 1..1000");
  expect_near(static_cast<double>(tail.beyond), 10.0, "beyond p99");
  values.pop_back();  // 999 samples: p99 has 9 beyond, p95 has 49
  tail = perfbench::highest_supported_percentile(values);
  expect_near(tail.percentile, 95.0, "999 samples support p95");
  expect_near(tail.value, 950.0, "p95 of 1..999");
  values.resize(20);  // p50 leaves exactly 10
  tail = perfbench::highest_supported_percentile(values);
  expect_near(tail.percentile, 50.0, "20 samples support p50");
  expect_near(tail.value, 10.0, "p50 of 1..20");
  values.resize(5);
  tail = perfbench::highest_supported_percentile(values);
  expect_near(tail.percentile, 0.0, "5 samples support no percentile");
}

void test_self_time() {
  using perfbench::Span;
  // root [0,10]; A [1,4] and B [3,6] overlap; A has a child [2,3]; C [9,12]
  // sticks out of root and counts only for [9,10].
  std::vector<Span> spans(5);
  spans[0] = {1, 0, "root", 0.0, 10.0, 1, ""};
  spans[1] = {2, 1, "a", 1.0, 4.0, 1, ""};
  spans[2] = {3, 1, "b", 3.0, 6.0, 1, ""};
  spans[3] = {4, 2, "a.child", 2.0, 3.0, 1, ""};
  spans[4] = {5, 1, "c", 9.0, 12.0, 1, ""};
  const std::vector<double> self = perfbench::self_times(spans);
  expect_near(self[0], 4.0, "root self = 10 - [1,6] - [9,10]");
  expect_near(self[1], 2.0, "a self = 3 - child");
  expect_near(self[2], 3.0, "b self (no children)");
  expect_near(self[3], 1.0, "leaf self");
  expect_near(self[4], 3.0, "c self");

  // The recorder nests open spans under the innermost open one.
  perfbench::Tracer tracer(true);
  {
    perfbench::Tracer::Scope outer(tracer, "outer");
    perfbench::Tracer::Scope inner(tracer, "inner");
    tracer.record("leaf", tracer.now(), tracer.now(), 3);
  }
  const std::vector<Span>& recorded = tracer.spans();
  expect_near(static_cast<double>(recorded.size()), 3.0, "recorded spans");
  expect_near(static_cast<double>(recorded[1].parent), 1.0, "inner parent");
  expect_near(static_cast<double>(recorded[2].parent), 2.0, "leaf parent");
  expect_near(static_cast<double>(recorded[2].calls), 3.0, "leaf calls");
  perfbench::Tracer off(false);
  { perfbench::Tracer::Scope ignored(off, "ignored"); }
  expect_near(static_cast<double>(off.spans().size()), 0.0, "disabled tracer");
}

}  // namespace

int main() {
  test_median_and_quartiles();
  test_tail_percentile();
  test_self_time();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
