// Property tests for the campaign layer's streaming-stats substrate:
// stats::QuantileSketch (rank accuracy vs the exact quantile, exact
// order-free merges, JSON round trip) and stats::MovingMin (window-min
// equivalence to brute force).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "stats/descriptive.h"
#include "stats/moving_min.h"
#include "stats/quantile_sketch.h"

namespace bnm::stats {
namespace {

std::vector<double> uniform_stream(std::uint64_t seed, int n) {
  sim::Rng rng{seed};
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) xs.push_back(rng.uniform(1.0, 1000.0));
  return xs;
}

std::vector<double> lognormal_stream(std::uint64_t seed, int n) {
  sim::Rng rng{seed};
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) xs.push_back(rng.lognormal_med(40.0, 0.6));
  return xs;
}

/// Worst case for a streaming sketch: fully sorted input (no mixing).
std::vector<double> adversarial_sorted_stream(int n) {
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    xs.push_back(0.01 * std::pow(1.004, static_cast<double>(i)));
  }
  std::sort(xs.begin(), xs.end());
  return xs;
}

/// The sketch's contract: any quantile is off by at most one log-grid cell
/// in value, i.e. relative error <= cell_ratio - 1 for values inside the
/// grid (plus the zero cell's +-lo absolute band).
void expect_quantiles_within_bound(const std::vector<double>& xs) {
  QuantileSketch sketch;
  for (double x : xs) sketch.insert(x);
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const double rel = sketch.cell_ratio() - 1.0;
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact = quantile_sorted(sorted, q);
    const double approx = sketch.quantile(q);
    const double tol = std::fabs(exact) * rel + sketch.grid().lo + 1e-12;
    EXPECT_NEAR(approx, exact, tol) << "q=" << q << " n=" << xs.size();
  }
  EXPECT_EQ(sketch.count(), xs.size());
  EXPECT_DOUBLE_EQ(sketch.min(), sorted.front());
  EXPECT_DOUBLE_EQ(sketch.max(), sorted.back());
}

TEST(QuantileSketch, RankAccuracyUniform) {
  expect_quantiles_within_bound(uniform_stream(1, 5000));
}

TEST(QuantileSketch, RankAccuracyLognormal) {
  expect_quantiles_within_bound(lognormal_stream(2, 5000));
}

TEST(QuantileSketch, RankAccuracyAdversarialSorted) {
  expect_quantiles_within_bound(adversarial_sorted_stream(4000));
}

TEST(QuantileSketch, EmptyAndEdgeQuantiles) {
  QuantileSketch s;
  EXPECT_TRUE(std::isnan(s.quantile(0.5)));
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.mean()));
  s.insert(5.0);
  s.insert(-3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), -3.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 1.0);
}

TEST(QuantileSketch, NaNInsertsAreDropped) {
  QuantileSketch s;
  s.insert(std::nan(""));
  EXPECT_EQ(s.count(), 0u);
  s.insert(2.0);
  s.insert(std::nan(""));
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 2.0);
}

TEST(QuantileSketch, NegativeAndSubResolutionValues) {
  QuantileSketch s;
  s.insert(-50.0);
  s.insert(0.0);        // zero cell
  s.insert(0.0001);     // below grid lo: zero cell too
  s.insert(50.0);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), -50.0);
  EXPECT_DOUBLE_EQ(s.max(), 50.0);
  // Median of 4 falls between the zero-cell entries: inside [-lo, lo].
  EXPECT_LE(std::fabs(s.quantile(0.5)), s.grid().lo);
}

// The campaign's byte-identity guarantee rests on this: merging any
// grouping of any ordering of sub-sketches equals the single-stream
// sketch, exactly (operator== compares every bucket, count, sum, extrema).
TEST(QuantileSketch, MergeIsExactAndGroupingFree) {
  const std::vector<double> xs = lognormal_stream(3, 3000);
  QuantileSketch whole;
  for (double x : xs) whole.insert(x);

  for (std::size_t parts : {2u, 7u, 30u}) {
    std::vector<QuantileSketch> shards(parts);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      shards[i % parts].insert(xs[i]);
    }
    // Merge in reverse order — commutativity must make it irrelevant.
    QuantileSketch merged;
    for (std::size_t i = shards.size(); i-- > 0;) merged.merge(shards[i]);
    EXPECT_TRUE(merged == whole) << parts << " shards";
    EXPECT_EQ(merged.to_json().dump(), whole.to_json().dump());
  }
}

TEST(QuantileSketch, JsonRoundTrip) {
  QuantileSketch s;
  for (double x : uniform_stream(4, 500)) s.insert(x);
  s.insert(-1.5);
  QuantileSketch back;
  ASSERT_TRUE(QuantileSketch::from_json(s.to_json(), &back));
  EXPECT_TRUE(back == s);
  EXPECT_EQ(back.to_json().dump(), s.to_json().dump());
}

TEST(QuantileSketch, FromJsonRejectsShapeMismatches) {
  QuantileSketch s;
  s.insert(1.0);
  obs::json::Value v = s.to_json();
  QuantileSketch out;
  // Bucket index out of range.
  obs::json::Value bad = v;
  bad.members()[7].second.items()[0].items()[0] =
      obs::json::Value::integer(1 << 20);
  EXPECT_FALSE(QuantileSketch::from_json(bad, &out));
  // Count that does not match the bucket total.
  obs::json::Value bad2 = v;
  bad2.members()[3].second = obs::json::Value::integer(5);
  EXPECT_FALSE(QuantileSketch::from_json(bad2, &out));
}

TEST(QuantileSketch, FromJsonRejectsWhatItWouldNotRender) {
  QuantileSketch s;
  s.insert(1.0);
  s.insert(50.0);
  const obs::json::Value v = s.to_json();
  QuantileSketch out;
  ASSERT_TRUE(QuantileSketch::from_json(v, &out));
  // cells = 2^32 + 512 would narrow to the default 512.
  obs::json::Value wide = v;
  wide.members()[2].second = obs::json::Value::integer(4294967808LL);
  EXPECT_FALSE(QuantileSketch::from_json(wide, &out));
  // Buckets out of index order, and a repeated index.
  obs::json::Value swapped = v;
  std::swap(swapped.members()[7].second.items()[0],
            swapped.members()[7].second.items()[1]);
  EXPECT_FALSE(QuantileSketch::from_json(swapped, &out));
  obs::json::Value repeated = v;
  repeated.members()[7].second.items()[1].items()[0] =
      repeated.members()[7].second.items()[0].items()[0];
  EXPECT_FALSE(QuantileSketch::from_json(repeated, &out));
  // Bucket counts whose uint64 sum wraps around to the stated count:
  // (2^63 - 1) + (2^63 - 1) + 4 = 2^64 + 2.
  QuantileSketch three;
  for (double x : {1.0, 50.0, 2000.0}) three.insert(x);
  obs::json::Value wrapped = three.to_json();
  wrapped.members()[3].second = obs::json::Value::integer(2);
  for (std::int64_t i : {0, 1, 2}) {
    wrapped.members()[7].second.items()[static_cast<std::size_t>(i)]
        .items()[1] = obs::json::Value::integer(i < 2 ? INT64_MAX : 4);
  }
  EXPECT_FALSE(QuantileSketch::from_json(wrapped, &out));
  // An empty sketch with a non-zero extremum.
  obs::json::Value empty = QuantileSketch{}.to_json();
  ASSERT_TRUE(QuantileSketch::from_json(empty, &out));
  empty.members()[4].second = obs::json::Value::number(2.5);
  EXPECT_FALSE(QuantileSketch::from_json(empty, &out));
}

TEST(QuantileSketch, MemoryIsFixedForAGrid) {
  QuantileSketch a, b;
  for (double x : uniform_stream(5, 10)) a.insert(x);
  for (double x : uniform_stream(6, 10000)) b.insert(x);
  EXPECT_EQ(a.memory_bytes(), b.memory_bytes());
  // 512 cells/sign + zero cell at 8 bytes each, plus the object.
  EXPECT_LT(b.memory_bytes(), 16u * 1024u);
}

TEST(MovingMin, MatchesBruteForce) {
  sim::Rng rng{11};
  MovingMin window{8};
  std::vector<double> history;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(0.0, 100.0);
    history.push_back(v);
    const double got = window.push(v);
    const std::size_t first = history.size() > 8 ? history.size() - 8 : 0;
    const double expect =
        *std::min_element(history.begin() + static_cast<long>(first),
                          history.end());
    ASSERT_DOUBLE_EQ(got, expect) << "i=" << i;
    ASSERT_DOUBLE_EQ(window.min(), expect);
  }
}

TEST(MovingMin, WindowOneTracksLastSample) {
  MovingMin w{1};
  EXPECT_TRUE(std::isnan(w.min()));
  EXPECT_DOUBLE_EQ(w.push(5.0), 5.0);
  EXPECT_DOUBLE_EQ(w.push(9.0), 9.0);  // 5 left the window
  EXPECT_DOUBLE_EQ(w.push(2.0), 2.0);
}

TEST(MovingMin, ZeroWindowClampsToOne) {
  MovingMin w{0};
  EXPECT_EQ(w.window(), 1u);
}

TEST(MovingMin, Reset) {
  MovingMin w{4};
  w.push(1.0);
  w.push(2.0);
  w.reset();
  EXPECT_TRUE(w.empty());
  EXPECT_TRUE(std::isnan(w.min()));
  EXPECT_DOUBLE_EQ(w.push(7.0), 7.0);
}

}  // namespace
}  // namespace bnm::stats
