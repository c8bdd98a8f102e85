// Tests of the benchmark's own helpers: percentiles, the geometric mean,
// span self time, and the open-loop schedule.

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace wavebench;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) {
    v.push_back(static_cast<double>(i));  // descending: percentile must sort
  }
  return v;
}

TEST(Percentile, NearestRankIsAnActualSample) {
  EXPECT_EQ(percentile(one_to(10), 50), 5.0);
  EXPECT_EQ(percentile(one_to(10), 90), 9.0);
  EXPECT_EQ(percentile(one_to(10), 100), 10.0);
  EXPECT_EQ(percentile(one_to(1000), 99), 990.0);
  EXPECT_EQ(percentile(one_to(3), 50), 2.0);
  EXPECT_EQ(percentile({7.0}, 1), 7.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(Percentile, RankIsExactInIntegers) {
  EXPECT_EQ(nearest_rank(1000, 99), 990u);
  EXPECT_EQ(nearest_rank(1001, 99), 991u);
  EXPECT_EQ(nearest_rank(100, 90), 90u);
  EXPECT_EQ(nearest_rank(1, 1), 1u);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW((void)percentile({}, 50), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 0), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 101), std::invalid_argument);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_TRUE(percentile_supported(1000, 99));
  EXPECT_FALSE(percentile_supported(999, 99));
  EXPECT_TRUE(percentile_supported(100, 90));
  EXPECT_FALSE(percentile_supported(99, 90));
  EXPECT_TRUE(percentile_supported(44, 75));
  EXPECT_FALSE(percentile_supported(44, 90));
  EXPECT_FALSE(percentile_supported(0, 50));
}

TEST(Windows, FastDecileFavoursTheFastSide) {
  // Seven slow windows of ten do not move the figure.
  const std::vector<double> times{2.0, 1.0, 2.1, 1.9, 2.0, 1.0, 2.2, 0.9, 2.0, 1.9};
  EXPECT_EQ(fast_decile(times, false), 0.9);
  const std::vector<double> times20{2.0, 1.0, 2.1, 1.9, 2.0, 1.0, 2.2, 0.9, 2.0, 1.9,
                                    2.0, 1.1, 2.1, 1.9, 2.0, 2.0, 2.2, 2.0, 2.0, 1.9};
  EXPECT_EQ(fast_decile(times20, false), 1.0);  // rank 2 of 20
  const std::vector<double> rates{5.0, 10.0, 6.0, 11.0, 5.5, 6.5, 10.0, 6.0, 5.0, 6.0};
  EXPECT_EQ(fast_decile(rates, true), 10.0);
}

TEST(Windows, GroupsInOrderAndFoldTheShortTail) {
  const auto sizes = per_group(one_to(10), 4, [](std::vector<double> w) {
    return static_cast<double>(w.size());
  });
  EXPECT_EQ(sizes, (std::vector<double>{4.0, 6.0}));
  const auto firsts = per_group({5.0, 6.0, 7.0}, 1, [](std::vector<double> w) { return w[0]; });
  EXPECT_EQ(firsts, (std::vector<double>{5.0, 6.0, 7.0}));
  EXPECT_EQ(per_group({1.0, 2.0}, 5, [](std::vector<double> w) { return w[1]; }),
            (std::vector<double>{2.0}));
}

TEST(Windows, StallsInMostWindowsShowOnlyInThePooledTail) {
  // Three windows of 20 samples; two carry stalls at their p90 and one
  // does not. The fast decile of the window tails hides them; the tail
  // over all samples shows them.
  std::vector<double> samples;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 20; ++i) {
      samples.push_back(w < 2 && i >= 17 ? 50.0 : static_cast<double>(i));
    }
  }
  const auto tails = window_percentiles(samples, 20, 90);
  EXPECT_EQ(tails, (std::vector<double>{50.0, 50.0, 18.0}));
  EXPECT_EQ(fast_decile(tails, false), 18.0);
  EXPECT_EQ(percentile(samples, 90), 50.0);
}

TEST(Geomean, OfRates) {
  EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-12);
  EXPECT_NEAR(geomean({1e8, 1e6}), 1e7, 1e-3);
  EXPECT_NEAR(geomean({2.0, 8.0, 4.0}), 4.0, 1e-12);
  EXPECT_THROW((void)geomean({}), std::invalid_argument);
  EXPECT_THROW((void)geomean({1.0, 0.0}), std::invalid_argument);
}

TEST(PairedRatio, CancelsWhatBothOfAPairShare) {
  // The second pair ran in a stretch twice as slow; each pair's ratio is 1.1.
  EXPECT_NEAR(paired_ratio({1.1, 2.2, 1.1}, {1.0, 2.0, 1.0}), 1.1, 1e-12);
  // Separate medians would mix the stretches: 2.2 / 1.0.
  EXPECT_NEAR(paired_ratio({1.1, 2.2, 2.2}, {1.0, 2.0, 1.0}), 1.1, 1e-12);
  EXPECT_THROW((void)paired_ratio({}, {}), std::invalid_argument);
  EXPECT_THROW((void)paired_ratio({1.0}, {1.0, 2.0}), std::invalid_argument);
}

trace::span make(std::uint64_t id, std::uint64_t parent, std::int64_t start, std::int64_t end) {
  trace::span s;
  s.name = "x/y";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsNestedChildren) {
  // root [0,100) with children [10,30) and [50,60); the first child has a
  // grandchild [15,25) that must not be subtracted from the root twice.
  const std::vector<trace::span> spans{make(1, 0, 0, 100), make(2, 1, 10, 30),
                                       make(3, 2, 15, 25), make(4, 1, 50, 60)};
  const auto self = trace::self_times_ns(spans);
  EXPECT_EQ(self[0], 70);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 10);
  std::int64_t sum = 0;
  for (const auto s : self) {
    sum += s;
  }
  EXPECT_EQ(sum, 100);  // self times of a tree add up to the root
}

TEST(SelfTime, OverlappingChildrenCountOnceAndClip) {
  // Children on other threads may overlap each other or outlive the parent.
  const std::vector<trace::span> spans{make(1, 0, 0, 100), make(2, 1, 10, 40),
                                       make(3, 1, 30, 50), make(4, 1, 90, 130)};
  const auto self = trace::self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
}

TEST(SelfTime, ByLayerAndName) {
  std::vector<trace::span> spans{make(1, 0, 0, 100), make(2, 1, 10, 30)};
  spans[0].name = "bench/op";
  spans[1].name = "engine.kernel/run";
  const auto layers = trace::self_ns_by_layer(spans);
  EXPECT_EQ(layers.at("bench"), 80);
  EXPECT_EQ(layers.at("engine.kernel"), 20);
  const auto names = trace::totals_by_name(spans);
  EXPECT_EQ(names.at("bench/op").total_ns, 100);
  EXPECT_EQ(names.at("bench/op").self_ns, 80);
  EXPECT_EQ(names.at("engine.kernel/run").calls, 1u);
  EXPECT_EQ(trace::layer_of("engine.wave_engine/unpack"), "engine.wave_engine");
}

TEST(SelfTime, RecorderNestsScopes) {
  auto& r = trace::recorder::global();
  (void)r.take();
  r.enable(true);
  {
    trace::request_scope request{42};
    trace::scope outer{"bench/outer"};
    trace::scope inner{"mig/inner"};
  }
  r.enable(false);
  { trace::scope ignored{"bench/disabled"}; }
  const auto spans = r.take();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "mig/inner");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[0].request, 42u);
  EXPECT_EQ(spans[1].request, 42u);
}

TEST(OpenLoop, DueTimesInterleaveConnections) {
  const open_loop_schedule s{1000.0, 2};
  EXPECT_DOUBLE_EQ(s.offset_s(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(s.offset_s(1, 0), 0.001);
  EXPECT_DOUBLE_EQ(s.offset_s(0, 1), 0.002);
  EXPECT_DOUBLE_EQ(s.offset_s(1, 1), 0.003);
  // The merged stream is evenly spaced at the nominal rate.
  EXPECT_EQ(s.requests_in(0, 1.0) + s.requests_in(1, 1.0), 1000u);
  const auto start = std::chrono::steady_clock::time_point{};
  EXPECT_EQ(s.due(start, 1, 2) - start, std::chrono::microseconds{5000});
}

TEST(OpenLoop, ScheduleIgnoresReplies) {
  // Due times depend only on the index: a late reply never shifts them.
  const open_loop_schedule s{250.0, 1};
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(s.offset_s(0, i), static_cast<double>(i) * 0.004);
  }
  EXPECT_EQ(s.requests_in(0, 0.01), 3u);  // due at 0, 4 and 8 ms
}

}  // namespace
