// metrics_test.cpp — registry unit tests (docs/METRICS.md): histogram
// bucket boundaries, concurrent counter increments, snapshot consistency,
// reset semantics, instrument sharing by name, the per-instance tallies of
// metrics::Counter and the per-instance shares of metrics::Gauge.
#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace ftcorba;
using namespace ftcorba::metrics;

#if FTCORBA_METRICS_ENABLED

namespace {

// Each test uses its own instrument names: the registry is process-global
// and instruments persist across tests within the binary.
Sample find_sample(const std::string& name) {
  for (const Sample& s : snapshot()) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "instrument not in snapshot: " << name;
  return {};
}

TEST(Metrics, CounterAccumulates) {
  auto c = counter("t_counter_acc_total", "help", "events", "test");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  const Sample s = find_sample("t_counter_acc_total");
  EXPECT_EQ(s.type, Type::kCounter);
  EXPECT_EQ(s.counter, 42u);
  EXPECT_EQ(s.layer, "test");
  EXPECT_EQ(s.unit, "events");
}

TEST(Metrics, ReRegistrationSharesTheInstrument) {
  auto a = counter("t_shared_total", "help", "events", "test");
  auto b = counter("t_shared_total", "help", "events", "test");
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
}

TEST(Metrics, TypeMismatchYieldsInertHandle) {
  (void)counter("t_mismatch", "help", "events", "test");
  auto g = gauge("t_mismatch", "help", "events", "test");
  g.add(5);  // must not crash, must not affect the counter
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(find_sample("t_mismatch").type, Type::kCounter);
}

TEST(Metrics, GaugeDeltasAndSet) {
  auto g = gauge("t_gauge_depth", "help", "messages", "test");
  g.add(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set(-2);
  EXPECT_EQ(g.value(), -2);
  EXPECT_EQ(find_sample("t_gauge_depth").gauge, -2);
}

TEST(Metrics, HistogramBucketBoundaries) {
  auto h = histogram("t_hist_bounds_ms", "help", "ms", "test", {1.0, 2.0, 5.0});
  // Prometheus buckets are upper-inclusive: value v lands in the first
  // bucket with v <= bound; above the last bound it lands in +Inf.
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (boundary is inclusive)
  h.observe(1.001); // bucket 1 (<= 2)
  h.observe(2.0);   // bucket 1
  h.observe(5.0);   // bucket 2 (<= 5)
  h.observe(5.1);   // overflow (+Inf)
  h.observe(1e9);   // overflow (+Inf)

  const Sample s = find_sample("t_hist_bounds_ms");
  ASSERT_EQ(s.type, Type::kHistogram);
  ASSERT_EQ(s.bounds, (std::vector<double>{1.0, 2.0, 5.0}));
  ASSERT_EQ(s.buckets.size(), 4u);  // bounds + overflow
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[1], 2u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[3], 2u);
  EXPECT_EQ(s.count, 7u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 5.1 + 1e9);
  EXPECT_EQ(h.count(), 7u);
}

TEST(Metrics, ConcurrentCounterIncrementsAreLossless) {
  auto c = counter("t_concurrent_total", "help", "events", "test");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      // Each thread registers its own handle, as real layer instances do.
      auto mine = counter("t_concurrent_total", "help", "events", "test");
      for (int i = 0; i < kPerThread; ++i) mine.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), std::uint64_t(kThreads) * kPerThread);
}

TEST(Metrics, ResetZeroesValuesButKeepsInstruments) {
  auto c = counter("t_reset_total", "help", "events", "test");
  auto h = histogram("t_reset_ms", "help", "ms", "test", {1.0});
  c.add(9);
  h.observe(0.5);
  reset_all();
  EXPECT_EQ(c.value(), 0u);  // the old handle still points at the instrument
  EXPECT_EQ(h.count(), 0u);
  const Sample s = find_sample("t_reset_ms");
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  c.add(2);
  EXPECT_EQ(c.value(), 2u);
}

TEST(Metrics, PrometheusRenderingIsCumulative) {
  auto h = histogram("t_prom_ms", "help text", "ms", "test", {1.0, 5.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(100.0);
  const std::string text = render_prometheus();
  EXPECT_NE(text.find("# HELP t_prom_ms help text"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_prom_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("t_prom_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("t_prom_ms_bucket{le=\"5\"} 2"), std::string::npos);
  EXPECT_NE(text.find("t_prom_ms_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("t_prom_ms_count 3"), std::string::npos);
}

TEST(Metrics, JsonRenderingNamesEveryInstrument) {
  (void)counter("t_json_total", "help", "events", "test");
  const std::string json = render_json();
  EXPECT_NE(json.find("\"t_json_total\""), std::string::npos);
  EXPECT_NE(json.find("\"layer\":\"test\""), std::string::npos);
}

}  // namespace

#else  // !FTCORBA_METRICS_ENABLED

TEST(MetricsDisabled, ApiIsInertButCallable) {
  auto c = counter("t_off_total", "help", "events", "test");
  c.add(5);
  EXPECT_EQ(c.value(), 0u);
  auto h = histogram("t_off_ms", "help", "ms", "test", {1.0});
  h.observe(0.5);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(snapshot().empty());
  EXPECT_TRUE(render_prometheus().empty());
}

#endif  // FTCORBA_METRICS_ENABLED

// ---- Counter: a per-instance tally beside the shared instrument -------------
// These run in both builds. With metrics compiled out the registry is
// empty, so every registry total reads 0 and a Counter is its tally alone.

namespace {

#if !FTCORBA_METRICS_ENABLED
static_assert(sizeof(Counter) == sizeof(std::uint64_t));
static_assert(sizeof(Gauge) == sizeof(std::int64_t));
#endif

// Each registry total below is expected only when the registry exists.
constexpr std::uint64_t kRegistryOn = FTCORBA_METRICS_ENABLED;

std::uint64_t registry_total(const std::string& name) {
  for (const Sample& s : snapshot()) {
    if (s.name == name) return s.counter;
  }
  return 0;
}

TEST(Counter, InstancesOfOneNameKeepTheirOwnTallies) {
  Counter a("t_counter_tally_total", "help", "events", "test");
  Counter b("t_counter_tally_total", "help", "events", "test");
  a.add();
  a.add(4);
  b.add(2);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 2u);
  EXPECT_EQ(registry_total("t_counter_tally_total"), 7u * kRegistryOn)
      << "the registry counter holds the sum";
}

TEST(Counter, ResetAllZeroesTheRegistryNotTheTallies) {
  Counter c("t_counter_reset_total", "help", "events", "test");
  c.add(3);
  reset_all();
  EXPECT_EQ(c.value(), 3u);
  EXPECT_EQ(registry_total("t_counter_reset_total"), 0u);
  c.add();
  EXPECT_EQ(c.value(), 4u);
  EXPECT_EQ(registry_total("t_counter_reset_total"), 1u * kRegistryOn);
}

TEST(Counter, DefaultConstructedRegistersNothing) {
  const std::size_t registered = snapshot().size();
  Counter c;
  c.add(9);
  EXPECT_EQ(c.value(), 9u);
  EXPECT_EQ(snapshot().size(), registered);
}

// Any thread may read a Counter while its one writer adds to it
// (docs/METRICS.md); the TSan CI job runs this to check that the read is
// race-free.
TEST(Counter, ValueIsReadableWhileItsWriterAdds) {
  constexpr std::uint64_t kAdds = 100000;
  Counter c("t_counter_concurrent_read_total", "help", "events", "test");
  std::thread writer([&c] {
    for (std::uint64_t i = 0; i < kAdds; ++i) c.add();
  });
  std::uint64_t last = 0;
  while (last < kAdds) {
    const std::uint64_t now = c.value();
    EXPECT_GE(now, last) << "a single writer's tally never goes back";
    last = now;
  }
  writer.join();
  EXPECT_EQ(c.value(), kAdds);
  EXPECT_EQ(registry_total("t_counter_concurrent_read_total"), kAdds * kRegistryOn);
}

// ---- Gauge: a per-instance share of the shared gauge ------------------------

std::int64_t registry_level(const std::string& name) {
  for (const Sample& s : snapshot()) {
    if (s.name == name) return s.gauge;
  }
  return 0;
}

constexpr std::int64_t kGaugeOn = FTCORBA_METRICS_ENABLED;

TEST(Gauge, InstancesKeepTheirOwnValuesWhileTheRegistryHoldsTheSum) {
  Gauge a("t_gauge_sum", "help", "items", "test");
  Gauge b("t_gauge_sum", "help", "items", "test");
  a.add(5);
  a.add(-2);
  b.set(4);
  b.set(6);
  EXPECT_EQ(a.value(), 3);
  EXPECT_EQ(b.value(), 6);
  EXPECT_EQ(registry_level("t_gauge_sum"), 9 * kGaugeOn);
}

TEST(Gauge, DestructionReturnsTheShare) {
  Gauge kept("t_gauge_destroy", "help", "items", "test");
  kept.add(2);
  {
    Gauge gone("t_gauge_destroy", "help", "items", "test");
    gone.add(7);
    EXPECT_EQ(registry_level("t_gauge_destroy"), 9 * kGaugeOn);
  }
  EXPECT_EQ(registry_level("t_gauge_destroy"), 2 * kGaugeOn);
  EXPECT_EQ(kept.value(), 2);
}

TEST(Gauge, MoveAssignmentReturnsTheOldShareAndMovesTheNewOne) {
  Gauge target("t_gauge_move_old", "help", "items", "test");
  target.add(4);
  Gauge source("t_gauge_move_new", "help", "items", "test");
  source.add(3);
  target = std::move(source);
  EXPECT_EQ(registry_level("t_gauge_move_old"), 0) << "the overwritten share came back";
  EXPECT_EQ(registry_level("t_gauge_move_new"), 3 * kGaugeOn);
  EXPECT_EQ(target.value(), 3);
  target.add(1);
  EXPECT_EQ(registry_level("t_gauge_move_new"), 4 * kGaugeOn);
  Gauge moved(std::move(target));
  EXPECT_EQ(moved.value(), 4);
  EXPECT_EQ(registry_level("t_gauge_move_new"), 4 * kGaugeOn) << "a move keeps the share";
}

TEST(Gauge, ResetAllZeroesTheRegistryNotTheValues) {
  Gauge g("t_gauge_reset", "help", "items", "test");
  g.add(5);
  reset_all();
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(registry_level("t_gauge_reset"), 0);
  g.add(-1);
  EXPECT_EQ(registry_level("t_gauge_reset"), -1 * kGaugeOn) << "deltas keep flowing";
}

TEST(Gauge, DefaultConstructedRegistersNothing) {
  const std::size_t registered = snapshot().size();
  {
    Gauge g;
    g.add(9);
    g.set(4);
    EXPECT_EQ(g.value(), 4);
  }
  EXPECT_EQ(snapshot().size(), registered);
}

}  // namespace
