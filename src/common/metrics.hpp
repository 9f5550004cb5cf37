// metrics.hpp — protocol-wide observability: a process-global registry of
// counters, gauges and fixed-bucket latency histograms.
//
// Design rules (docs/METRICS.md is the user-facing reference):
//
//   * Hot path is lock-free. Call sites hold a small value-type handle
//     (CounterHandle / GaugeHandle / HistogramHandle) obtained once at
//     construction time, or own a Counter / Gauge where each instance's
//     own count or level is read too; add()/observe() are relaxed atomic
//     operations. Registration and snapshot/render take a mutex (cold
//     paths only).
//   * Instruments are identified by name and shared: every Rmp instance in
//     the process increments the same ftmp_rmp_* counters, so a snapshot
//     aggregates a whole simulated fleet (exactly what the benches report).
//   * Zero cost when disabled. Building with FTMP_METRICS=OFF (CMake)
//     defines FTCORBA_METRICS_ENABLED=0 and every API below becomes an
//     inline no-op (a Counter or Gauge keeps only its own value); the
//     registry implementation (metrics.cpp) compiles to an empty TU.
//     tools/check_metrics_off.cmake asserts this with nm.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef FTCORBA_METRICS_ENABLED
#define FTCORBA_METRICS_ENABLED 1
#endif

namespace ftcorba::metrics {

/// Instrument kinds, Prometheus-compatible.
enum class Type : std::uint8_t { kCounter, kGauge, kHistogram };

/// One instrument's value as captured by snapshot(). For histograms,
/// `buckets[i]` counts observations in (bounds[i-1], bounds[i]] and
/// buckets.back() counts the overflow (+Inf) bucket, so
/// buckets.size() == bounds.size() + 1 and count == sum of buckets.
struct Sample {
  std::string name;
  std::string help;
  std::string unit;
  std::string layer;
  Type type{};
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Default fixed bucket boundaries for latency histograms, in milliseconds.
[[nodiscard]] inline std::vector<double> latency_buckets_ms() {
  return {0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 5000};
}

/// Default boundaries for Lamport-timestamp-gap histograms (unit: timestamp
/// ticks with Lamport clocks, nanoseconds with synchronized clocks).
[[nodiscard]] inline std::vector<double> timestamp_gap_buckets() {
  return {1, 2, 5, 10, 25, 50, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};
}

#if FTCORBA_METRICS_ENABLED

namespace detail {
struct CounterCell {
  std::atomic<std::uint64_t> v{0};
};
struct GaugeCell {
  std::atomic<std::int64_t> v{0};
};
struct HistogramCell {
  explicit HistogramCell(std::vector<double> b)
      : bounds(std::move(b)), buckets(bounds.size() + 1) {}
  const std::vector<double> bounds;              // ascending upper bounds
  std::vector<std::atomic<std::uint64_t>> buckets;  // bounds.size() + 1 (+Inf)
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
};
}  // namespace detail

/// Value-type handle to a registered counter; cheap to copy, never owns.
class CounterHandle {
 public:
  CounterHandle() = default;
  explicit CounterHandle(detail::CounterCell* c) : c_(c) {}
  void add(std::uint64_t n = 1) {
    if (c_) c_->v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return c_ ? c_->v.load(std::memory_order_relaxed) : 0;
  }

 private:
  detail::CounterCell* c_ = nullptr;
};

/// Value-type handle to a registered gauge. Gauges are process-wide
/// aggregates: instances contribute deltas via add() (or set() when there
/// is a single writer).
class GaugeHandle {
 public:
  GaugeHandle() = default;
  explicit GaugeHandle(detail::GaugeCell* g) : g_(g) {}
  void add(std::int64_t delta) {
    if (g_) g_->v.fetch_add(delta, std::memory_order_relaxed);
  }
  void set(std::int64_t v) {
    if (g_) g_->v.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return g_ ? g_->v.load(std::memory_order_relaxed) : 0;
  }

 private:
  detail::GaugeCell* g_ = nullptr;
};

/// Value-type handle to a registered fixed-bucket histogram.
class HistogramHandle {
 public:
  HistogramHandle() = default;
  explicit HistogramHandle(detail::HistogramCell* h) : h_(h) {}
  void observe(double v) {
    if (!h_) return;
    std::size_t i = 0;
    while (i < h_->bounds.size() && v > h_->bounds[i]) ++i;
    h_->buckets[i].fetch_add(1, std::memory_order_relaxed);
    h_->count.fetch_add(1, std::memory_order_relaxed);
    h_->sum.fetch_add(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    return h_ ? h_->count.load(std::memory_order_relaxed) : 0;
  }
  [[nodiscard]] double sum() const {
    return h_ ? h_->sum.load(std::memory_order_relaxed) : 0.0;
  }

 private:
  detail::HistogramCell* h_ = nullptr;
};

/// Registers (or finds) a counter. Re-registering an existing name returns
/// a handle to the same instrument; a name already registered under a
/// different type yields an inert handle (never crashes a hot path).
CounterHandle counter(std::string_view name, std::string_view help,
                      std::string_view unit, std::string_view layer);
GaugeHandle gauge(std::string_view name, std::string_view help,
                  std::string_view unit, std::string_view layer);
HistogramHandle histogram(std::string_view name, std::string_view help,
                          std::string_view unit, std::string_view layer,
                          std::vector<double> bounds);

/// Zeroes every registered instrument (instruments stay registered; handles
/// stay valid). Benches call this between workload rows.
void reset_all();

/// Consistent point-in-time copy of every registered instrument, in
/// registration order.
[[nodiscard]] std::vector<Sample> snapshot();

/// Prometheus text exposition format (HELP/TYPE + values, histograms with
/// cumulative le="..." buckets).
[[nodiscard]] std::string render_prometheus();

/// JSON array of instrument objects (one per Sample).
[[nodiscard]] std::string render_json();

#else  // !FTCORBA_METRICS_ENABLED — inline no-op stubs, same API surface.

class CounterHandle {
 public:
  void add(std::uint64_t = 1) {}
  [[nodiscard]] std::uint64_t value() const { return 0; }
};

class GaugeHandle {
 public:
  void add(std::int64_t) {}
  void set(std::int64_t) {}
  [[nodiscard]] std::int64_t value() const { return 0; }
};

class HistogramHandle {
 public:
  void observe(double) {}
  [[nodiscard]] std::uint64_t count() const { return 0; }
  [[nodiscard]] double sum() const { return 0.0; }
};

inline CounterHandle counter(std::string_view, std::string_view,
                             std::string_view, std::string_view) {
  return {};
}
inline GaugeHandle gauge(std::string_view, std::string_view, std::string_view,
                         std::string_view) {
  return {};
}
inline HistogramHandle histogram(std::string_view, std::string_view,
                                 std::string_view, std::string_view,
                                 std::vector<double>) {
  return {};
}
inline void reset_all() {}
[[nodiscard]] inline std::vector<Sample> snapshot() { return {}; }
[[nodiscard]] inline std::string render_prometheus() { return {}; }
[[nodiscard]] inline std::string render_json() { return {}; }

#endif  // FTCORBA_METRICS_ENABLED

/// A counted event with a per-instance tally: add() adds to this object's
/// own tally and to the shared registry counter of its name, so value()
/// is this instance's count while a snapshot sums every instance. A
/// default-constructed Counter registers nothing and only tallies; with
/// metrics compiled out every Counter is its tally alone. reset_all()
/// zeroes the registry, not the tallies.
///
/// One thread adds; any thread may read value(). The tally is a relaxed
/// atomic that add() updates with a plain load and store, so the writer
/// pays no locked read-modify-write for it.
class Counter {
 public:
  Counter() = default;
  Counter(std::string_view name, std::string_view help, std::string_view unit,
          std::string_view layer)
      : shared_(counter(name, help, unit, layer)) {}
  Counter(Counter&& other) noexcept : tally_(other.value()), shared_(other.shared_) {}
  Counter& operator=(Counter&& other) noexcept {
    tally_.store(other.value(), std::memory_order_relaxed);
    shared_ = other.shared_;
    return *this;
  }
  void add(std::uint64_t n = 1) {
    tally_.store(value() + n, std::memory_order_relaxed);
    shared_.add(n);
  }
  [[nodiscard]] std::uint64_t value() const {
    return tally_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> tally_{0};
  [[no_unique_address]] CounterHandle shared_;
};

/// A level this instance owns a share of: add() and set() change this
/// object's own value and push the same delta to the shared registry gauge
/// of its name, so value() is this instance's level while a snapshot sums
/// every instance. Destruction and move-assignment hand back whatever share
/// remains, so a dropped owner never leaves the gauge elevated. Move-only;
/// a default-constructed Gauge registers nothing; with metrics compiled out
/// every Gauge is its value alone. reset_all() zeroes the registry, not the
/// values.
class Gauge {
 public:
  Gauge() = default;
  Gauge(std::string_view name, std::string_view help, std::string_view unit,
        std::string_view layer)
      : shared_(gauge(name, help, unit, layer)) {}
  Gauge(Gauge&& other) noexcept
      : value_(std::exchange(other.value_, 0)), shared_(other.shared_) {}
  Gauge& operator=(Gauge&& other) noexcept {
    if (this != &other) {
      set(0);
      value_ = std::exchange(other.value_, 0);
      shared_ = other.shared_;
    }
    return *this;
  }
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;
  ~Gauge() { set(0); }

  void add(std::int64_t delta) {
    value_ += delta;
    shared_.add(delta);
  }
  void set(std::int64_t v) {
    if (v != value_) add(v - value_);
  }
  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
  [[no_unique_address]] GaugeHandle shared_;
};

}  // namespace ftcorba::metrics
