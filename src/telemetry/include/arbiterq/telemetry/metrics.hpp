#pragma once
// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms. Increments are lock-free (relaxed atomics); registration is
// mutex-guarded and returns stable references, so hot paths pay one
// registry lookup at first use (the AQ_* macros cache it in a
// function-local static) and a relaxed atomic op thereafter.
//
// Naming convention: `subsystem.verb.noun`, e.g. `sim.apply.gate1q`,
// `transpile.compile.calls`, `core.train.epochs`.
//
// The registry survives `reset_values()` with all registrations intact —
// references handed out earlier stay valid forever; only the values are
// zeroed. Entries are never removed.
//
// The instrumentation macros below are gated by the runtime switch
// (telemetry_runtime_enabled): with it off, a macro site costs one
// relaxed atomic load and a branch.

#include <cstdint>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace arbiterq::telemetry {

namespace detail {
/// -1 = uninitialized (read ARBITERQ_TELEMETRY env var on first use),
/// 0 = disabled, 1 = enabled.
extern std::atomic<signed char> g_runtime_state;
bool runtime_enabled_slow() noexcept;
}  // namespace detail

/// Runtime master switch for the AQ_* macros and ScopedSpan recording.
/// First use reads the ARBITERQ_TELEMETRY environment variable — "0",
/// "off" or "false" (any case) disable, anything else (or unset)
/// enables. Explicit TraceBuffer::record / Counter::add calls are NOT
/// gated — only the ambient macro sites.
inline bool telemetry_runtime_enabled() noexcept {
  const signed char s =
      detail::g_runtime_state.load(std::memory_order_relaxed);
  return s >= 0 ? s != 0 : detail::runtime_enabled_slow();
}

/// Override the environment-derived state (takes effect immediately on
/// every thread; pending spans opened while enabled still record).
void set_telemetry_runtime_enabled(bool enabled) noexcept;

class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  /// CAS loop (std::atomic<double>::fetch_add is not portable enough).
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `upper_bounds` are the inclusive bucket tops in
/// ascending order; one implicit +inf bucket is appended. observe() is a
/// linear scan over the (few) bounds plus relaxed atomic increments.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  const std::vector<double>& upper_bounds() const noexcept { return bounds_; }
  /// bounds().size() + 1 entries, last = overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> bucket_counts;  ///< bounds + overflow
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Quantile estimate by linear interpolation inside the target bucket
  /// (the Prometheus histogram_quantile rule): the rank q*count lands in
  /// some bucket; the estimate interpolates between that bucket's lower
  /// and upper bound assuming uniform density. The first bucket's lower
  /// bound is taken as 0 when its top is positive (latency-style
  /// histograms), otherwise as the top itself (no interpolation).
  /// Observations in the overflow bucket clamp to the highest finite
  /// bound — a known, documented bias of bucketed quantiles. Returns NaN
  /// when the histogram is empty; q is clamped to [0, 1].
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
};

/// Point-in-time copy of the whole registry, name-sorted within each kind.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

class MetricsRegistry {
 public:
  /// The process-wide registry the AQ_* macros feed.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under `name`, creating it on first
  /// use. The reference stays valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Throws std::invalid_argument if `name` was registered before with
  /// different bounds, or if bounds are empty / not strictly ascending.
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& upper_bounds);

  MetricsSnapshot snapshot() const;
  /// Zero every value, keeping all registrations (and references) alive.
  void reset_values();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Default latency buckets (microseconds): 1us .. 10s, roughly 1-2-5.
const std::vector<double>& latency_buckets_us();

}  // namespace arbiterq::telemetry

#define AQ_COUNTER_ADD(name, delta)                                        \
  do {                                                                     \
    if (::arbiterq::telemetry::telemetry_runtime_enabled()) {              \
      static ::arbiterq::telemetry::Counter& aq_telemetry_ctr =            \
          ::arbiterq::telemetry::MetricsRegistry::global().counter(name);  \
      aq_telemetry_ctr.add(delta);                                         \
    }                                                                      \
  } while (0)

#define AQ_GAUGE_SET(name, value)                                          \
  do {                                                                     \
    if (::arbiterq::telemetry::telemetry_runtime_enabled()) {              \
      static ::arbiterq::telemetry::Gauge& aq_telemetry_gauge =            \
          ::arbiterq::telemetry::MetricsRegistry::global().gauge(name);    \
      aq_telemetry_gauge.set(value);                                       \
    }                                                                      \
  } while (0)

#define AQ_HISTOGRAM_OBSERVE(name, upper_bounds, value)                    \
  do {                                                                     \
    if (::arbiterq::telemetry::telemetry_runtime_enabled()) {              \
      static ::arbiterq::telemetry::Histogram& aq_telemetry_histo =        \
          ::arbiterq::telemetry::MetricsRegistry::global().histogram(      \
              name, upper_bounds);                                         \
      aq_telemetry_histo.observe(value);                                   \
    }                                                                      \
  } while (0)

