#pragma once
// Windowed time-series over the metrics registry: the history layer the
// point-in-time surfaces (Prometheus scrape, SLO burn, health table)
// lack. A TimeSeriesStore folds observations into fixed-width windows
// keyed by floor(t / window_us), keeping at most `max_windows` windows
// per series (ring retention: oldest window evicted first), so memory is
// bounded by max_series × max_windows × sizeof(window) (+ one bucket
// vector per histogram window).
//
// Two ingestion paths feed the same store:
//
//  * sample(snapshot, t): the Collector thread calls this on a fixed
//    cadence with a full MetricsRegistry snapshot. Cumulative counters
//    and histogram buckets are differenced against the previous sample
//    (counter -> per-window delta/rate, histogram -> per-window bucket
//    deltas with p50/p99), gauges keep last/min/max per window. This is
//    the real-time path for live serving.
//
//  * observe(series, t, value): direct event ingestion at a
//    caller-supplied timestamp. The serving runtime uses this with
//    *modeled virtual* timestamps that are pure functions of the
//    admitted job sequence, so the resulting series is bit-identical
//    across runs regardless of thread interleaving: every per-window
//    aggregate emitted for event/histogram series (count, bucket
//    deltas, min, max) is order-independent, and sums are only emitted
//    for unit-valued events where FP addition cannot reorder-drift.
//    Bit-identity holds as long as a series' active span fits inside
//    the retention ring; once eviction kicks in, which windows survive
//    can depend on arrival order.
//
// Thread safety: the store-level series map has its own mutex; each
// series carries a private mutex so concurrent writers to *different*
// series never contend. Callers on hot paths should resolve a Series*
// handle once (series()) and then observe() through it.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <condition_variable>
#include <vector>

#include "arbiterq/telemetry/metrics.hpp"

namespace arbiterq::telemetry {

struct TimeSeriesConfig {
  /// Window width in the ingesting clock's microseconds (wall us for the
  /// Collector, modeled virtual us for the serving runtime's event path).
  double window_us = 1'000'000.0;
  /// Ring retention: windows kept per series; the oldest is evicted when
  /// a newer window would exceed this.
  std::size_t max_windows = 64;
  /// Cap on distinct series; observations for series past the cap are
  /// counted in dropped_series() and otherwise ignored.
  std::size_t max_series = 4096;
};

enum class SeriesKind : std::uint8_t {
  kCounterRate,  ///< sampled cumulative counter, folded to per-window deltas
  kGauge,        ///< sampled gauge, last/min/max per window
  kHistogram,    ///< bucketed values: per-window bucket deltas, p50/p99
  kEvent,        ///< direct events: count/rate, sum, min/max per window
};

const char* series_kind_name(SeriesKind kind) noexcept;

/// One closed or filling window of a series (copied out by snapshot()).
struct SeriesWindow {
  std::int64_t index = 0;    ///< floor(t / window_us)
  std::uint64_t samples = 0; ///< registry samples or events folded in
  double delta = 0.0;        ///< counter increase within the window
  double last = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;              ///< histogram/event observations
  std::vector<std::uint64_t> buckets;   ///< histogram kinds only
};

struct SeriesSnapshot {
  std::string name;
  SeriesKind kind = SeriesKind::kEvent;
  double window_us = 0.0;
  std::vector<double> upper_bounds;  ///< histogram kinds only
  std::vector<SeriesWindow> windows; ///< ascending by index

  /// Per-window rate: counter delta (or event count) per *second* of
  /// series time.
  double rate(std::size_t i) const;
  /// Window quantile for histogram kinds (NaN otherwise / when empty).
  double quantile(std::size_t i, double q) const;
};

class TimeSeriesStore {
 public:
  class Series;

  explicit TimeSeriesStore(TimeSeriesConfig cfg = {});
  ~TimeSeriesStore();

  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  const TimeSeriesConfig& config() const noexcept { return cfg_; }

  /// Resolve (creating on first use) the series registered under `name`.
  /// The handle stays valid for the store's lifetime. Returns nullptr
  /// when the series cap is hit (the drop is counted), or throws
  /// std::invalid_argument when `name` exists with a different kind or
  /// bounds. `upper_bounds` is required for kHistogram and must be
  /// strictly ascending.
  Series* series(const std::string& name, SeriesKind kind,
                 const std::vector<double>& upper_bounds = {});

  /// Record one event at time `t_us` into a previously resolved series.
  /// For kEvent: count += 1, sum += value, min/max fold. For kHistogram:
  /// the value is additionally bucketed. Null `s` is ignored (cap-dropped
  /// series), so hot paths need no branch.
  void observe(Series* s, double t_us, double value);
  /// Convenience: resolve-and-observe an event series by name.
  void observe(const std::string& name, double t_us, double value);

  /// Fold a full registry snapshot taken at time `t_us`: counters and
  /// histograms are differenced against the previous sample (a value
  /// decrease is treated as a registry reset and folded as-is), gauges
  /// keep last/min/max. Intended to be called from a single sampler
  /// thread (the Collector).
  void sample(const MetricsSnapshot& snap, double t_us);

  /// Copy out every series whose name contains `filter` (all when
  /// empty), windows ascending, series name-sorted.
  std::vector<SeriesSnapshot> snapshot(const std::string& filter = {}) const;

  /// Stable JSON document for /timeseries and BENCH artifacts:
  /// {"window_us":..,"series":[{"name":..,"kind":..,"windows":[..]}]}.
  /// Only order-independent fields are emitted for histogram windows
  /// (count/min/max/p50/p99), keeping virtual-clock series bit-stable.
  std::string to_json(const std::string& filter = {}) const;

  std::size_t series_count() const;
  std::uint64_t dropped_series() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  TimeSeriesConfig cfg_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Series>> series_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// Background sampler: snapshots a MetricsRegistry on a fixed cadence
/// and folds it into a TimeSeriesStore. The clock is pluggable — wall
/// microseconds by default, a virtual/bench clock under test — and an
/// optional pre_sample hook runs before each snapshot so callers can
/// publish derived gauges (per-shard ShardStats) into the registry
/// first; post_sample runs after the fold (watchdog polls).
///
/// Overhead budget: one registry snapshot (a mutex-guarded copy of every
/// entry) plus one store fold per cadence tick, independent of job
/// throughput. At the default 250ms cadence with a few hundred metrics
/// this is well under 0.1% of a core (see DESIGN.md §Time-series
/// telemetry).
struct CollectorOptions {
  double cadence_us = 250'000.0;
  /// Sample clock in microseconds; defaults to a steady wall clock.
  std::function<double()> clock;
  std::function<void()> pre_sample;
  std::function<void()> post_sample;
};

class Collector {
 public:
  using Options = CollectorOptions;

  Collector(TimeSeriesStore& store, MetricsRegistry& registry,
            Options opts = {});
  /// Stops the thread if running.
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void start();
  void stop();
  bool running() const noexcept { return running_; }

  /// One synchronous sample on the caller's thread (usable without
  /// start(); also taken once by stop() so short runs always close with
  /// a final sample).
  void collect_once();

  std::uint64_t samples() const noexcept {
    return samples_.load(std::memory_order_relaxed);
  }

 private:
  void run();

  TimeSeriesStore& store_;
  MetricsRegistry& registry_;
  Options opts_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;
  std::atomic<std::uint64_t> samples_{0};
};

/// Monotonic wall clock in microseconds (the Collector's default clock).
double steady_now_us();

}  // namespace arbiterq::telemetry
