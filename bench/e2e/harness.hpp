#pragma once
// Plumbing shared by the end-to-end benchmark's workloads: sample
// statistics, output digests, the measurement loop (repeated set-ups,
// a fixed pass of seeded rounds, extra timing rounds, the round-0
// re-run) and the per-layer attribution of a traced run.
//
// A workload is a sequence of rounds. Round r is a pure function of
// (--seed, r): its deterministic outputs fold into a digest, and its
// wall time is split into "units of work" (an epoch, an inference task,
// a serving job) whose per-unit times are the timing samples. Every
// timed metric is a median over such units, spread over the whole run,
// so a few seconds of host slowdown land in the tail, not the median.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arbiterq/qnn/executor.hpp"
#include "arbiterq/telemetry/trace.hpp"

namespace e2e {

// ---- statistics ------------------------------------------------------------

struct Tail {
  std::string label;  ///< e.g. "p99"; empty when fewer than 20 samples
  double value = 0.0;
};

/// A timing sample set: median, quartiles (as Python's
/// statistics.quantiles(v, n=4) computes them, so compare.py reads
/// spreads identically), and the highest of p50, p75, p90, p95, p99,
/// p99.9 that still has at least 10 samples beyond it (nearest rank).
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  Tail tail;
  std::size_t n = 0;
};

/// FNV-1a over the exact bit patterns of a round's deterministic outputs.
class Digest {
 public:
  void add(double x);
  void add(std::uint64_t x);
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Seed of one input stream: a pure function of (--seed, stream tag,
/// round, part), independent of anything under src/.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag,
                          std::uint64_t round = 0, std::uint64_t part = 0);

double now_s();

// ---- workload interface ----------------------------------------------------

struct Options {
  std::uint64_t seed = 1;
  /// Keep adding timing rounds after the fixed pass until this long has
  /// passed since the first set-up began (0 = the fixed pass only).
  double seconds = 0.0;
  bool smoke = false;  ///< 1/10 of the fixed pass
  bool traced = false;
};

/// One round's outputs.
struct Round {
  std::uint64_t digest = 0;
  double units = 0.0;            ///< units of work done
  std::vector<double> unit_ms;   ///< wall ms per unit (timing samples)
  /// The timed stretches, on the trace clock (trace_now_ns): traced runs
  /// attribute only spans that start inside them.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
  /// Deterministic outputs pooled across the pass (e.g. per-job losses).
  std::map<std::string, std::vector<double>> values;
  /// Tallies summed over rounds (e.g. gradient messages, shard stats).
  std::map<std::string, double> counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool finite = true;     ///< every loss is finite
  bool accounted = true;  ///< serving: every job reached a terminal state
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
  bool det = false;    ///< deterministic: repeats bit for bit per seed
  std::optional<Summary> timing;
};

/// A timed metric: the median of `samples`, with its spread.
Metric timed(const char* name, const char* unit, const char* better,
             const std::vector<double>& samples);
/// A deterministic metric.
Metric det(const std::string& name, double value, const char* unit,
           const char* better);

struct Output {
  std::string name;
  std::string why;
  std::string args;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced).
  std::vector<Metric> metrics;
  /// The per-workload names behind each end-to-end metric (epoch_ms,
  /// jobs_per_s, vlat_p99_ms.l80, ...): printed and saved, not gated.
  std::vector<Metric> detail;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Traced runs: per-unit span table.
  std::string profile;
  /// Traced runs: the first traced round's events (for --trace-out).
  std::vector<arbiterq::telemetry::TraceEvent> trace;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build everything from scratch (timed; repeated for setup_s).
  virtual void setup() = 0;
  /// Rounds in the fixed pass (already scaled for --smoke).
  virtual std::size_t rounds() const = 0;
  /// Run round r. A pure function of (seed, r) for everything but time.
  virtual Round run(std::size_t r) = 0;
  /// Serving worker threads that run while the main thread sits in an
  /// "e2e.serve.drain" span (0 = the work stays on the main thread).
  virtual int workers() const { return 0; }
  /// Executor whose compiled plan the traced run times directly.
  virtual const arbiterq::qnn::QnnExecutor& probe_executor() const = 0;
  /// End-to-end metrics and their per-workload details from the fixed
  /// pass (`pass`) and every timing sample of the run (`unit_ms`).
  virtual void report(const std::vector<Round>& pass,
                      const std::vector<double>& unit_ms,
                      Output& out) const = 0;
};

/// Set up, measure and check one workload. Untraced: end-to-end
/// metrics. Traced: per-layer metrics from alternating traced and
/// untraced rounds.
void measure(Workload& w, const Options& opt, Output& out);

/// One benchmark workload: its name, why it exists, what it runs, and a
/// factory bound to the run's options (workloads.cpp).
struct WorkloadInfo {
  const char* name;
  const char* why;
  const char* args;
  std::unique_ptr<Workload> (*make)(const Options&);
};
const std::vector<WorkloadInfo>& workload_table();

// ---- JSON ------------------------------------------------------------------

/// Shortest round-trip decimal; non-finite values become null.
std::string json_number(double x);
std::string json_string(const std::string& s);

}  // namespace e2e
