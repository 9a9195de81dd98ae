// The five workloads. Each drives only public APIs of core, qnn, serve
// and telemetry, and generates every input from --seed with
// std::mt19937_64 streams (derive_seed), never with the program's own
// generators, so a change under src/ cannot change the workload.
//
// Timed calls into the program are wrapped in "e2e.<layer>.<call>"
// spans; they are inert unless the traced run switches telemetry on.

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>

#include "arbiterq/core/scheduler.hpp"
#include "arbiterq/core/torus.hpp"
#include "arbiterq/core/trainers.hpp"
#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/serve/fault_injector.hpp"
#include "arbiterq/serve/runtime.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/sink.hpp"
#include "harness.hpp"

namespace e2e {
namespace {

namespace aq = arbiterq;
using aq::telemetry::ScopedSpan;

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()) - 1e-9));
  return v[std::clamp<std::size_t>(k, 1, v.size()) - 1];
}

std::vector<double> values_of(const std::vector<Round>& rounds,
                              const std::string& key) {
  std::vector<double> out;
  for (const Round& r : rounds) {
    const auto it = r.values.find(key);
    if (it != r.values.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  return out;
}

double count_of(const std::vector<Round>& rounds, const std::string& key) {
  double total = 0.0;
  for (const Round& r : rounds) {
    const auto it = r.counts.find(key);
    if (it != r.counts.end()) total += it->second;
  }
  return total;
}

std::vector<double> inverted(const std::vector<double>& ms_per_unit) {
  std::vector<double> out;
  out.reserve(ms_per_unit.size());
  for (double ms : ms_per_unit) out.push_back(ms > 0.0 ? 1e3 / ms : 0.0);
  return out;
}

// ---- training ---------------------------------------------------------------

/// Stamps the end of each epoch (the trainer reports every QPU's record
/// after the epoch's evaluation barrier, QPU 0 first) and keeps the
/// parameter-shift shot estimates the modeled time is priced from.
class EpochClock final : public aq::telemetry::TrainingTelemetry {
 public:
  void on_epoch(const aq::telemetry::EpochQpuRecord& rec) override {
    if (rec.qpu == 0) {
      ends.push_back(now_s());
      shots.emplace_back();
    }
    shots.back().push_back(static_cast<double>(rec.shots_estimate));
  }
  void on_assignment(const aq::telemetry::AssignmentRecord&) override {}

  std::vector<double> ends;
  std::vector<std::vector<double>> shots;  ///< [epoch][qpu]
};

struct TrainCase {
  aq::data::BenchmarkCase bc;
  int epochs = 0;
  std::size_t max_test = 0;
  bool mitigate = false;
  std::size_t seeds = 0;  ///< training runs in the fixed pass
  /// Round 0 trains with Table I's own seed and alone defines the
  /// quality metrics: across seeds this row's converged loss spreads
  /// from 0.06 to 0.20, so seeded runs are timed but not gated.
  bool reference_quality = false;
  std::uint64_t tag = 0;
};

class TrainWorkload final : public Workload {
 public:
  TrainWorkload(TrainCase c, const Options& opt)
      : c_(std::move(c)), opt_(opt) {}

  void setup() override {
    split_ = aq::data::prepare_case(c_.bc);
    if (split_.test_features.size() > c_.max_test) {
      split_.test_features.resize(c_.max_test);
      split_.test_labels.resize(c_.max_test);
    }
    model_.emplace(aq::qnn::Backbone::kCRz, c_.bc.num_qubits,
                   c_.bc.num_layers);
    fleet_ = aq::device::table3_fleet(c_.bc.num_qubits);
    trainer_.emplace(*model_, fleet_, config(0));
  }

  std::size_t rounds() const override {
    return opt_.smoke ? std::max<std::size_t>(1, c_.seeds / 10) : c_.seeds;
  }

  Round run(std::size_t r) override {
    std::optional<aq::core::DistributedTrainer> trainer;
    {
      ScopedSpan span("e2e.core.trainer");
      trainer.emplace(*model_, fleet_, config(r));
    }
    EpochClock clock;
    Round out;
    const std::uint64_t window_start = aq::telemetry::trace_now_ns();
    const double start = now_s();
    aq::core::TrainResult res;
    {
      ScopedSpan span("e2e.core.train");
      res = trainer->train(aq::core::Strategy::kArbiterQ, split_, &clock);
    }
    out.windows.emplace_back(window_start, aq::telemetry::trace_now_ns());

    double prev = start;
    for (double end : clock.ends) {
      out.unit_ms.push_back((end - prev) * 1e3);
      prev = end;
    }
    out.units = static_cast<double>(res.epoch_test_loss.size());
    out.attempted = res.epoch_test_loss.size();
    Digest d;
    for (double l : res.epoch_test_loss) {
      d.add(l);
      if (!std::isfinite(l)) ++out.failed;
    }
    out.finite = out.failed == 0 && std::isfinite(res.convergence.loss);
    for (const auto& w : res.weights) {
      for (double x : w) d.add(x);
    }
    d.add(static_cast<std::uint64_t>(res.convergence.epoch));
    d.add(res.convergence.loss);
    out.digest = d.value();

    // Modeled QPU time to the converged model: per epoch the fleet waits
    // for its slowest node's parameter-shift shots.
    double modeled_us = 0.0;
    for (int e = 0; e < res.convergence.epoch &&
                    static_cast<std::size_t>(e) < clock.shots.size();
         ++e) {
      double slowest = 0.0;
      for (std::size_t q = 0; q < clock.shots[e].size(); ++q) {
        slowest = std::max(slowest, clock.shots[e][q] *
                                        trainer->executors()[q]
                                            .shot_latency_us());
      }
      modeled_us += slowest;
    }
    out.values["converged_loss"] = {res.convergence.loss};
    out.values["converge_epoch"] = {
        static_cast<double>(res.convergence.epoch)};
    out.values["converged"] = {res.convergence.epoch < c_.epochs ? 1.0 : 0.0};
    out.values["modeled_ms"] = {modeled_us / 1e3};
    out.counts["core.gradient_messages"] =
        static_cast<double>(res.gradient_messages);
    out.counts["epochs"] = out.units;
    return out;
  }

  const aq::qnn::QnnExecutor& probe_executor() const override {
    return trainer_->executors().front();
  }

  void report(const std::vector<Round>& pass,
              const std::vector<double>& unit_ms,
              Output& out) const override {
    const std::vector<Round> quality =
        c_.reference_quality ? std::vector<Round>{pass.front()} : pass;
    const double loss = mean(values_of(quality, "converged_loss"));
    const double modeled = mean(values_of(quality, "modeled_ms"));
    const double ok = mean(values_of(quality, "converged"));
    out.metrics.push_back(timed("unit_ms", "ms", "lower", unit_ms));
    out.metrics.push_back(det("loss_mse", loss, "MSE", "lower"));
    out.metrics.push_back(det("modeled_qpu_ms", modeled, "qpu_ms", "lower"));
    out.metrics.push_back(det("ok_frac", ok, "fraction", "higher"));

    out.detail.push_back(timed("epoch_ms", "ms", "lower", unit_ms));
    out.detail.push_back(det("converge_epoch",
                             mean(values_of(quality, "converge_epoch")),
                             "epochs", "lower"));
    out.detail.push_back(det("converged_loss", loss, "MSE", "lower"));
    out.detail.push_back(
        det("modeled_converge_ms", modeled, "ms", "lower"));
    out.detail.push_back(det("gradient_messages_per_epoch",
                             count_of(pass, "core.gradient_messages") /
                                 count_of(pass, "epochs"),
                             "count", "lower"));
  }

 private:
  aq::core::TrainConfig config(std::size_t r) const {
    aq::core::TrainConfig cfg;
    cfg.epochs = c_.epochs;
    cfg.error_mitigation = c_.mitigate;
    if (!(c_.reference_quality && r == 0)) {
      cfg.seed = derive_seed(opt_.seed, c_.tag, r);
    }
    return cfg;
  }

  TrainCase c_;
  Options opt_;
  aq::data::EncodedSplit split_;
  std::optional<aq::qnn::QnnModel> model_;
  std::vector<aq::device::Qpu> fleet_;
  std::optional<aq::core::DistributedTrainer> trainer_;
};

// ---- inference --------------------------------------------------------------

constexpr std::uint64_t kInferTag = 3;

/// Table IV: iris and wine Model-CRz on the first {6, 8, 10} Table III
/// QPUs, with the same training budgets and seed as bench_table4, so
/// the deployed weights are the table's. The seed drives the scheduler.
class InferWorkload final : public Workload {
 public:
  explicit InferWorkload(const Options& opt) : opt_(opt) {}

  void setup() override {
    cells_.clear();
    const struct {
      aq::data::BenchmarkCase bc;
      int epochs;
    } datasets[] = {{{"iris", 2, 2}, 40}, {{"wine", 4, 2}, 100}};
    for (const auto& ds : datasets) {
      const aq::data::EncodedSplit split = aq::data::prepare_case(ds.bc);
      const aq::qnn::QnnModel model(aq::qnn::Backbone::kCRz,
                                    ds.bc.num_qubits, ds.bc.num_layers);
      for (int fleet : {6, 8, 10}) {
        aq::core::TrainConfig cfg;
        cfg.epochs = ds.epochs;
        Cell& cell = cells_.emplace_back();
        cell.trainer = std::make_unique<aq::core::DistributedTrainer>(
            model,
            aq::device::table3_fleet_subset(fleet, ds.bc.num_qubits), cfg);
        cell.weights =
            cell.trainer->train(aq::core::Strategy::kArbiterQ, split).weights;
        cell.tasks =
            aq::core::make_tasks(split.test_features, split.test_labels);
      }
    }
  }

  std::size_t rounds() const override { return opt_.smoke ? 10 : 100; }

  Round run(std::size_t r) override {
    Round out;
    Digest d;
    double makespan_us = 0.0;
    const std::uint64_t window_start = aq::telemetry::trace_now_ns();
    const double start = now_s();
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      const Cell& cell = cells_[c];
      aq::core::TorusPartition partition;
      {
        ScopedSpan span("e2e.core.partition");
        partition = aq::core::build_torus_partition(
            cell.trainer->behavioral_vectors(), cell.weights);
      }
      aq::core::ScheduleConfig sc;
      sc.shots_per_task = 256;
      sc.warmup_shots = 32;
      sc.trajectories = 16;
      sc.seed = derive_seed(opt_.seed, kInferTag, r, c);
      aq::core::InferenceReport rep;
      {
        ScopedSpan span("e2e.core.infer");
        const aq::core::ShotOrientedScheduler scheduler(
            cell.trainer->executors(), cell.weights, partition, sc);
        rep = scheduler.run(cell.tasks);
      }
      for (double l : rep.per_task_loss) {
        d.add(l);
        out.values["task_loss"].push_back(l);
        if (!std::isfinite(l)) ++out.failed;
      }
      d.add(rep.makespan_us);
      makespan_us += rep.makespan_us;
      out.attempted += cell.tasks.size();
    }
    const double wall_ms = (now_s() - start) * 1e3;
    out.windows.emplace_back(window_start, aq::telemetry::trace_now_ns());
    out.units = static_cast<double>(out.attempted);
    out.unit_ms = {wall_ms / out.units};
    out.finite = out.failed == 0;
    out.digest = d.value();
    out.values["makespan_ms"] = {makespan_us / 1e3};
    out.counts["tasks"] = out.units;
    out.counts["tasks_finite"] = out.units - static_cast<double>(out.failed);
    return out;
  }

  const aq::qnn::QnnExecutor& probe_executor() const override {
    return cells_.back().trainer->executors().front();
  }

  void report(const std::vector<Round>& pass,
              const std::vector<double>& unit_ms,
              Output& out) const override {
    const double loss = mean(values_of(pass, "task_loss"));
    const double makespan = mean(values_of(pass, "makespan_ms"));
    out.metrics.push_back(timed("unit_ms", "ms", "lower", unit_ms));
    out.metrics.push_back(det("loss_mse", loss, "MSE", "lower"));
    out.metrics.push_back(
        det("modeled_qpu_ms", makespan, "qpu_ms", "lower"));
    out.metrics.push_back(det(
        "ok_frac", count_of(pass, "tasks_finite") / count_of(pass, "tasks"),
        "fraction", "higher"));

    out.detail.push_back(
        timed("tasks_per_s", "tasks/s", "higher", inverted(unit_ms)));
    out.detail.push_back(det("infer_loss", loss, "MSE", "lower"));
    out.detail.push_back(det("modeled_makespan_ms", makespan, "ms", "lower"));
  }

 private:
  struct Cell {
    std::unique_ptr<aq::core::DistributedTrainer> trainer;
    std::vector<std::vector<double>> weights;
    std::vector<aq::core::InferenceTask> tasks;
  };

  Options opt_;
  std::vector<Cell> cells_;
};

// ---- serving ----------------------------------------------------------------

struct ServeCase {
  aq::data::BenchmarkCase bc;
  int train_epochs = 0;
  int fleet = 0;  ///< 0 = the 10 Table III QPUs, else table3_fleet_cycled
  int shots = 0;
  int trajectories = 0;
  aq::serve::ArbiterKind arbiter = aq::serve::ArbiterKind::kFifo;
  bool tenants = false;  ///< interactive (weight 4) + throttled bulk
  bool dropout = false;  ///< QPU 3 drops out at job n/2 of every replay
  bool model_queue_wait = false;
  std::vector<double> loads;  ///< offered load as a share of capacity
  std::size_t jobs = 0;       ///< per staged replay
  std::size_t rounds = 0;     ///< each round replays every load once
  std::uint64_t tag = 0;
};

std::string load_key(double load) {
  return "l" + std::to_string(static_cast<int>(std::lround(load * 100)));
}

/// Staged open-loop replays: a round's arrivals are Poisson on the
/// modeled clock (JobSpec::arrival_us), submitted before the workers
/// start, then drained, so every modeled outcome is deterministic.
class ServeWorkload final : public Workload {
 public:
  ServeWorkload(ServeCase c, const Options& opt)
      : c_(std::move(c)), opt_(opt) {}

  void setup() override {
    split_ = aq::data::prepare_case(c_.bc);
    const aq::qnn::QnnModel model(aq::qnn::Backbone::kCRz,
                                  c_.bc.num_qubits, c_.bc.num_layers);
    aq::core::TrainConfig cfg;
    cfg.epochs = c_.train_epochs;
    trainer_ = std::make_unique<aq::core::DistributedTrainer>(
        model,
        c_.fleet > 0
            ? aq::device::table3_fleet_cycled(c_.fleet, c_.bc.num_qubits)
            : aq::device::table3_fleet(c_.bc.num_qubits),
        cfg);
    // A cycled fleet deploys Table III row i % 10's personalized model on
    // device i: ArbiterQ training on 64 near-duplicate devices puts them
    // in one sharing group, each node adds up to 63 peer gradients per
    // step, and training diverges (loss 0.27 against 0.04).
    std::vector<std::vector<double>> trained;
    if (c_.fleet > 0) {
      const aq::core::DistributedTrainer table3(
          model, aq::device::table3_fleet(c_.bc.num_qubits), cfg);
      trained = table3.train(aq::core::Strategy::kArbiterQ, split_).weights;
    } else {
      trained = trainer_->train(aq::core::Strategy::kArbiterQ, split_).weights;
    }
    weights_.clear();
    for (std::size_t q = 0; q < trainer_->fleet_size(); ++q) {
      weights_.push_back(trained[q % trained.size()]);
    }
    // Capacity: jobs per modeled second the whole fleet completes.
    double shot_rate = 0.0;
    for (const auto& ex : trainer_->executors()) shot_rate += ex.shot_rate();
    capacity_ = shot_rate / c_.shots;
    const aq::serve::ServingRuntime runtime(
        trainer_->executors(), weights_, trainer_->behavioral_vectors(),
        config(0));
  }

  std::size_t rounds() const override {
    return opt_.smoke ? std::max<std::size_t>(1, c_.rounds / 10) : c_.rounds;
  }

  int workers() const override { return kWorkers; }

  Round run(std::size_t r) override {
    Round out;
    Digest d;
    for (std::size_t k = 0; k < c_.loads.size(); ++k) {
      // Rotate the load order each round so no load always runs first.
      const std::size_t li = (k + r) % c_.loads.size();
      replay(r, li, out, d);
    }
    out.digest = d.value();
    return out;
  }

  const aq::qnn::QnnExecutor& probe_executor() const override {
    return trainer_->executors().front();
  }

  void report(const std::vector<Round>& pass,
              const std::vector<double>& unit_ms,
              Output& out) const override {
    const double loss = mean(values_of(pass, "loss"));
    const double ok = count_of(pass, "ok") / count_of(pass, "submitted");
    // The gated modeled latency is the p99 at the lowest offered load:
    // at 80% of capacity a few arrival bursts set the p99, which moves
    // from 80 to 130 ms across seeds; at 50% it repeats within 3%.
    const double p99_low = percentile(
        values_of(pass, "vlat." + load_key(c_.loads.front())), 0.99);
    out.metrics.push_back(timed("unit_ms", "ms", "lower", unit_ms));
    out.metrics.push_back(det("loss_mse", loss, "MSE", "lower"));
    out.metrics.push_back(det("modeled_qpu_ms", p99_low, "qpu_ms", "lower"));
    out.metrics.push_back(det("ok_frac", ok, "fraction", "higher"));

    out.detail.push_back(
        timed("jobs_per_s", "jobs/s", "higher", inverted(unit_ms)));
    out.detail.push_back(det("job_loss", loss, "MSE", "lower"));
    if (c_.tenants) {
      out.detail.push_back(
          det("throttled_frac",
              count_of(pass, "throttled") / count_of(pass, "submitted"),
              "fraction", "lower"));
    }
    double max_load_in_slo = 0.0;
    for (double load : c_.loads) {
      const std::vector<double> v =
          values_of(pass, "vlat." + load_key(load));
      const double p99 = percentile(v, 0.99);
      out.detail.push_back(det("vlat_p50_ms." + load_key(load),
                               percentile(v, 0.50), "ms", "lower"));
      out.detail.push_back(
          det("vlat_p99_ms." + load_key(load), p99, "ms", "lower"));
      if (p99 <= kSloMs) max_load_in_slo = std::max(max_load_in_slo, load);
    }
    if (c_.model_queue_wait) {
      out.detail.push_back(
          det("max_load_in_slo", max_load_in_slo, "x_capacity", "higher"));
    }
  }

 private:
  /// One shard with one worker. The process is pinned to one CPU (see
  /// main.cpp), where more workers would only time-share it; spread over
  /// CPUs, a replay with two workers waited for the slower one, and its
  /// per-job time moved by a third from run to run.
  static constexpr int kWorkers = 1;
  /// p99 modeled-latency limit behind max_load_in_slo.
  static constexpr double kSloMs = 100.0;

  aq::serve::ServeConfig config(std::uint64_t seed) const {
    aq::serve::ServeConfig sc;
    sc.shots_per_job = c_.shots;
    sc.trajectories = c_.trajectories;
    sc.queue_capacity = c_.jobs * 8;  // a staged replay never rejects
    sc.num_shards = 1;
    sc.workers_per_shard = kWorkers;
    sc.autostart = false;
    sc.model_queue_wait = c_.model_queue_wait;
    sc.gauge_cadence_us = 0.0;
    sc.arbiter = c_.arbiter;
    sc.seed = seed;
    sc.trace_sample_every =
        aq::telemetry::telemetry_runtime_enabled() ? 1 : 0;
    if (c_.tenants) {
      aq::serve::TenantSpec interactive;
      interactive.name = "interactive";
      interactive.weight = 4.0;
      aq::serve::TenantSpec bulk;
      bulk.name = "bulk";
      bulk.weight = 1.0;
      // 70% of bulk's arrival rate: throttles about 30% of bulk jobs.
      bulk.admit_rate_per_s =
          0.7 * kBulkShare * c_.loads.front() * capacity_;
      bulk.admit_burst = 4.0;
      sc.tenants = {interactive, bulk};
    }
    return sc;
  }

  void replay(std::size_t r, std::size_t li, Round& out, Digest& d) {
    const double load = c_.loads[li];
    std::mt19937_64 gen(derive_seed(opt_.seed, c_.tag, r, li));
    std::exponential_distribution<double> gap_us(load * capacity_ / 1e6);
    std::uniform_int_distribution<std::size_t> pick(
        0, split_.test_features.size() - 1);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::vector<aq::serve::JobSpec> specs(c_.jobs);
    double t_us = 0.0;
    for (aq::serve::JobSpec& spec : specs) {
      t_us += gap_us(gen);
      const std::size_t i = pick(gen);
      spec.features = split_.test_features[i];
      spec.label = split_.test_labels[i];
      spec.arrival_us = t_us;
      if (c_.tenants) {
        spec.tenant = coin(gen) < kBulkShare ? "bulk" : "interactive";
      }
    }
    aq::serve::FaultConfig faults;
    if (c_.dropout) {
      faults.dropouts.push_back({3, c_.jobs / 2});
    }
    faults.seed = gen();
    const aq::serve::FaultInjector injector(trainer_->fleet_size(), faults);
    aq::serve::ServingRuntime runtime(
        trainer_->executors(), weights_, trainer_->behavioral_vectors(),
        config(gen()), c_.dropout ? &injector : nullptr);

    const std::uint64_t window_start = aq::telemetry::trace_now_ns();
    const double start = now_s();
    for (const aq::serve::JobSpec& spec : specs) {
      ScopedSpan span("e2e.serve.submit");
      runtime.submit(spec);
    }
    {
      ScopedSpan span("e2e.serve.drain");
      runtime.start();
      runtime.drain();
    }
    const double wall_ms = (now_s() - start) * 1e3;
    out.windows.emplace_back(window_start, aq::telemetry::trace_now_ns());
    out.unit_ms.push_back(wall_ms / static_cast<double>(c_.jobs));
    out.units += static_cast<double>(c_.jobs);

    const aq::serve::ServingReport rep = runtime.report();
    std::vector<double>& vlat = out.values["vlat." + load_key(load)];
    std::vector<double>& loss = out.values["loss"];
    std::size_t pending = 0;
    for (const aq::serve::JobResult& job : runtime.results()) {
      d.add(static_cast<std::uint64_t>(job.status));
      d.add(job.probability);
      d.add(job.virtual_latency_us);
      if (job.status == aq::serve::JobStatus::kPending) ++pending;
      if (job.status != aq::serve::JobStatus::kOk) continue;
      vlat.push_back(job.virtual_latency_us / 1e3);
      loss.push_back(job.loss);
      if (!std::isfinite(job.loss)) out.finite = false;
    }
    out.accounted = out.accounted && pending == 0 &&
                    rep.submitted == rep.completed + rep.rejected +
                                         rep.expired + rep.failed;
    out.attempted += rep.submitted;
    out.failed += rep.failed + rep.expired + pending;
    out.counts["submitted"] += static_cast<double>(rep.submitted);
    out.counts["ok"] += static_cast<double>(rep.completed);
    for (const aq::serve::TenantReport& t : rep.tenants) {
      out.counts["throttled"] += static_cast<double>(t.throttled);
    }
    for (const aq::serve::ShardStats& s : rep.shards) {
      out.counts["serve.doorbell_wakeups"] +=
          static_cast<double>(s.doorbell_wakeups);
      out.counts["serve.doorbell_backstops"] +=
          static_cast<double>(s.doorbell_backstops);
    }
  }

  /// Share of serve-admission arrivals from the bulk tenant.
  static constexpr double kBulkShare = 0.75;

  ServeCase c_;
  Options opt_;
  aq::data::EncodedSplit split_;
  std::unique_ptr<aq::core::DistributedTrainer> trainer_;
  std::vector<std::vector<double>> weights_;
  double capacity_ = 0.0;
};

// ---- the table --------------------------------------------------------------

std::unique_ptr<Workload> make_train_iris(const Options& opt) {
  TrainCase c;
  c.bc = {"iris", 2, 2};
  c.epochs = 60;
  c.max_test = 100;
  c.seeds = 150;
  c.tag = 1;
  return std::make_unique<TrainWorkload>(c, opt);
}

std::unique_ptr<Workload> make_train_hmdb51(const Options& opt) {
  TrainCase c;
  c.bc = {"hmdb51", 10, 10};
  c.epochs = 14;
  c.max_test = 10;
  c.mitigate = true;
  c.seeds = 2;
  c.reference_quality = true;
  c.tag = 2;
  return std::make_unique<TrainWorkload>(c, opt);
}

std::unique_ptr<Workload> make_infer_torus(const Options& opt) {
  return std::make_unique<InferWorkload>(opt);
}

std::unique_ptr<Workload> make_serve_fleet(const Options& opt) {
  ServeCase c;
  c.bc = {"wine", 4, 2};
  c.train_epochs = 100;
  c.shots = 256;
  c.trajectories = 16;
  c.dropout = true;
  c.model_queue_wait = true;
  c.loads = {0.50, 0.80, 0.95};
  c.jobs = 250;
  c.rounds = 48;
  c.tag = 4;
  return std::make_unique<ServeWorkload>(c, opt);
}

std::unique_ptr<Workload> make_serve_admission(const Options& opt) {
  ServeCase c;
  c.bc = {"iris", 2, 2};
  c.train_epochs = 60;
  c.fleet = 64;
  c.shots = 32;
  c.trajectories = 1;
  c.arbiter = aq::serve::ArbiterKind::kWeightedCredit;
  c.tenants = true;
  c.loads = {0.80};
  c.jobs = 1000;
  c.rounds = 150;
  c.tag = 5;
  return std::make_unique<ServeWorkload>(c, opt);
}

}  // namespace

const std::vector<WorkloadInfo>& workload_table() {
  static const std::vector<WorkloadInfo> table = {
      {"train-iris",
       "2-qubit registers make every executor call overhead-bound (plan "
       "bind, workspace lease, packing); gate kernels do almost nothing",
       "Table I iris/Model-CRz on the 10 Table III QPUs, ArbiterQ, 60 "
       "epochs, 150 training seeds, serial",
       make_train_iris},
      {"train-hmdb51",
       "1024-amplitude registers: the adjoint sweep's gate kernels dominate "
       "and per-call overhead vanishes, the opposite of train-iris",
       "Table I hmdb51/Model-CRz: 10 qubits, 10 layers, 200 weights, error "
       "mitigation, 14 epochs, 10-sample test subset; Table I's seed, then "
       "1 seeded run",
       make_train_hmdb51},
      {"infer-torus",
       "The paper's inference pipeline: torus partition plus shot-split "
       "scheduling, dominated by the trajectory sampler, with no training",
       "Table IV iris and wine CRz x {6, 8, 10} QPUs; build_torus_partition "
       "+ ShotOrientedScheduler::run (256 shots, 32 warm-up, 16 "
       "trajectories); 100 rounds of scheduler seeds",
       make_infer_torus},
      {"serve-fleet",
       "Real circuit jobs through ServingRuntime with a QPU dropout; worker "
       "execution dominates while route, retry and repartition run",
       "wine CRz jobs (256 shots, 16 trajectories) on the 10 QPUs, 1 shard "
       "x 1 worker, FIFO, QPU 3 drops at job n/2; Poisson arrivals at "
       "0.50/0.80/0.95 of capacity; 48 rounds of 250 jobs per load",
       make_serve_fleet},
      {"serve-admission",
       "Cheap jobs, two tenants and a throttling quota: submit, quota, "
       "queue, arbiter and dequeue dominate, the opposite of serve-fleet",
       "iris jobs (32 shots, 1 trajectory) on table3_fleet_cycled(64), 1 "
       "shard x 1 worker, weighted_credit, interactive (weight 4) + bulk "
       "(weight 1, rate-limited); 0.80 load; 150 rounds of 1000 jobs",
       make_serve_admission},
  };
  return table;
}

}  // namespace e2e
