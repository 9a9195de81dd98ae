#include "arbiterq/serve/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "arbiterq/core/trainers.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/monitor/slo.hpp"
#include "arbiterq/serve/fault_injector.hpp"
#include "arbiterq/serve/job_queue.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/prometheus.hpp"
#include "arbiterq/telemetry/trace.hpp"

namespace arbiterq::serve {
namespace {

// ---------------------------------------------------------------- JobQueue

TEST(JobQueue, Validation) {
  EXPECT_THROW(JobQueue(0, 4), std::invalid_argument);
  EXPECT_THROW(JobQueue(2, 0), std::invalid_argument);
}

TEST(JobQueue, PriorityOrderWithinLane) {
  JobQueue q(1, 8);
  ShotBatch low;
  low.job = 1;
  low.priority = JobPriority::kLow;
  ShotBatch high;
  high.job = 2;
  high.priority = JobPriority::kHigh;
  ShotBatch normal;
  normal.job = 3;
  normal.priority = JobPriority::kNormal;
  ASSERT_TRUE(q.try_push_all({low}));
  ASSERT_TRUE(q.try_push_all({normal}));
  ASSERT_TRUE(q.try_push_all({high}));
  ShotBatch out;
  ASSERT_TRUE(q.pop(0, &out));
  EXPECT_EQ(out.job, 2U);  // high first
  q.task_done();
  ASSERT_TRUE(q.pop(0, &out));
  EXPECT_EQ(out.job, 3U);
  q.task_done();
  ASSERT_TRUE(q.pop(0, &out));
  EXPECT_EQ(out.job, 1U);
  q.task_done();
}

TEST(JobQueue, CapacityBackpressureAndRetryBypass) {
  JobQueue q(1, 2);
  ASSERT_TRUE(q.try_push_all({ShotBatch{}}));
  ASSERT_TRUE(q.try_push_all({ShotBatch{}}));
  EXPECT_FALSE(q.try_push_all({ShotBatch{}}));  // admission bound hit
  q.push_retry({});  // retries ride above the bound
  EXPECT_EQ(q.depth(), 3U);
}

TEST(JobQueue, TryPushAllIsAtomic) {
  JobQueue q(2, 3);
  std::vector<ShotBatch> four(4);
  four[1].qpu = 1;
  EXPECT_FALSE(q.try_push_all(four));  // 4 > capacity: nothing enqueued
  EXPECT_EQ(q.depth(), 0U);
  std::vector<ShotBatch> stray(2);
  stray[1].qpu = 2;  // no such lane: nothing enqueued either
  EXPECT_THROW(q.try_push_all(stray), std::out_of_range);
  EXPECT_EQ(q.depth(), 0U);
  std::vector<ShotBatch> three(3);
  three[2].qpu = 1;
  EXPECT_TRUE(q.try_push_all(three));
  EXPECT_EQ(q.depth(), 3U);
  EXPECT_EQ(q.lane_depth(0), 2U);
  EXPECT_EQ(q.lane_depth(1), 1U);
}

TEST(JobQueue, CloseStopsAdmissionThenDrains) {
  JobQueue q(1, 4);
  ASSERT_TRUE(q.try_push_all({ShotBatch{}}));
  q.close();
  EXPECT_FALSE(q.try_push_all({ShotBatch{}}));
  ShotBatch out;
  ASSERT_TRUE(q.pop(0, &out));  // pending work still pops after close
  q.task_done();
  EXPECT_FALSE(q.pop(0, &out));  // fully drained
}

TEST(JobQueue, TaskDoneWithoutPopThrows) {
  JobQueue q(1, 4);
  EXPECT_THROW(q.task_done(), std::logic_error);
}

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjector, ScriptedDropoutTimeline) {
  FaultConfig cfg;
  cfg.dropouts = {{2, 10}};
  cfg.detection_lag_jobs = 4;
  const FaultInjector faults(6, cfg);
  EXPECT_FALSE(faults.dropped(2, 9));
  EXPECT_TRUE(faults.dropped(2, 10));
  EXPECT_TRUE(faults.dropped(2, 999));
  EXPECT_FALSE(faults.dropped(3, 999));
  // Detection lag: router learns at job 14.
  EXPECT_EQ(faults.routing_epoch(13), 0U);
  EXPECT_EQ(faults.routing_epoch(14), 1U);
  const std::vector<int> alive = faults.alive_at_epoch(1);
  EXPECT_EQ(alive.size(), 5U);
  EXPECT_EQ(std::count(alive.begin(), alive.end(), 2), 0);
}

TEST(FaultInjector, DecisionsAreDeterministic) {
  FaultConfig cfg;
  cfg.transient_probability = 0.3;
  cfg.latency_spike_probability = 0.3;
  cfg.seed = 7;
  const FaultInjector a(4, cfg);
  const FaultInjector b(4, cfg);
  for (std::uint64_t job = 0; job < 50; ++job) {
    for (int qpu = 0; qpu < 4; ++qpu) {
      EXPECT_EQ(a.transient_failure(job, qpu, 0),
                b.transient_failure(job, qpu, 0));
      EXPECT_EQ(a.latency_multiplier(job, qpu, 1),
                b.latency_multiplier(job, qpu, 1));
    }
  }
}

TEST(FaultInjector, RejectsKillingWholeFleet) {
  FaultConfig cfg;
  cfg.dropouts = {{0, 1}, {1, 2}};
  EXPECT_THROW(FaultInjector(2, cfg), std::invalid_argument);
}

TEST(FaultInjector, ParseSpec) {
  const FaultConfig cfg = FaultInjector::parse(
      "kill:3@40,transient:0.05,spike:0.1x8,lag:6,seed:11");
  ASSERT_EQ(cfg.dropouts.size(), 1U);
  EXPECT_EQ(cfg.dropouts[0].qpu, 3);
  EXPECT_EQ(cfg.dropouts[0].at_job, 40U);
  EXPECT_DOUBLE_EQ(cfg.transient_probability, 0.05);
  EXPECT_DOUBLE_EQ(cfg.latency_spike_probability, 0.1);
  EXPECT_DOUBLE_EQ(cfg.latency_spike_multiplier, 8.0);
  EXPECT_EQ(cfg.detection_lag_jobs, 6U);
  EXPECT_EQ(cfg.seed, 11U);
  EXPECT_THROW(FaultInjector::parse("bogus:1"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("kill:3"), std::invalid_argument);
}

TEST(FaultInjector, ParseRejectsMalformedNumbers) {
  // Non-numeric fields and trailing garbage.
  for (const char* spec :
       {"kill:abc@xyz", "kill:1@5x", "kill:1x@5", "kill:@5", "kill:1@",
        "kill:-1@5", "kill:1@-5", "spike:0.5x", "spike:0.5xfast",
        "transient:", "transient:0.1%", "drop:0.1@", "drop:0.1@-3",
        "lag:4jobs", "lag:-1", "seed:", "seed:12 ", "kill:3@10;seed:4"}) {
    EXPECT_THROW(FaultInjector::parse(spec), std::invalid_argument) << spec;
  }
  // Probabilities outside [0, 1], and non-finite or non-positive spike
  // multipliers.
  for (const char* spec :
       {"transient:-3", "transient:1.5", "transient:nan", "drop:3",
        "drop:-0.1@8", "spike:2x8", "spike:0.1x0", "spike:0.1x-2",
        "spike:0.1xinf", "spike:0.1xnan"}) {
    EXPECT_THROW(FaultInjector::parse(spec), std::invalid_argument) << spec;
  }
  // The bounds themselves parse.
  const FaultConfig edge = FaultInjector::parse("transient:0,drop:1@1,spike:1");
  EXPECT_EQ(edge.transient_probability, 0.0);
  EXPECT_EQ(edge.dropout_probability, 1.0);
  EXPECT_EQ(edge.dropout_horizon_jobs, 1U);
  EXPECT_EQ(edge.latency_spike_probability, 1.0);
  EXPECT_EQ(edge.latency_spike_multiplier,
            FaultConfig{}.latency_spike_multiplier);
}

TEST(FaultInjector, ParseRejectsASecondKillOfOneQpu) {
  EXPECT_THROW(FaultInjector::parse("kill:1@5,kill:1@9"),
               std::invalid_argument);
  const FaultConfig cfg = FaultInjector::parse("kill:1@5,kill:2@9");
  ASSERT_EQ(cfg.dropouts.size(), 2U);
  EXPECT_EQ(cfg.dropouts[1].qpu, 2);
  EXPECT_EQ(cfg.dropouts[1].at_job, 9U);
}

TEST(FaultInjector, ConstructorRejectsASecondDropoutOfOneQpu) {
  // Only QPU 0 would die, so on 2 QPUs this must not read as a whole-
  // fleet kill, and on 3 it must not count one death as two epochs.
  FaultConfig cfg;
  cfg.dropouts = {{0, 5}, {0, 9}};
  for (const std::size_t fleet : {2U, 3U}) {
    try {
      const FaultInjector faults(fleet, cfg);
      ADD_FAILURE() << "accepted a second dropout on " << fleet << " QPUs";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("second dropout of qpu 0"),
                std::string::npos)
          << e.what();
    }
  }
  cfg.dropouts = {{0, 5}, {1, 9}};
  const FaultInjector faults(3, cfg);
  EXPECT_EQ(faults.routing_epoch(100), 2U);
}

// ----------------------------------------------------------- ServingRuntime

class ServeFixture : public ::testing::Test {
 protected:
  ServeFixture()
      : model_(qnn::Backbone::kCRz, 2, 2),
        split_(data::prepare_case({"iris", 2, 2})) {
    core::TrainConfig cfg;
    trainer_ = std::make_unique<core::DistributedTrainer>(
        model_, device::table3_fleet_subset(6, 2), cfg);
    // Per-QPU personalized weights: small deterministic perturbations of
    // a shared draw (training is not what these tests exercise).
    math::Rng rng(42);
    std::vector<double> base(
        static_cast<std::size_t>(model_.num_weights()));
    for (double& w : base) w = rng.normal(0.0, 0.3);
    for (std::size_t q = 0; q < trainer_->fleet_size(); ++q) {
      std::vector<double> w = base;
      math::Rng qrng = rng.split(q);
      for (double& x : w) x += qrng.normal(0.0, 0.05);
      weights_.push_back(std::move(w));
    }
  }

  std::vector<JobSpec> make_jobs(std::size_t n) const {
    std::vector<JobSpec> jobs;
    for (std::size_t i = 0; i < n; ++i) {
      JobSpec spec;
      spec.features = split_.test_features[i % split_.test_features.size()];
      spec.label = split_.test_labels[i % split_.test_labels.size()];
      jobs.push_back(std::move(spec));
    }
    return jobs;
  }

  std::vector<JobResult> run(const ServeConfig& cfg,
                             const std::vector<JobSpec>& jobs,
                             const FaultInjector* faults = nullptr,
                             monitor::FleetHealthMonitor* monitor = nullptr,
                             ServingReport* report = nullptr,
                             std::size_t* epochs = nullptr) const {
    ServingRuntime runtime(trainer_->executors(), weights_,
                           trainer_->behavioral_vectors(), cfg, faults,
                           monitor);
    for (const JobSpec& spec : jobs) runtime.submit(spec);
    runtime.drain();
    if (report != nullptr) *report = runtime.report();
    if (epochs != nullptr) *epochs = runtime.epochs();
    return runtime.results();
  }

  qnn::QnnModel model_;
  data::EncodedSplit split_;
  std::unique_ptr<core::DistributedTrainer> trainer_;
  std::vector<std::vector<double>> weights_;
};

TEST_F(ServeFixture, ConstructorValidation) {
  ServeConfig cfg;
  std::vector<std::vector<double>> bad_weights(2);
  EXPECT_THROW(ServingRuntime(trainer_->executors(), bad_weights,
                              trainer_->behavioral_vectors(), cfg),
               std::invalid_argument);
  cfg.shots_per_job = 0;
  EXPECT_THROW(ServingRuntime(trainer_->executors(), weights_,
                              trainer_->behavioral_vectors(), cfg),
               std::invalid_argument);
}

TEST_F(ServeFixture, SubmitRejectsAFeatureWidthMismatch) {
  ServeConfig cfg;
  cfg.shots_per_job = 32;
  cfg.trajectories = 2;
  ServingRuntime runtime(trainer_->executors(), weights_,
                         trainer_->behavioral_vectors(), cfg);
  JobSpec wide = make_jobs(1)[0];
  wide.features = {0.1, 0.2, 0.3, 0.4};  // the fleet runs 2 qubits
  try {
    runtime.submit(wide);
    FAIL() << "a 4-angle job was admitted to a 2-qubit fleet";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("expects 2"), std::string::npos)
        << e.what();
  }
  // The refused job took no id and left no row: the next job is id 0.
  const std::optional<std::uint64_t> id = runtime.submit(make_jobs(1)[0]);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 0U);
  runtime.drain();
  const ServingReport rep = runtime.report();
  EXPECT_EQ(rep.submitted, 1U);
  EXPECT_EQ(rep.completed, 1U);
}

TEST_F(ServeFixture, FaultFreeRunCompletesEveryJob) {
  ServeConfig cfg;
  cfg.shots_per_job = 64;
  cfg.trajectories = 4;
  ServingReport rep;
  const std::vector<JobResult> results =
      run(cfg, make_jobs(12), nullptr, nullptr, &rep);
  ASSERT_EQ(results.size(), 12U);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.status, JobStatus::kOk) << "job " << r.id;
    EXPECT_GE(r.probability, 0.0);
    EXPECT_LE(r.probability, 1.0);
    EXPECT_EQ(r.retries, 0);
    EXPECT_GT(r.batches, 0);
    EXPECT_GT(r.virtual_latency_us, 0.0);
    EXPECT_EQ(r.epoch, 0U);
  }
  EXPECT_EQ(rep.submitted, 12U);
  EXPECT_EQ(rep.completed, 12U);
  EXPECT_EQ(rep.rejected, 0U);
  EXPECT_EQ(rep.retries, 0U);
  EXPECT_GT(rep.throughput_jobs_per_s, 0.0);
}

TEST_F(ServeFixture, DeterministicAcrossRunsAndSchedules) {
  ServeConfig cfg;
  cfg.shots_per_job = 48;
  cfg.trajectories = 4;
  cfg.seed = 123;
  const std::vector<JobSpec> jobs = make_jobs(10);
  const std::vector<JobResult> a = run(cfg, jobs);
  const std::vector<JobResult> b = run(cfg, jobs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status);
    EXPECT_EQ(a[i].probability, b[i].probability);  // bit-identical
    EXPECT_EQ(a[i].loss, b[i].loss);
    EXPECT_EQ(a[i].virtual_latency_us, b[i].virtual_latency_us);
    EXPECT_EQ(a[i].torus, b[i].torus);
  }
}

TEST_F(ServeFixture, SeedChangesResults) {
  ServeConfig cfg;
  cfg.shots_per_job = 48;
  cfg.trajectories = 4;
  const std::vector<JobSpec> jobs = make_jobs(8);
  cfg.seed = 1;
  const std::vector<JobResult> a = run(cfg, jobs);
  cfg.seed = 2;
  const std::vector<JobResult> b = run(cfg, jobs);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].probability != b[i].probability) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// The ISSUE acceptance scenario: a seeded FaultInjector kills a QPU
// mid-run; the runtime completes every admitted job, re-routes the
// victim's shot-batches (retry counters > 0), repartitions the
// surviving fleet, and two same-seed runs agree bit-for-bit.
TEST_F(ServeFixture, DropoutMidRunRecoversDeterministically) {
  ServeConfig cfg;
  cfg.shots_per_job = 48;
  cfg.trajectories = 4;
  cfg.seed = 99;
  FaultConfig fcfg;
  fcfg.dropouts = {{1, 8}};
  fcfg.detection_lag_jobs = 8;
  const FaultInjector faults(6, fcfg);
  const std::vector<JobSpec> jobs = make_jobs(30);

  monitor::FleetHealthMonitor monitor(6);
  ServingReport rep;
  std::size_t epochs = 0;
  const std::vector<JobResult> a =
      run(cfg, jobs, &faults, &monitor, &rep, &epochs);

  ASSERT_EQ(a.size(), 30U);
  std::uint64_t total_retries = 0;
  for (const JobResult& r : a) {
    EXPECT_NE(r.status, JobStatus::kPending) << "job " << r.id;
    EXPECT_EQ(r.status, JobStatus::kOk) << "job " << r.id;
    total_retries += static_cast<std::uint64_t>(r.retries);
  }
  // Jobs routed to the dying QPU inside the detection window were
  // rescued by the retry path.
  EXPECT_GT(total_retries, 0U);
  EXPECT_EQ(rep.retries, total_retries);
  EXPECT_EQ(rep.dropouts_detected, 1U);
  EXPECT_GE(rep.repartitions, 1U);
  EXPECT_GE(epochs, 2U);
  // Late jobs were routed under the degraded epoch.
  EXPECT_GE(a.back().epoch, 1U);
  // No shots executed on the victim after its death is possible to
  // check only via the survivors: the victim keeps whatever it ran
  // before job 8, every later batch went elsewhere.
  const monitor::FleetHealthReport health = monitor.report();
  EXPECT_FALSE(health.qpus[1].online);

  // Same seed, second run: per-job results are bit-identical.
  const std::vector<JobResult> b = run(cfg, jobs, &faults);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << "job " << i;
    EXPECT_EQ(a[i].probability, b[i].probability) << "job " << i;
    EXPECT_EQ(a[i].loss, b[i].loss) << "job " << i;
    EXPECT_EQ(a[i].retries, b[i].retries) << "job " << i;
    EXPECT_EQ(a[i].virtual_latency_us, b[i].virtual_latency_us)
        << "job " << i;
    EXPECT_EQ(a[i].epoch, b[i].epoch) << "job " << i;
    EXPECT_EQ(a[i].torus, b[i].torus) << "job " << i;
  }
}

TEST_F(ServeFixture, DegradedPartitionExcludesVictim) {
  ServeConfig cfg;
  cfg.shots_per_job = 32;
  cfg.trajectories = 2;
  FaultConfig fcfg;
  fcfg.dropouts = {{4, 3}};
  fcfg.detection_lag_jobs = 2;
  const FaultInjector faults(6, fcfg);
  ServingRuntime runtime(trainer_->executors(), weights_,
                         trainer_->behavioral_vectors(), cfg, &faults);
  for (const JobSpec& spec : make_jobs(12)) runtime.submit(spec);
  runtime.drain();
  ASSERT_GE(runtime.epochs(), 2U);
  const core::TorusPartition degraded = runtime.partition(1);
  std::set<int> members;
  for (const auto& torus : degraded.tori) {
    members.insert(torus.begin(), torus.end());
  }
  EXPECT_EQ(members.count(4), 0U);
  EXPECT_EQ(members.size(), 5U);  // global ids, victim excluded
  EXPECT_THROW(runtime.partition(99), std::out_of_range);
}

TEST_F(ServeFixture, TransientFailuresRetryAndComplete) {
  ServeConfig cfg;
  cfg.shots_per_job = 32;
  cfg.trajectories = 2;
  cfg.max_retries = 6;
  cfg.backoff_base_us = 1.0;  // keep the test fast
  cfg.backoff_max_us = 10.0;
  FaultConfig fcfg;
  fcfg.transient_probability = 0.25;
  fcfg.seed = 5;
  const FaultInjector faults(6, fcfg);
  ServingReport rep;
  const std::vector<JobResult> results =
      run(cfg, make_jobs(16), &faults, nullptr, &rep);
  EXPECT_GT(rep.retries, 0U);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.status, JobStatus::kOk) << "job " << r.id;
  }
}

TEST_F(ServeFixture, DeadlineExpiresSlowJobs) {
  ServeConfig cfg;
  cfg.shots_per_job = 64;
  cfg.trajectories = 2;
  cfg.deadline_us = 1e-3;  // far below one shot's modeled latency
  ServingReport rep;
  const std::vector<JobResult> results =
      run(cfg, make_jobs(6), nullptr, nullptr, &rep);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.status, JobStatus::kExpired) << "job " << r.id;
  }
  EXPECT_EQ(rep.expired, 6U);
  // A generous per-job override rescues a job from the tight default.
  JobSpec spec;
  spec.features = split_.test_features[0];
  spec.label = split_.test_labels[0];
  spec.deadline_us = 1e9;
  ServingRuntime runtime(trainer_->executors(), weights_,
                         trainer_->behavioral_vectors(), cfg);
  runtime.submit(spec);
  runtime.drain();
  EXPECT_EQ(runtime.results()[0].status, JobStatus::kOk);
}

TEST_F(ServeFixture, BackpressureRejectsWhenSaturated) {
  ServeConfig cfg;
  cfg.shots_per_job = 32;
  cfg.trajectories = 2;
  cfg.queue_capacity = 4;  // a couple of jobs' worth of batches
  cfg.autostart = false;   // nothing drains while we submit
  ServingRuntime runtime(trainer_->executors(), weights_,
                         trainer_->behavioral_vectors(), cfg);
  const std::vector<JobSpec> jobs = make_jobs(20);
  std::size_t admitted = 0;
  for (const JobSpec& spec : jobs) {
    if (runtime.submit(spec).has_value()) ++admitted;
  }
  EXPECT_GT(admitted, 0U);
  EXPECT_LT(admitted, jobs.size());
  runtime.start();
  runtime.drain();
  const ServingReport rep = runtime.report();
  EXPECT_EQ(rep.admitted, admitted);
  EXPECT_EQ(rep.rejected, jobs.size() - admitted);
  EXPECT_EQ(rep.completed, admitted);
  for (const JobResult& r : runtime.results()) {
    EXPECT_TRUE(r.status == JobStatus::kOk ||
                r.status == JobStatus::kRejected);
  }
}

TEST_F(ServeFixture, ServingMetricsReachPrometheusExport) {
  telemetry::set_telemetry_runtime_enabled(true);
  telemetry::MetricsRegistry::global().reset_values();
  ServeConfig cfg;
  cfg.shots_per_job = 32;
  cfg.trajectories = 2;
  run(cfg, make_jobs(5));
  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::global().snapshot();
  const std::string text = telemetry::prometheus_text(snap);
  EXPECT_NE(text.find("arbiterq_serve_queue_depth"), std::string::npos);
  // These series come from AQ_* macro sites.
  EXPECT_NE(text.find("arbiterq_serve_job_latency_us_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("arbiterq_serve_job_latency_us_count"),
            std::string::npos);
  EXPECT_NE(text.find("arbiterq_serve_jobs_admitted_total"),
            std::string::npos);
  // The histogram snapshot yields finite latency quantiles.
  for (const telemetry::HistogramSnapshot& h : snap.histograms) {
    if (h.name == "serve.job.latency_us") {
      EXPECT_EQ(h.count, 5U);
      EXPECT_GT(h.p50(), 0.0);
      EXPECT_GE(h.p99(), h.p50());
    }
  }
}

TEST_F(ServeFixture, TracedJobsEmitStitchedSpanTrees) {
  telemetry::set_telemetry_runtime_enabled(true);
  telemetry::TraceBuffer::global().clear();
  ServeConfig cfg;
  cfg.shots_per_job = 32;
  cfg.trajectories = 2;
  cfg.trace_sample_every = 1;  // every job
  run(cfg, make_jobs(4));
  const std::vector<telemetry::TraceEvent> events =
      telemetry::TraceBuffer::global().snapshot();

  // One root per job, flow-keyed by job id + 1, with a labelled lane.
  std::map<std::uint64_t, const telemetry::TraceEvent*> roots;
  for (const telemetry::TraceEvent& e : events) {
    if (e.name == "serve.job") {
      EXPECT_GT(e.flow_id, 0U);
      EXPECT_EQ(e.parent_id, 0U);
      EXPECT_NE(e.flow_label.find("job-"), std::string::npos);
      roots[e.flow_id] = &e;
    }
  }
  EXPECT_EQ(roots.size(), 4U);

  // Every flow-keyed child span carries its job's flow and hangs off
  // that root (ambient spans like serve.worker.execute keep flow 0).
  std::size_t route = 0, wait = 0, exec = 0;
  for (const telemetry::TraceEvent& e : events) {
    if (e.name == "serve.job" || e.flow_id == 0) continue;
    ASSERT_EQ(roots.count(e.flow_id), 1U) << e.name;
    EXPECT_EQ(e.parent_id, roots[e.flow_id]->id) << e.name;
    if (e.name == "serve.job.route") ++route;
    if (e.name == "serve.batch.wait") ++wait;
    if (e.name == "serve.batch.exec") ++exec;
  }
  EXPECT_EQ(route, 4U);           // one route decision per job
  EXPECT_GE(wait, 4U);            // at least one queue wait per job
  EXPECT_EQ(exec, wait);          // fault-free: every pop executed
  telemetry::TraceBuffer::global().clear();
}

TEST_F(ServeFixture, TraceSamplingSelectsEveryNthJob) {
  telemetry::set_telemetry_runtime_enabled(true);
  telemetry::TraceBuffer::global().clear();
  ServeConfig cfg;
  cfg.shots_per_job = 32;
  cfg.trajectories = 2;
  cfg.trace_sample_every = 2;  // job ids 0, 2, 4, ...
  run(cfg, make_jobs(6));
  std::set<std::uint64_t> flows;
  for (const telemetry::TraceEvent& e :
       telemetry::TraceBuffer::global().snapshot()) {
    if (e.name == "serve.job") flows.insert(e.flow_id);
  }
  // flow_id = job id + 1: even ids 0/2/4 -> flows 1/3/5.
  EXPECT_EQ(flows, (std::set<std::uint64_t>{1, 3, 5}));
  telemetry::TraceBuffer::global().clear();
}

TEST_F(ServeFixture, TracingOffLeavesTheBufferUntouched) {
  telemetry::set_telemetry_runtime_enabled(true);
  telemetry::TraceBuffer::global().clear();
  ServeConfig cfg;
  cfg.shots_per_job = 32;
  cfg.trajectories = 2;
  cfg.trace_sample_every = 0;
  run(cfg, make_jobs(3));
  // Ambient worker spans still record; no *per-job* (flow-keyed) span
  // may appear.
  for (const telemetry::TraceEvent& e :
       telemetry::TraceBuffer::global().snapshot()) {
    EXPECT_EQ(e.flow_id, 0U) << e.name;
    EXPECT_NE(e.name, "serve.job");
  }
}

// Per-job tracing is observational only: one faulted workload gives
// bit-identical results with tracing off, every 8th job traced, and
// every job traced.
TEST_F(ServeFixture, TraceSamplingLeavesResultsBitIdentical) {
  telemetry::set_telemetry_runtime_enabled(true);
  const FaultInjector faults(
      6, FaultInjector::parse("kill:1@16,transient:0.05,lag:8"));
  const std::vector<JobSpec> jobs = make_jobs(40);
  const auto traced_run = [&](int sample_every, std::size_t* roots) {
    telemetry::TraceBuffer::global().clear();
    ServeConfig cfg;
    cfg.shots_per_job = 48;
    cfg.trajectories = 4;
    cfg.backoff_base_us = 0.0;
    cfg.trace_sample_every = sample_every;
    const std::vector<JobResult> results = run(cfg, jobs, &faults);
    *roots = 0;
    for (const telemetry::TraceEvent& e :
         telemetry::TraceBuffer::global().snapshot()) {
      if (e.name == "serve.job") ++*roots;
    }
    return results;
  };
  std::size_t roots_off = 0, roots_sampled = 0, roots_full = 0;
  const std::vector<JobResult> off = traced_run(0, &roots_off);
  const std::vector<JobResult> sampled = traced_run(8, &roots_sampled);
  const std::vector<JobResult> full = traced_run(1, &roots_full);
  telemetry::TraceBuffer::global().clear();
  EXPECT_EQ(roots_off, 0U);
  EXPECT_EQ(roots_sampled, 5U);
  EXPECT_EQ(roots_full, 40U);
  ASSERT_EQ(off.size(), 40U);
  for (const std::vector<JobResult>* other : {&sampled, &full}) {
    ASSERT_EQ(other->size(), off.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
      const JobResult& a = off[i];
      const JobResult& b = (*other)[i];
      EXPECT_EQ(a.status, b.status) << "job " << i;
      EXPECT_EQ(a.probability, b.probability) << "job " << i;
      EXPECT_EQ(a.loss, b.loss) << "job " << i;
      EXPECT_EQ(a.retries, b.retries) << "job " << i;
      EXPECT_EQ(a.virtual_latency_us, b.virtual_latency_us) << "job " << i;
      EXPECT_EQ(a.epoch, b.epoch) << "job " << i;
      EXPECT_EQ(a.torus, b.torus) << "job " << i;
    }
  }
  int retries = 0;
  for (const JobResult& r : off) retries += r.retries;
  EXPECT_GT(retries, 0);  // the faults fired: reroutes were compared too
}

TEST_F(ServeFixture, SloEngineJudgesJobsByClass) {
  monitor::SloPolicy policy;
  policy.objectives[0] = {1e-6, 0.5};  // unmeetable latency target
  policy.objectives[2] = {0.0, 0.5};   // success-only
  policy.window_jobs = 4;
  monitor::SloEngine slo(policy);
  ServeConfig cfg;
  cfg.shots_per_job = 32;
  cfg.trajectories = 2;
  ServingRuntime runtime(trainer_->executors(), weights_,
                         trainer_->behavioral_vectors(), cfg, nullptr,
                         nullptr, nullptr, &slo);
  std::vector<JobSpec> jobs = make_jobs(8);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].slo_class = i < 4 ? monitor::SloClass::kLatencyBound
                              : monitor::SloClass::kBestEffort;
  }
  for (const JobSpec& spec : jobs) runtime.submit(spec);
  runtime.drain();
  const monitor::SloReport rep = slo.report();
  // Latency-bound: every job beat 1e-6us is impossible -> all violate,
  // closing one fully-burned window.
  EXPECT_EQ(rep.classes[0].jobs, 4U);
  EXPECT_EQ(rep.classes[0].violations, 4U);
  EXPECT_EQ(rep.classes[0].breaches, 1U);
  // Best-effort jobs completed ok -> compliant.
  EXPECT_EQ(rep.classes[2].jobs, 4U);
  EXPECT_EQ(rep.classes[2].violations, 0U);
}

TEST_F(ServeFixture, VirtualTimeGaugesSampleOnCadence) {
  telemetry::set_telemetry_runtime_enabled(true);
  telemetry::MetricsRegistry::global().reset_values();
  ServeConfig cfg;
  cfg.shots_per_job = 64;
  cfg.trajectories = 2;
  cfg.gauge_cadence_us = 100.0;  // well below one job's modeled time
  run(cfg, make_jobs(6));
  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::global().snapshot();
  double samples = 0.0;
  bool saw_depth = false, saw_inflight = false, saw_vt = false;
  for (const telemetry::CounterSnapshot& c : snap.counters) {
    if (c.name == "serve.gauge.samples") samples = c.value;
  }
  for (const telemetry::GaugeSnapshot& g : snap.gauges) {
    if (g.name == "serve.queue.depth.sampled") saw_depth = true;
    if (g.name.rfind("serve.qpu.inflight.q", 0) == 0) saw_inflight = true;
    if (g.name == "serve.virtual_time_us") {
      saw_vt = true;
      EXPECT_GT(g.value, 0.0);
    }
  }
  EXPECT_GT(samples, 0.0);  // AQ_COUNTER_ADD site
  EXPECT_TRUE(saw_depth);
  EXPECT_TRUE(saw_inflight);
  EXPECT_TRUE(saw_vt);
}

TEST_F(ServeFixture, TenantCountersAreSanitized) {
  telemetry::set_telemetry_runtime_enabled(true);
  telemetry::MetricsRegistry::global().reset_values();
  ServeConfig cfg;
  cfg.shots_per_job = 32;
  cfg.trajectories = 2;
  std::vector<JobSpec> jobs = make_jobs(3);
  for (JobSpec& spec : jobs) spec.tenant = "evil\ntenant";
  ServingRuntime runtime(trainer_->executors(), weights_,
                         trainer_->behavioral_vectors(), cfg);
  for (const JobSpec& spec : jobs) runtime.submit(spec);
  runtime.drain();
  double tenant_jobs = -1.0;
  for (const telemetry::CounterSnapshot& c :
       telemetry::MetricsRegistry::global().snapshot().counters) {
    EXPECT_EQ(c.name.find('\n'), std::string::npos) << c.name;
    if (c.name == "serve.tenant.jobs.evil_tenant") tenant_jobs = c.value;
  }
  EXPECT_DOUBLE_EQ(tenant_jobs, 3.0);
}

TEST(JobStatusName, CoversAllStates) {
  EXPECT_EQ(job_status_name(JobStatus::kOk), "ok");
  EXPECT_EQ(job_status_name(JobStatus::kRejected), "rejected");
  EXPECT_EQ(job_status_name(JobStatus::kExpired), "expired");
  EXPECT_EQ(job_status_name(JobStatus::kFailed), "failed");
  EXPECT_EQ(job_status_name(JobStatus::kPending), "pending");
}

}  // namespace
}  // namespace arbiterq::serve
