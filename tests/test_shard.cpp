// Sharded serving-plane tests: the JobQueue admission/retry API that
// shards lean on, scoped torus repartition, and the end-to-end sharded
// ServingRuntime guarantees — cross-shard reroute after a dropout,
// synchronous backpressure, and bit-identical admitted results across
// shard counts.

#include "arbiterq/serve/shard.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "arbiterq/core/torus.hpp"
#include "arbiterq/core/trainers.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/serve/fault_injector.hpp"
#include "arbiterq/serve/runtime.hpp"
#include "arbiterq/telemetry/metrics.hpp"

namespace arbiterq::serve {
namespace {

// ------------------------------------------------- JobQueue sharding API

TEST(JobQueueShardApi, RetriesRideAboveCapacityAndAfterClose) {
  JobQueue q(1, 1);
  ShotBatch admitted;
  admitted.job = 1;
  ASSERT_TRUE(q.try_push_all({admitted}));
  EXPECT_FALSE(q.has_room(1));
  ShotBatch over;
  EXPECT_FALSE(q.try_push_all({over}));  // admission is bounded...
  ShotBatch retry;
  retry.job = 2;
  q.push_retry(retry);             // ...retries of admitted work are not
  q.close();
  EXPECT_FALSE(q.has_room(0));     // a closed queue admits nothing
  ShotBatch late;
  late.job = 3;
  q.push_retry(late);              // but still takes retries
  EXPECT_EQ(q.depth(), 3U);
  ShotBatch out;
  for (std::uint64_t job = 1; job <= 3; ++job) {
    ASSERT_TRUE(q.pop(0, &out));
    EXPECT_EQ(out.job, job);
    q.task_done();
  }
  EXPECT_FALSE(q.pop(0, &out));
}

TEST(JobQueueShardApi, PoppingAnAdmittedBatchFreesOneUnit) {
  JobQueue q(1, 2);
  ShotBatch a;
  a.job = 1;
  ASSERT_TRUE(q.try_push_all({a}));
  ShotBatch r;
  r.job = 2;
  r.priority = JobPriority::kHigh;
  q.push_retry(r);
  ShotBatch b;
  b.job = 3;
  ASSERT_TRUE(q.try_push_all({b}));   // the retry holds no admission unit
  EXPECT_FALSE(q.has_room(1));
  ShotBatch out;
  ASSERT_TRUE(q.pop(0, &out));
  EXPECT_EQ(out.job, 2U);       // retry rides the high-priority lane
  EXPECT_FALSE(q.has_room(1));  // popping it frees nothing
  q.task_done();
  ASSERT_TRUE(q.pop(0, &out));
  EXPECT_EQ(out.job, 1U);
  EXPECT_TRUE(q.has_room(1));   // popping an admitted batch frees one
  EXPECT_FALSE(q.has_room(2));
  q.task_done();
}

TEST(JobQueueShardApi, PopAnyScansPrioritiesAcrossOwnedLanes) {
  JobQueue q(4, 16);
  ShotBatch normal;
  normal.job = 1;
  normal.qpu = 0;
  ASSERT_TRUE(q.try_push_all({normal}));
  ShotBatch high;
  high.job = 2;
  high.qpu = 2;
  high.priority = JobPriority::kHigh;
  ASSERT_TRUE(q.try_push_all({high}));
  ShotBatch out;
  const std::vector<std::size_t> lanes = {0, 2};
  ASSERT_TRUE(q.pop_any(lanes, &out));
  EXPECT_EQ(out.job, 2U);  // high priority wins across lanes
  q.task_done();
  ASSERT_TRUE(q.pop_any(lanes, &out));
  EXPECT_EQ(out.job, 1U);
  q.task_done();
  EXPECT_THROW(q.pop_any({}, &out), std::invalid_argument);
}

TEST(JobQueueShardApi, LaneBaseRebasesGlobalQpusToLocalLanes) {
  // A shard owning QPUs [4, 6) keeps its two lanes local as 0 and 1.
  JobQueue q(2, 8, "serve.queue.depth.test_rebase", /*lane_base=*/4);
  ShotBatch b;
  b.job = 7;
  b.qpu = 5;
  ASSERT_TRUE(q.try_push_all({b}));
  EXPECT_EQ(q.lane_depth(1), 1U);
  ShotBatch out;
  ASSERT_TRUE(q.pop(1, &out));
  EXPECT_EQ(out.job, 7U);
  EXPECT_EQ(out.qpu, 5);
  q.task_done();
  ShotBatch oob;
  oob.qpu = 6;  // beyond the owned block
  EXPECT_THROW(q.try_push_all({oob}), std::out_of_range);
}

TEST(JobQueueShardApi, LockContentionCountersAccumulate) {
  JobQueue q(1, 1024);
  EXPECT_EQ(q.lock_contentions(), 0U);
  // Hammer the mutex from several threads; at least one acquisition
  // should hit the contended path and be timed.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        ShotBatch b;
        q.push_retry(b);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(q.depth(), 2000U);
  if (q.lock_contentions() > 0) {
    EXPECT_GT(q.lock_wait_ns(), 0U);
  }
}

TEST(JobQueueShardApi, CloseRacesPushRetryWithoutLosingBatches) {
  // push_retry is the always-accepted path: batches pushed concurrently
  // with close() must all land (and be poppable) regardless of the
  // interleaving. Run under TSan to check the synchronization, too.
  constexpr int kPerPusher = 200;
  JobQueue q(2, 8);
  std::vector<std::thread> pushers;
  for (int t = 0; t < 2; ++t) {
    pushers.emplace_back([&, t] {
      for (int i = 0; i < kPerPusher; ++i) {
        ShotBatch b;
        b.job = static_cast<std::uint64_t>(t * kPerPusher + i);
        b.qpu = t;
        q.push_retry(b);
      }
    });
  }
  std::thread closer([&] { q.close(); });
  for (std::thread& t : pushers) t.join();
  closer.join();
  std::size_t popped = 0;
  ShotBatch out;
  while (q.pop_any({0, 1}, &out)) {
    ++popped;
    q.task_done();
  }
  EXPECT_EQ(popped, 2U * kPerPusher);
}

// --------------------------------------------------- scoped repartition

core::TorusPartition make_partition(std::size_t n) {
  std::vector<core::BehavioralVector> behavioral(n);
  std::vector<std::vector<double>> models(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    behavioral[i].contextual = {x, 2.0 * x};
    behavioral[i].topological = {1.0 / (x + 1.0)};
    models[i] = {0.1 * x, -0.2 * x, 0.05 * x};
  }
  return core::build_torus_partition(behavioral, models, 2);
}

TEST(RepartitionTorus, RemovesVictimAndLeavesSiblingsByteIdentical) {
  const core::TorusPartition prev = make_partition(6);
  const int victim = prev.tori[0].front();
  const core::TorusPartition next = core::repartition_torus(prev, victim);
  ASSERT_EQ(next.tori.size(), prev.tori.size());
  // Victim's torus: same members in the same (phase) order, minus it.
  std::vector<int> expect;
  for (int q : prev.tori[0]) {
    if (q != victim) expect.push_back(q);
  }
  EXPECT_EQ(next.tori[0], expect);
  // Sibling torus untouched — the dropout was contained.
  EXPECT_EQ(next.tori[1], prev.tori[1]);
  EXPECT_EQ(next.cycle_period, prev.cycle_period);
  EXPECT_EQ(next.phase, prev.phase);
}

TEST(RepartitionTorus, DropsAnEmptiedTorusAndRejectsUnknownQpus) {
  core::TorusPartition prev = make_partition(6);
  // Shrink torus 0 to a single member, then kill it.
  const int last = prev.tori[0].back();
  prev.tori[0] = {last};
  const core::TorusPartition next = core::repartition_torus(prev, last);
  ASSERT_EQ(next.tori.size(), 1U);
  EXPECT_EQ(next.tori[0], prev.tori[1]);
  EXPECT_THROW(core::repartition_torus(prev, 999), std::out_of_range);
}

// ------------------------------------------------- sharded ServingRuntime

class ShardedServeFixture : public ::testing::Test {
 protected:
  ShardedServeFixture()
      : model_(qnn::Backbone::kCRz, 2, 2),
        split_(data::prepare_case({"iris", 2, 2})) {
    core::TrainConfig cfg;
    trainer_ = std::make_unique<core::DistributedTrainer>(
        model_, device::table3_fleet_subset(6, 2), cfg);
    weights_ = draw_weights(trainer_->fleet_size());
  }

  /// Per-QPU personalized weights: small deterministic perturbations of
  /// a shared draw (training is not what these tests exercise).
  std::vector<std::vector<double>> draw_weights(std::size_t fleet) const {
    math::Rng rng(42);
    std::vector<double> base(
        static_cast<std::size_t>(model_.num_weights()));
    for (double& w : base) w = rng.normal(0.0, 0.3);
    std::vector<std::vector<double>> weights;
    for (std::size_t q = 0; q < fleet; ++q) {
      std::vector<double> w = base;
      math::Rng qrng = rng.split(q);
      for (double& x : w) x += qrng.normal(0.0, 0.05);
      weights.push_back(std::move(w));
    }
    return weights;
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

  ServeConfig base_config(int shards) const {
    ServeConfig cfg;
    cfg.shots_per_job = 60;
    cfg.trajectories = 4;
    cfg.queue_capacity = 4096;  // ample: admission never rejects here
    cfg.backoff_base_us = 0.0;  // no real sleeps in tests
    cfg.num_shards = shards;
    return cfg;
  }

  std::vector<JobResult> run(const ServeConfig& cfg,
                             const std::vector<JobSpec>& jobs,
                             const FaultInjector* faults = nullptr,
                             ServingReport* report = nullptr) const {
    return run_on(*trainer_, weights_, cfg, jobs, faults, report);
  }

  static std::vector<JobResult> run_on(
      const core::DistributedTrainer& trainer,
      const std::vector<std::vector<double>>& weights,
      const ServeConfig& cfg, const std::vector<JobSpec>& jobs,
      const FaultInjector* faults, ServingReport* report = nullptr) {
    ServingRuntime runtime(trainer.executors(), weights,
                           trainer.behavioral_vectors(), cfg, faults);
    for (const JobSpec& spec : jobs) runtime.submit(spec);
    runtime.drain();
    if (report != nullptr) *report = runtime.report();
    return runtime.results();
  }

  /// The admission-scale input of BitIdenticalResultsAcrossShardCounts.
  void expect_wide_fleet_bit_identical() const {
    const core::DistributedTrainer wide(
        model_, device::table3_fleet_cycled(32, 2), core::TrainConfig{});
    const auto weights = draw_weights(wide.fleet_size());
    const FaultInjector wide_faults(
        32, FaultInjector::parse("kill:1@64,transient:0.01,lag:32,seed:9"));
    const auto wide_jobs = make_jobs(200);
    const auto run_wide = [&](int shards, ServingReport* rep) {
      ServeConfig cfg = base_config(shards);
      cfg.shots_per_job = 96;
      cfg.trajectories = ServeConfig{}.trajectories;
      cfg.workers_per_shard = 2;
      cfg.gauge_cadence_us = 0.0;
      return run_on(wide, weights, cfg, wide_jobs, &wide_faults, rep);
    };
    ServingReport rep;
    const auto wide_one = run_wide(1, &rep);
    ASSERT_EQ(wide_one.size(), 200U);
    expect_bit_identical(wide_one, run_wide(4, nullptr));
    // Both fault classes fired inside the job range.
    EXPECT_EQ(rep.dropouts_detected, 1U);
    EXPECT_GT(rep.retries, 0U);
    EXPECT_EQ(rep.completed, 200U);
  }

  static void expect_bit_identical(const std::vector<JobResult>& a,
                                   const std::vector<JobResult>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].status, b[i].status) << "job " << i;
      EXPECT_EQ(a[i].probability, b[i].probability) << "job " << i;
      EXPECT_EQ(a[i].loss, b[i].loss) << "job " << i;
      EXPECT_EQ(a[i].retries, b[i].retries) << "job " << i;
      EXPECT_EQ(a[i].virtual_latency_us, b[i].virtual_latency_us)
          << "job " << i;
      EXPECT_EQ(a[i].torus, b[i].torus) << "job " << i;
      EXPECT_EQ(a[i].epoch, b[i].epoch) << "job " << i;
    }
  }

  qnn::QnnModel model_;
  data::EncodedSplit split_;
  std::unique_ptr<core::DistributedTrainer> trainer_;
  std::vector<std::vector<double>> weights_;
};

TEST_F(ShardedServeFixture, ShardLayoutCoversTheFleetContiguously) {
  // 4 shards over 6 QPUs: deliberately non-divisible, so this also pins
  // shard_of() being the exact inverse of the constructed block layout
  // (a floor-formula shard_of disagrees at the uneven boundaries).
  ServeConfig cfg = base_config(4);
  ServingRuntime runtime(trainer_->executors(), weights_,
                         trainer_->behavioral_vectors(), cfg);
  EXPECT_EQ(runtime.num_shards(), 4U);
  const std::vector<ShardStats> shards = runtime.shard_stats();
  ASSERT_EQ(shards.size(), 4U);
  std::size_t covered = 0;
  std::size_t prev_shard = 0;
  for (int q = 0; q < 6; ++q) {
    const std::size_t s = runtime.shard_of(q);
    EXPECT_GE(s, prev_shard);  // contiguous, monotone blocks
    prev_shard = s;
    // shard_of(q) must name the shard whose block actually contains q —
    // this is the mapping admission and reroute both route by.
    ASSERT_LT(s, shards.size());
    EXPECT_GE(static_cast<std::size_t>(q), shards[s].first_qpu)
        << "qpu " << q;
    EXPECT_LT(static_cast<std::size_t>(q),
              shards[s].first_qpu + shards[s].num_qpus)
        << "qpu " << q;
    ++covered;
  }
  EXPECT_EQ(covered, 6U);
  EXPECT_EQ(runtime.shard_of(0), 0U);
  EXPECT_EQ(runtime.shard_of(5), 3U);
  runtime.drain();
  const ServingReport rep = runtime.report();
  ASSERT_EQ(rep.shards.size(), 4U);
  std::size_t qpus = 0;
  for (const ShardStats& s : rep.shards) qpus += s.num_qpus;
  EXPECT_EQ(qpus, 6U);
}

TEST_F(ShardedServeFixture, BitIdenticalResultsAcrossShardCounts) {
  const auto jobs = make_jobs(24);
  const FaultInjector faults(6, FaultInjector::parse("transient:0.08,seed:5"));
  const auto one = run(base_config(1), jobs, &faults);
  const auto two = run(base_config(2), jobs, &faults);
  const auto three = run(base_config(3), jobs, &faults);
  // 4 does not divide the 6-QPU fleet: boundary QPUs sit at uneven
  // block edges, so this leg crashes (mis-shard -> out-of-range lane)
  // if shard_of ever drifts from the constructed layout.
  const auto four = run(base_config(4), jobs, &faults);
  ASSERT_EQ(one.size(), 24U);
  expect_bit_identical(one, two);
  expect_bit_identical(one, three);
  expect_bit_identical(one, four);
  // The fault plan injected retries, so the equality above covered the
  // reroute path, not just clean execution.
  int retries = 0;
  for (const JobResult& r : one) retries += r.retries;
  EXPECT_GT(retries, 0);

  // One more input at admission scale: a 32-QPU cycled Table III fleet
  // striped over two workers per shard, 200 jobs, and a kill that lands
  // mid-stream plus transient faults, under 1 and 4 shards.
  expect_wide_fleet_bit_identical();
}

TEST_F(ShardedServeFixture, WorkerStripingMatchesPerQpuWorkers) {
  const auto jobs = make_jobs(16);
  ServeConfig wide = base_config(2);
  ServeConfig narrow = base_config(2);
  narrow.workers_per_shard = 1;  // one worker drains all 3 lanes
  expect_bit_identical(run(wide, jobs), run(narrow, jobs));
}

TEST_F(ShardedServeFixture, CrossShardRerouteAfterDropout) {
  // One QPU per shard: every reroute crosses a shard boundary.
  const auto jobs = make_jobs(30);
  const FaultInjector faults(6, FaultInjector::parse("kill:1@8,lag:8"));
  ServeConfig cfg = base_config(6);
  ServingReport rep;
  const auto results = run(cfg, jobs, &faults, &rep);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.status, JobStatus::kOk) << "job " << r.id;
  }
  EXPECT_EQ(rep.dropouts_detected, 1U);
  EXPECT_GE(rep.repartitions, 1U);
  ASSERT_EQ(rep.shards.size(), 6U);
  std::uint64_t cross_out = 0;
  std::uint64_t cross_in = 0;
  for (const ShardStats& s : rep.shards) {
    cross_out += s.cross_shard_out;
    cross_in += s.cross_shard_in;
  }
  // The dead QPU's batches were pushed into sibling shards' queues...
  EXPECT_GT(cross_out, 0U);
  EXPECT_EQ(cross_out, cross_in);
  // ...and the victim shard sent them (shard 1 owns only QPU 1).
  EXPECT_GT(rep.shards[1].cross_shard_out, 0U);
  // Re-running the same scenario is bit-identical despite the reroutes.
  ServingReport rep2;
  expect_bit_identical(results, run(cfg, jobs, &faults, &rep2));
}

TEST_F(ShardedServeFixture, TeardownWithoutDrainJoinsCleanly) {
  // Destructor path: no drain(). Workers may be mid-execution or even
  // mid-cross-shard-reroute (one QPU per shard + a dropout forces
  // pushes into sibling queues, possibly after their abort()); teardown
  // must abandon the pending work and join every thread.
  const FaultInjector faults(6, FaultInjector::parse("kill:1@8,lag:8"));
  ServeConfig cfg = base_config(6);
  ServingRuntime runtime(trainer_->executors(), weights_,
                         trainer_->behavioral_vectors(), cfg, &faults);
  for (const JobSpec& spec : make_jobs(30)) runtime.submit(spec);
  // Falls out of scope undrained; the test passes by not deadlocking.
}

TEST_F(ShardedServeFixture, BackpressureRejectsSynchronouslyPerShard) {
  ServeConfig cfg = base_config(2);
  cfg.queue_capacity = 8;  // 4 admission units per shard: one job's
                           // 3-batch split fits, a second on the same
                           // shard cannot
  cfg.autostart = false;   // nothing drains: rejects must be synchronous
  ServingRuntime runtime(trainer_->executors(), weights_,
                         trainer_->behavioral_vectors(), cfg);
  const auto jobs = make_jobs(12);
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  for (const JobSpec& spec : jobs) {
    if (runtime.submit(spec).has_value()) {
      ++admitted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0U);
  EXPECT_GT(admitted, 0U);
  runtime.start();
  runtime.drain();
  const ServingReport rep = runtime.report();
  EXPECT_EQ(rep.admitted, admitted);
  EXPECT_EQ(rep.rejected, rejected);
  EXPECT_EQ(rep.completed + rep.expired + rep.failed, admitted);
  std::uint64_t reserve_rejects = 0;
  for (const ShardStats& s : rep.shards) {
    reserve_rejects += s.reserve_rejects;
  }
  EXPECT_GT(reserve_rejects, 0U);
}

TEST_F(ShardedServeFixture, TransientRetriesMatchAcrossThreeAndOneShards) {
  const auto jobs = make_jobs(20);
  ServeConfig cfg = base_config(3);
  const FaultInjector faults(6, FaultInjector::parse("transient:0.05,seed:11"));
  const auto a = run(cfg, jobs, &faults);
  ServeConfig cfg1 = cfg;
  cfg1.num_shards = 1;
  const auto b = run(cfg1, jobs, &faults);
  expect_bit_identical(a, b);
  for (const JobResult& r : a) {
    EXPECT_EQ(r.status, JobStatus::kOk);
    EXPECT_GE(r.probability, 0.0);
    EXPECT_LE(r.probability, 1.0);
  }
}

TEST_F(ShardedServeFixture, PerShardDepthGaugesAreRegistered) {
  const auto jobs = make_jobs(8);
  ServeConfig cfg = base_config(2);
  run(cfg, jobs);
  if (telemetry::telemetry_runtime_enabled()) {
    auto& reg = telemetry::MetricsRegistry::global();
    // Registered by each shard's queue on its first depth update; value
    // is 0 after drain, existence is the contract.
    EXPECT_EQ(reg.gauge("serve.queue.depth.shard0").value(), 0.0);
    EXPECT_EQ(reg.gauge("serve.queue.depth.shard1").value(), 0.0);
  }
}

}  // namespace
}  // namespace arbiterq::serve
