// Multi-tenant QoS tests: the pluggable Arbiter implementations (FIFO,
// round-robin, matrix, weighted-credit), the per-tenant JobQueue lanes
// they drive, and the runtime-level guarantees — modeled-clock quotas
// deciding deterministically, per-tenant accounting in reports and
// gauges, the admitted set staying bit-identical across shard counts
// for every arbiter, and weighted-credit fairness under an adversarial
// tenant mix.

#include "arbiterq/serve/arbiter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "arbiterq/core/trainers.hpp"
#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/serve/job_queue.hpp"
#include "arbiterq/serve/runtime.hpp"
#include "arbiterq/serve/trafficgen.hpp"
#include "arbiterq/telemetry/metrics.hpp"

namespace arbiterq::serve {
namespace {

constexpr std::uint64_t kNone = kNoRequest;

std::unique_ptr<Arbiter> make(ArbiterKind kind,
                              std::vector<double> weights = {}) {
  const std::size_t n = weights.empty() ? 3 : weights.size();
  ArbiterConfig cfg;
  cfg.kind = kind;
  cfg.weights = std::move(weights);
  return Arbiter::create(cfg, n);
}

// ------------------------------------------------------------ unit level

TEST(Arbiter, NamesRoundTripAndParseRejectsUnknown) {
  for (ArbiterKind k :
       {ArbiterKind::kFifo, ArbiterKind::kRoundRobin, ArbiterKind::kMatrix,
        ArbiterKind::kWeightedCredit}) {
    EXPECT_EQ(arbiter_kind_from_string(arbiter_kind_name(k)), k);
  }
  EXPECT_EQ(arbiter_kind_from_string("rr"), ArbiterKind::kRoundRobin);
  EXPECT_EQ(arbiter_kind_from_string("wc"), ArbiterKind::kWeightedCredit);
  EXPECT_THROW(arbiter_kind_from_string("lottery"), std::invalid_argument);
  EXPECT_THROW(Arbiter::create({}, 0), std::invalid_argument);
}

TEST(Arbiter, GrantValidatesTenantCountAndRequesters) {
  auto arb = make(ArbiterKind::kFifo);
  const std::uint64_t none[3] = {kNone, kNone, kNone};
  EXPECT_THROW(arb->grant(none, 3), std::invalid_argument);
  const std::uint64_t some[2] = {0, kNone};
  EXPECT_THROW(arb->grant(some, 2), std::invalid_argument);  // n mismatch
}

TEST(Arbiter, FifoGrantsTheGlobalOldestHead) {
  auto arb = make(ArbiterKind::kFifo);
  const std::uint64_t seq[3] = {7, 2, kNone};
  EXPECT_EQ(arb->grant(seq, 3), 1U);
  const std::uint64_t seq2[3] = {7, kNone, 9};
  EXPECT_EQ(arb->grant(seq2, 3), 0U);
}

TEST(Arbiter, SingleTenantDegeneratesToPassThrough) {
  for (ArbiterKind k :
       {ArbiterKind::kFifo, ArbiterKind::kRoundRobin, ArbiterKind::kMatrix,
        ArbiterKind::kWeightedCredit}) {
    ArbiterConfig cfg;
    cfg.kind = k;
    auto arb = Arbiter::create(cfg, 1);
    const std::uint64_t seq[1] = {5};
    EXPECT_EQ(arb->grant(seq, 1), 0U) << arbiter_kind_name(k);
  }
}

TEST(Arbiter, RoundRobinRotatesAndSkipsIdleTenants) {
  auto arb = make(ArbiterKind::kRoundRobin);
  const std::uint64_t all[3] = {0, 1, 2};
  EXPECT_EQ(arb->grant(all, 3), 0U);
  EXPECT_EQ(arb->grant(all, 3), 1U);
  EXPECT_EQ(arb->grant(all, 3), 2U);
  EXPECT_EQ(arb->grant(all, 3), 0U);
  const std::uint64_t gap[3] = {3, kNone, 4};
  EXPECT_EQ(arb->grant(gap, 3), 2U);  // next after 0, skipping idle 1
  EXPECT_EQ(arb->grant(gap, 3), 0U);  // wraps
}

TEST(Arbiter, MatrixServesTheLeastRecentlyServedRequester) {
  auto arb = make(ArbiterKind::kMatrix);
  const std::uint64_t all[3] = {0, 1, 2};
  // Fresh matrix ranks by index; each winner drops to the back, so a
  // fully-backlogged queue round-robins...
  EXPECT_EQ(arb->grant(all, 3), 0U);
  EXPECT_EQ(arb->grant(all, 3), 1U);
  const std::uint64_t pair[3] = {5, kNone, 6};
  // ...and with 1 idle, tenant 2 (served never) outranks tenant 0
  // (served two grants ago).
  EXPECT_EQ(arb->grant(pair, 3), 2U);
  EXPECT_EQ(arb->grant(pair, 3), 0U);
  EXPECT_EQ(arb->grant(pair, 3), 2U);
}

TEST(Arbiter, WeightedCreditHonorsSharesUnderSaturation) {
  auto arb = make(ArbiterKind::kWeightedCredit, {3.0, 1.0});
  const std::uint64_t all[2] = {0, 1};
  std::size_t grants[2] = {0, 0};
  std::size_t since_light = 0;  // grants since tenant 1 was last served
  for (int i = 0; i < 400; ++i) {
    const std::size_t g = arb->grant(all, 2);
    ++grants[g];
    if (g == 1) {
      since_light = 0;
    } else {
      // Starvation bound: weight 1 of total 4 is served at least every
      // ceil(W/w) = 4 grants, even against a 3x-heavier competitor.
      ASSERT_LT(++since_light, 4U) << "grant " << i;
    }
  }
  EXPECT_EQ(grants[0], 300U);  // exact 3:1 split under saturation
  EXPECT_EQ(grants[1], 100U);
}

TEST(Arbiter, WeightedCreditZeroWeightTenantIsBackgroundOnly) {
  auto arb = make(ArbiterKind::kWeightedCredit, {1.0, 0.0});
  const std::uint64_t both[2] = {0, 1};
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(arb->grant(both, 2), 0U);  // never while tenant 0 asks
  }
  const std::uint64_t only_bg[2] = {kNone, 9};
  EXPECT_EQ(arb->grant(only_bg, 2), 1U);  // served once the queue clears
}

// ------------------------------------------------------- JobQueue level

ShotBatch tenant_batch(std::uint64_t job, std::uint32_t tenant,
                       JobPriority priority = JobPriority::kNormal) {
  ShotBatch b;
  b.job = job;
  b.qpu = 0;
  b.tenant = tenant;
  b.priority = priority;
  return b;
}

TEST(JobQueueTenants, RoundRobinArbiterInterleavesTenantSubQueues) {
  ArbiterConfig arb;
  arb.kind = ArbiterKind::kRoundRobin;
  JobQueue q(1, 16, "serve.queue.depth.test_rr", 0, 2, arb);
  ASSERT_TRUE(q.try_push_all({tenant_batch(0, 0)}));
  ASSERT_TRUE(q.try_push_all({tenant_batch(1, 0)}));
  ASSERT_TRUE(q.try_push_all({tenant_batch(2, 1)}));
  ASSERT_TRUE(q.try_push_all({tenant_batch(3, 1)}));
  EXPECT_EQ(q.tenant_depth(0), 2U);
  EXPECT_EQ(q.tenant_depth(1), 2U);
  q.close();  // popping dry blocks otherwise
  ShotBatch out;
  std::vector<std::uint64_t> order;
  while (q.pop(0, &out)) {
    order.push_back(out.job);
    q.task_done();
  }
  // FIFO would drain 0,1,2,3; round-robin alternates the tenants while
  // preserving each tenant's own arrival order.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 2, 1, 3}));
  EXPECT_EQ(q.tenant_depth(0), 0U);
  EXPECT_EQ(q.arbiter_grants(), 4U);
}

TEST(JobQueueTenants, FifoArbiterReproducesLegacyGlobalOrder) {
  ArbiterConfig arb;  // kFifo
  JobQueue q(1, 16, "serve.queue.depth.test_fifo", 0, 3, arb);
  for (std::uint64_t j = 0; j < 6; ++j) {
    ASSERT_TRUE(q.try_push_all({tenant_batch(j, j % 3)}));
  }
  ShotBatch out;
  for (std::uint64_t j = 0; j < 6; ++j) {
    ASSERT_TRUE(q.pop(0, &out));
    EXPECT_EQ(out.job, j);  // exactly the single-tenant pop order
    q.task_done();
  }
}

TEST(JobQueueTenants, PriorityStillOutranksArbitration) {
  ArbiterConfig arb;
  arb.kind = ArbiterKind::kWeightedCredit;
  arb.weights = {100.0, 1.0};
  JobQueue q(1, 16, "serve.queue.depth.test_pri", 0, 2, arb);
  ASSERT_TRUE(q.try_push_all({tenant_batch(0, 0)}));
  ASSERT_TRUE(q.try_push_all({tenant_batch(1, 1, JobPriority::kHigh)}));
  ShotBatch out;
  ASSERT_TRUE(q.pop(0, &out));
  // Priority lanes are scanned first; the arbiter only orders tenants
  // *within* a lane.
  EXPECT_EQ(out.job, 1U);
  q.task_done();
  ASSERT_TRUE(q.pop(0, &out));
  EXPECT_EQ(out.job, 0U);
  q.task_done();
}

// -------------------------------------------------------- runtime level

class TenantServeFixture : public ::testing::Test {
 protected:
  TenantServeFixture()
      : model_(qnn::Backbone::kCRz, 2, 2),
        split_(data::prepare_case({"iris", 2, 2})) {
    core::TrainConfig cfg;
    trainer_ = std::make_unique<core::DistributedTrainer>(
        model_, device::table3_fleet_subset(6, 2), cfg);
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

  std::vector<JobSpec> make_jobs(std::size_t n,
                                 const std::vector<std::string>& tenants) {
    std::vector<JobSpec> jobs;
    for (std::size_t i = 0; i < n; ++i) {
      JobSpec spec;
      spec.features = split_.test_features[i % split_.test_features.size()];
      spec.label = split_.test_labels[i % split_.test_labels.size()];
      if (!tenants.empty()) spec.tenant = tenants[i % tenants.size()];
      jobs.push_back(std::move(spec));
    }
    return jobs;
  }

  ServeConfig base_config(int shards) const {
    ServeConfig cfg;
    cfg.shots_per_job = 60;
    cfg.trajectories = 4;
    cfg.queue_capacity = 4096;
    cfg.backoff_base_us = 0.0;
    cfg.num_shards = shards;
    return cfg;
  }

  std::vector<JobResult> run(const ServeConfig& cfg,
                             const std::vector<JobSpec>& jobs,
                             ServingReport* report = nullptr) const {
    ServingRuntime runtime(trainer_->executors(), weights_,
                           trainer_->behavioral_vectors(), cfg);
    for (const JobSpec& spec : jobs) runtime.submit(spec);
    runtime.drain();
    if (report != nullptr) *report = runtime.report();
    return runtime.results();
  }

  static void expect_bit_identical(const std::vector<JobResult>& a,
                                   const std::vector<JobResult>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].status, b[i].status) << "job " << i;
      EXPECT_EQ(a[i].probability, b[i].probability) << "job " << i;
      EXPECT_EQ(a[i].virtual_latency_us, b[i].virtual_latency_us)
          << "job " << i;
      EXPECT_EQ(a[i].admit_virtual_us, b[i].admit_virtual_us) << "job " << i;
      EXPECT_EQ(a[i].tenant, b[i].tenant) << "job " << i;
    }
  }

  qnn::QnnModel model_;
  data::EncodedSplit split_;
  std::unique_ptr<core::DistributedTrainer> trainer_;
  std::vector<std::vector<double>> weights_;
};

TEST_F(TenantServeFixture, AdmittedSetBitIdenticalAcrossShardsPerArbiter) {
  std::vector<TenantSpec> tenants(3);
  tenants[0] = {"alpha", 3.0, 0, 0.0, 1.0};
  tenants[1] = {"beta", 1.0, /*max_in_flight=*/2, 0.0, 1.0};
  tenants[2] = {"gamma", 1.0, 0, /*admit_rate_per_s=*/400.0,
                /*admit_burst=*/3.0};
  const auto jobs = make_jobs(36, {"alpha", "beta", "gamma"});
  for (ArbiterKind kind :
       {ArbiterKind::kFifo, ArbiterKind::kRoundRobin, ArbiterKind::kMatrix,
        ArbiterKind::kWeightedCredit}) {
    ServeConfig one = base_config(1);
    one.arbiter = kind;
    one.tenants = tenants;
    ServeConfig two = one;
    two.num_shards = 2;
    ServeConfig three = one;
    three.num_shards = 3;
    const auto a = run(one, jobs);
    expect_bit_identical(a, run(two, jobs));
    expect_bit_identical(a, run(three, jobs));
    // The quota knobs really fired: the equality above covered the
    // reject paths, not just clean admission.
    std::size_t rejected = 0;
    for (const JobResult& r : a) {
      if (r.status == JobStatus::kRejected) ++rejected;
    }
    EXPECT_GT(rejected, 0U) << arbiter_kind_name(kind);
  }
}

TEST_F(TenantServeFixture, StagedReplayWaitInclusiveLatencyBitIdentical) {
  // Regression: every staged batch must sit in the arbitrated queue
  // before any worker runs. If a worker could pop a lane while staged
  // batches were still on their way into the queue, set-sensitive
  // arbiters would grant over a partial backlog and the wait-inclusive
  // latencies would vary run to run.
  std::vector<TenantSpec> tenants(3);
  tenants[0] = {"alpha", 4.0, 0, 0.0, 1.0};
  tenants[1] = {"beta", 1.0, 0, 0.0, 1.0};
  tenants[2] = {"gamma", 8.0, 0, 0.0, 1.0};
  const auto jobs = make_jobs(60, {"alpha", "beta", "gamma"});
  for (ArbiterKind kind :
       {ArbiterKind::kRoundRobin, ArbiterKind::kMatrix,
        ArbiterKind::kWeightedCredit}) {
    const auto staged = [&](int shards) {
      ServeConfig cfg = base_config(shards);
      cfg.arbiter = kind;
      cfg.tenants = tenants;
      cfg.autostart = false;
      cfg.model_queue_wait = true;
      cfg.workers_per_shard = 2;
      ServingRuntime runtime(trainer_->executors(), weights_,
                             trainer_->behavioral_vectors(), cfg);
      for (const JobSpec& spec : jobs) runtime.submit(spec);
      runtime.start();
      runtime.drain();
      return runtime.results();
    };
    const auto a = staged(1);
    expect_bit_identical(a, staged(1));
    const auto b = staged(2);
    expect_bit_identical(a, b);
    expect_bit_identical(a, staged(2));
  }
}

TEST_F(TenantServeFixture, SingleTenantTableMatchesNoTableResults) {
  const auto plain = make_jobs(12, {});
  auto named = plain;
  for (JobSpec& spec : named) spec.tenant = "solo";
  ServeConfig bare = base_config(2);
  ServeConfig tabled = base_config(2);
  tabled.tenants = {{"solo", 1.0, 0, 0.0, 1.0}};
  tabled.arbiter = ArbiterKind::kWeightedCredit;
  const auto a = run(bare, plain);
  const auto b = run(tabled, named);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status);
    EXPECT_EQ(a[i].probability, b[i].probability);
    EXPECT_EQ(a[i].virtual_latency_us, b[i].virtual_latency_us);
  }
}

TEST_F(TenantServeFixture, QuotaExhaustionMidBurstRecoversOnModeledTime) {
  ServeConfig cfg = base_config(1);
  cfg.tenants = {{"burst", 1.0, /*max_in_flight=*/1, 0.0, 1.0}};
  ServingRuntime runtime(trainer_->executors(), weights_,
                         trainer_->behavioral_vectors(), cfg);
  auto jobs = make_jobs(3, {"burst"});
  // Back-to-back closed-loop submits: the first occupies the single
  // in-flight slot until its modeled completion; the burst behind it is
  // quota-rejected synchronously.
  EXPECT_TRUE(runtime.submit(jobs[0]).has_value());
  EXPECT_FALSE(runtime.submit(jobs[1]).has_value());
  EXPECT_FALSE(runtime.submit(jobs[2]).has_value());
  // An open-loop arrival far past the modeled completion retires the
  // in-flight window and admits again — recovery is purely modeled
  // time, no wall clock involved.
  JobSpec late = jobs[1];
  late.arrival_us = 1e9;
  EXPECT_TRUE(runtime.submit(late).has_value());
  runtime.drain();
  const ServingReport rep = runtime.report();
  ASSERT_EQ(rep.tenants.size(), 2U);  // "burst" + the "other" catch-all
  EXPECT_EQ(rep.tenants[0].name, "burst");
  EXPECT_EQ(rep.tenants[0].submitted, 4U);
  EXPECT_EQ(rep.tenants[0].quota_rejected, 2U);
  EXPECT_EQ(rep.tenants[0].admitted, 2U);
  EXPECT_EQ(rep.tenants[0].completed, 2U);
}

TEST_F(TenantServeFixture, AdmissionCreditsThrottleAndRefill) {
  ServeConfig cfg = base_config(1);
  cfg.tenants = {{"metered", 1.0, 0, /*admit_rate_per_s=*/1.0,
                  /*admit_burst=*/2.0}};
  ServingRuntime runtime(trainer_->executors(), weights_,
                         trainer_->behavioral_vectors(), cfg);
  auto jobs = make_jobs(3, {"metered"});
  EXPECT_TRUE(runtime.submit(jobs[0]).has_value());   // token 2 -> 1
  EXPECT_TRUE(runtime.submit(jobs[1]).has_value());   // token 1 -> 0
  EXPECT_FALSE(runtime.submit(jobs[2]).has_value());  // dry: throttled
  JobSpec late = jobs[2];
  late.arrival_us = 5e6;  // 5 modeled seconds: bucket refills to burst
  EXPECT_TRUE(runtime.submit(late).has_value());
  runtime.drain();
  const ServingReport rep = runtime.report();
  EXPECT_EQ(rep.tenants[0].throttled, 1U);
  EXPECT_EQ(rep.tenants[0].admitted, 3U);
}

TEST_F(TenantServeFixture, AllBestEffortMixCompletesAndReportsPerTenant) {
  ServeConfig cfg = base_config(2);
  cfg.arbiter = ArbiterKind::kWeightedCredit;
  cfg.tenants = {{"a", 2.0, 0, 0.0, 1.0},
                 {"b", 1.0, 0, 0.0, 1.0},
                 {"c", 1.0, 0, 0.0, 1.0}};
  ServingReport rep;
  const auto results = run(cfg, make_jobs(24, {"a", "b", "c"}), &rep);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.status, JobStatus::kOk);
  }
  ASSERT_EQ(rep.tenants.size(), 4U);  // a, b, c, other
  std::size_t total = 0;
  for (const TenantReport& t : rep.tenants) {
    total += t.submitted;
    if (t.name != "other") {
      EXPECT_EQ(t.submitted, 8U) << t.name;
      EXPECT_EQ(t.completed, 8U) << t.name;
      EXPECT_GT(t.p99_virtual_latency_us, 0.0) << t.name;
      EXPECT_GE(t.p99_virtual_latency_us, t.p50_virtual_latency_us);
    }
  }
  EXPECT_EQ(total, 24U);
  EXPECT_EQ(rep.tenants[3].name, "other");
  EXPECT_EQ(rep.tenants[3].submitted, 0U);
}

TEST_F(TenantServeFixture, UnknownTenantResolvesToCatchAllRow) {
  ServeConfig cfg = base_config(1);
  cfg.tenants = {{"known", 1.0, 0, 0.0, 1.0}};
  ServingReport rep;
  run(cfg, make_jobs(6, {"known", "stranger", "nobody"}), &rep);
  ASSERT_EQ(rep.tenants.size(), 2U);
  EXPECT_EQ(rep.tenants[0].submitted, 2U);  // "known"
  EXPECT_EQ(rep.tenants[1].name, "other");
  EXPECT_EQ(rep.tenants[1].submitted, 4U);  // both strangers pooled
}

TEST_F(TenantServeFixture, PerTenantDepthGaugesAndLiveDepthProbe) {
  ServeConfig cfg = base_config(2);
  cfg.tenants = {{"up", 1.0, 0, 0.0, 1.0}, {"down", 1.0, 0, 0.0, 1.0}};
  cfg.autostart = false;  // keep batches resident while we probe
  ServingRuntime runtime(trainer_->executors(), weights_,
                         trainer_->behavioral_vectors(), cfg);
  for (const JobSpec& spec : make_jobs(8, {"up", "down"})) {
    ASSERT_TRUE(runtime.submit(spec).has_value());
  }
  // submit() lands each admitted batch in its shard's queue, so before
  // start() the live depth is the whole staged backlog, split by tenant.
  std::size_t up = 0;
  std::size_t down = 0;
  for (const JobResult& r : runtime.results()) {
    (r.tenant == "up" ? up : down) += static_cast<std::size_t>(r.batches);
  }
  EXPECT_GT(up, 0U);
  EXPECT_GT(down, 0U);
  EXPECT_EQ(runtime.queue_depth(), up + down);
  const std::vector<std::size_t> live = runtime.tenant_queue_depths();
  ASSERT_EQ(live.size(), 3U);  // up, down, other
  EXPECT_EQ(live[0], up);
  EXPECT_EQ(live[1], down);
  EXPECT_EQ(live[2], 0U);
  runtime.start();
  runtime.drain();
  const std::vector<std::size_t> depths = runtime.tenant_queue_depths();
  ASSERT_EQ(depths.size(), 3U);  // up, down, other
  EXPECT_EQ(depths[0] + depths[1] + depths[2], 0U);  // drained
  if (telemetry::telemetry_runtime_enabled()) {
    auto& reg = telemetry::MetricsRegistry::global();
    EXPECT_EQ(reg.gauge("serve.queue.depth.tenant.up").value(), 0.0);
    EXPECT_EQ(reg.gauge("serve.queue.depth.tenant.down").value(), 0.0);
  }
}

// ------------------------------------------- adversarial fairness scenario

/// Weighted max-min water-filling: distribute `capacity` across tenants
/// proportional to weight, cap each at its demand, and redistribute the
/// surplus among the uncapped until none caps or capacity runs out.
std::vector<double> waterfill(const std::vector<double>& weight,
                              const std::vector<double>& demand,
                              double capacity) {
  const std::size_t n = weight.size();
  std::vector<double> share(n, 0.0);
  std::vector<bool> capped(n, false);
  for (;;) {
    double wsum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!capped[i]) wsum += std::max(0.0, weight[i]);
    }
    if (wsum <= 0.0 || capacity <= 1e-9) break;
    bool newly_capped = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (capped[i] || weight[i] <= 0.0) continue;
      if (capacity * weight[i] / wsum >= demand[i]) {
        share[i] = demand[i];
        capped[i] = true;
        capacity -= demand[i];
        newly_capped = true;
      }
    }
    if (!newly_capped) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!capped[i] && weight[i] > 0.0) {
          share[i] = capacity * weight[i] / wsum;
        }
      }
      break;
    }
  }
  return share;
}

/// Linearly interpolated percentile (q in [0, 1]).
double interpolated_percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// One flooding best-effort tenant, two heavy bulk tenants and four light
// interactive tenants (adversarial_mix) replayed as a saturated backlog
// — every arrival staged before the workers start, with wait-inclusive
// latency — through a 16-QPU cycled Table III fleet under each arbiter.
// Fairness is a Jain index over each tenant's service inside the
// modeled horizon against its water-filled share of the service the
// arbiter delivered. Weighted credit must be fair (Jain >= 0.9), keep
// the interactive p99 inside its SLO target, and admit within 10% of
// FIFO; every arbiter must be bit-identical across 1 and 2 shards and a
// rerun.
TEST(AdversarialMix, WeightedCreditIsFairInSloAndBitIdentical) {
  const qnn::QnnModel model(qnn::Backbone::kCRz, 2, 2);
  const int fleet = 16;
  const core::DistributedTrainer trainer(
      model, device::table3_fleet_cycled(fleet, 2), core::TrainConfig{});
  math::Rng wrng(42);
  std::vector<std::vector<double>> weights;
  for (int q = 0; q < fleet; ++q) {
    std::vector<double> wq(static_cast<std::size_t>(model.num_weights()));
    math::Rng qrng = wrng.split(static_cast<std::uint64_t>(q));
    for (double& x : wq) x = qrng.normal(0.0, 0.3);
    weights.push_back(std::move(wq));
  }

  // Capacity is the jobs the whole fleet completes per modeled second;
  // the horizon is sized so the mix (mean demand ~3.1x capacity) yields
  // ~600 jobs (scale 0.05 of a 12k-job scenario).
  const int shots = 96;
  double mean_lat = 0.0;
  for (const qnn::QnnExecutor& ex : trainer.executors()) {
    mean_lat += ex.shot_latency_us();
  }
  mean_lat /= static_cast<double>(fleet);
  const double capacity_jobs_per_s =
      static_cast<double>(fleet) * 1e6 /
      (static_cast<double>(shots) * mean_lat);
  const double duration_s = 600.0 / (3.12 * capacity_jobs_per_s);
  const double horizon_us = duration_s * 1e6;
  // Interactive SLO: wait-inclusive p99 within 16 serial job executions.
  const double slo_target_us = 16.0 * static_cast<double>(shots) * mean_lat;

  TrafficGenerator gen(adversarial_mix(7, duration_s, capacity_jobs_per_s));
  std::vector<GeneratedJob> stream = gen.generate_all();
  const std::vector<TenantSpec> tenants = gen.tenant_specs();
  ASSERT_EQ(stream.size(), 632U);
  // The mix draws 4 angles per job; the 2-qubit model encodes the first
  // two. Truncating after generation keeps the arrival stream intact.
  for (GeneratedJob& g : stream) g.spec.features.resize(2);
  std::map<std::string, std::size_t> tenant_index;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    tenant_index[tenants[t].name] = t;
  }
  std::vector<double> demand(tenants.size(), 0.0);
  std::vector<double> weight(tenants.size(), 0.0);
  for (const GeneratedJob& g : stream) demand[g.tenant] += 1.0;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    weight[t] = tenants[t].weight;
  }

  struct Replay {
    std::vector<JobResult> results;
    std::size_t admitted = 0;
  };
  const auto replay = [&](ArbiterKind kind, int shards) {
    ServeConfig cfg;
    cfg.shots_per_job = shots;
    cfg.backoff_base_us = 0.0;
    cfg.queue_capacity = stream.size() * 32;  // never reject on capacity
    cfg.num_shards = shards;
    cfg.workers_per_shard = 2;
    cfg.gauge_cadence_us = 0.0;
    cfg.autostart = false;
    cfg.model_queue_wait = true;
    cfg.arbiter = kind;
    cfg.tenants = tenants;
    ServingRuntime runtime(trainer.executors(), weights,
                           trainer.behavioral_vectors(), cfg);
    for (const GeneratedJob& g : stream) runtime.submit(g.spec);
    runtime.start();
    runtime.drain();
    return Replay{runtime.results(), runtime.report().admitted};
  };
  const auto expect_identical = [](const std::vector<JobResult>& a,
                                   const std::vector<JobResult>& b,
                                   ArbiterKind kind) {
    ASSERT_EQ(a.size(), b.size()) << arbiter_kind_name(kind);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].status, b[i].status) << arbiter_kind_name(kind) << i;
      EXPECT_EQ(a[i].probability, b[i].probability)
          << arbiter_kind_name(kind) << i;
      EXPECT_EQ(a[i].retries, b[i].retries) << arbiter_kind_name(kind) << i;
      EXPECT_EQ(a[i].virtual_latency_us, b[i].virtual_latency_us)
          << arbiter_kind_name(kind) << i;
      EXPECT_EQ(a[i].admit_virtual_us, b[i].admit_virtual_us)
          << arbiter_kind_name(kind) << i;
    }
  };

  std::map<ArbiterKind, Replay> last;
  for (const ArbiterKind kind :
       {ArbiterKind::kFifo, ArbiterKind::kRoundRobin, ArbiterKind::kMatrix,
        ArbiterKind::kWeightedCredit}) {
    const Replay one = replay(kind, 1);
    const Replay two = replay(kind, 2);
    expect_identical(one.results, two.results, kind);
    expect_identical(two.results, replay(kind, 2).results, kind);
    last[kind] = two;
  }

  const Replay& wc = last[ArbiterKind::kWeightedCredit];
  std::vector<double> served(tenants.size(), 0.0);
  std::vector<double> interactive_us;
  for (const JobResult& r : wc.results) {
    if (r.status != JobStatus::kOk) continue;
    if (r.admit_virtual_us + r.virtual_latency_us <= horizon_us) {
      served[tenant_index.at(r.tenant)] += 1.0;
    }
    if (r.slo_class == monitor::SloClass::kLatencyBound) {
      interactive_us.push_back(r.virtual_latency_us);
    }
  }
  double total_served = 0.0;
  for (const double s : served) total_served += s;
  const std::vector<double> entitled =
      waterfill(weight, demand, total_served);
  double sum = 0.0, sum_sq = 0.0, rated = 0.0;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    if (entitled[t] <= 1e-9) continue;
    const double ratio = served[t] / entitled[t];
    sum += ratio;
    sum_sq += ratio * ratio;
    rated += 1.0;
  }
  ASSERT_GT(sum_sq, 0.0);
  EXPECT_GE(sum * sum / (rated * sum_sq), 0.9);
  ASSERT_FALSE(interactive_us.empty());
  EXPECT_LE(interpolated_percentile(interactive_us, 0.99), slo_target_us);
  const double fifo_admitted =
      static_cast<double>(last[ArbiterKind::kFifo].admitted);
  ASSERT_GT(fifo_admitted, 0.0);
  EXPECT_LE(std::abs(static_cast<double>(wc.admitted) - fifo_admitted),
            0.10 * fifo_admitted);
}

}  // namespace
}  // namespace arbiterq::serve
