// Open-loop traffic generator tests: seeded determinism, time-ordered
// merged arrivals, Poisson rate sanity, the diurnal/bursty/adversarial
// shapes, per-tenant stream independence, the mix/shape string parsers,
// and an end-to-end drive of the serving runtime where the generated
// arrival stamps make quota decisions replay bit-identically.

#include "arbiterq/serve/trafficgen.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "arbiterq/core/trainers.hpp"
#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/math/rng.hpp"

namespace arbiterq::serve {
namespace {

TenantProfile simple_tenant(const std::string& name, double rate) {
  TenantProfile t;
  t.name = name;
  t.rate_per_s = rate;
  return t;
}

TrafficConfig steady_config(double rate, double duration_s,
                            std::uint64_t seed = 7) {
  TrafficConfig cfg;
  cfg.tenants = {simple_tenant("t0", rate)};
  cfg.duration_s = duration_s;
  cfg.seed = seed;
  return cfg;
}

TEST(TrafficGenerator, ValidatesConfig) {
  EXPECT_THROW(TrafficGenerator(TrafficConfig{}), std::invalid_argument);
  TrafficConfig bad = steady_config(0.0, 1.0);
  EXPECT_THROW(TrafficGenerator{bad}, std::invalid_argument);
  bad = steady_config(10.0, -1.0);
  EXPECT_THROW(TrafficGenerator{bad}, std::invalid_argument);
  bad = steady_config(10.0, 1.0);
  bad.diurnal_amplitude = 1.5;
  EXPECT_THROW(TrafficGenerator{bad}, std::invalid_argument);
  bad = steady_config(10.0, 1.0);
  bad.burst_duty = 0.0;
  EXPECT_THROW(TrafficGenerator{bad}, std::invalid_argument);
}

TEST(TrafficGenerator, SameSeedReproducesResetRewinds) {
  TrafficConfig cfg = steady_config(500.0, 1.0);
  cfg.tenants.push_back(simple_tenant("t1", 200.0));
  TrafficGenerator gen(cfg);
  const auto a = gen.generate_all();
  ASSERT_FALSE(a.empty());
  gen.reset();
  const auto b = gen.generate_all();
  TrafficGenerator gen2(cfg);
  const auto c = gen2.generate_all();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), c.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
    EXPECT_EQ(a[i].tenant, c[i].tenant);
    EXPECT_EQ(a[i].spec.features, c[i].spec.features);
    EXPECT_EQ(a[i].spec.label, c[i].spec.label);
  }
  cfg.seed = 8;
  const auto d = TrafficGenerator(cfg).generate_all();
  bool differs = d.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].arrival_us != d[i].arrival_us;
  }
  EXPECT_TRUE(differs);
}

TEST(TrafficGenerator, ArrivalsAscendWithinHorizonAndCarrySpecs) {
  TrafficConfig cfg = steady_config(300.0, 2.0);
  cfg.tenants.push_back(simple_tenant("t1", 300.0));
  cfg.tenants[1].slo_class = monitor::SloClass::kLatencyBound;
  cfg.tenants[1].shots = 96;
  cfg.tenants[1].deadline_us = 4'000.0;
  cfg.feature_dim = 3;
  const auto jobs = TrafficGenerator(cfg).generate_all();
  ASSERT_FALSE(jobs.empty());
  double prev = 0.0;
  for (const GeneratedJob& j : jobs) {
    EXPECT_GE(j.arrival_us, prev);
    prev = j.arrival_us;
    EXPECT_LE(j.arrival_us, 2e6);
    EXPECT_EQ(j.spec.arrival_us, j.arrival_us);
    ASSERT_EQ(j.spec.features.size(), 3U);
    for (double f : j.spec.features) {
      EXPECT_GE(f, 0.0);
      EXPECT_LT(f, 3.1416);
    }
    if (j.tenant == 1) {
      EXPECT_EQ(j.spec.tenant, "t1");
      EXPECT_EQ(j.spec.slo_class, monitor::SloClass::kLatencyBound);
      EXPECT_EQ(j.spec.shots, 96);
      EXPECT_EQ(j.spec.deadline_us, 4'000.0);
    }
  }
}

TEST(TrafficGenerator, SteadyRateMatchesPoissonExpectation) {
  const auto jobs = TrafficGenerator(steady_config(1000.0, 2.0)).generate_all();
  // 2000 expected arrivals, sigma ~45: a 5-sigma band is deterministic
  // for the fixed seed and still meaningful.
  EXPECT_GT(jobs.size(), 1775U);
  EXPECT_LT(jobs.size(), 2225U);
}

TEST(TrafficGenerator, DiurnalConcentratesInThePeakHalf) {
  TrafficConfig cfg = steady_config(800.0, 1.0);
  cfg.pattern = TrafficPattern::kDiurnal;
  cfg.diurnal_period_s = 1.0;  // sin > 0 on the first half of the run
  cfg.diurnal_amplitude = 0.9;
  std::size_t first_half = 0, second_half = 0;
  for (const GeneratedJob& j : TrafficGenerator(cfg).generate_all()) {
    (j.arrival_us < 5e5 ? first_half : second_half)++;
  }
  EXPECT_GT(first_half, 2 * second_half);
}

TEST(TrafficGenerator, BurstyConcentratesInTheDutyWindow) {
  TrafficConfig cfg = steady_config(600.0, 1.0);
  cfg.pattern = TrafficPattern::kBursty;
  cfg.burst_cycle_s = 0.2;
  cfg.burst_duty = 0.25;
  cfg.burst_multiplier = 4.0;
  cfg.burst_idle_multiplier = 0.05;
  std::size_t hot = 0, idle = 0;
  for (const GeneratedJob& j : TrafficGenerator(cfg).generate_all()) {
    const double phase = std::fmod(j.arrival_us * 1e-6, 0.2);
    (phase < 0.05 ? hot : idle)++;
  }
  // Hot windows cover 25% of the time at 80x the idle rate.
  EXPECT_GT(hot, 10 * idle);
}

TEST(TrafficGenerator, AdversarialFloodOnlyInsideItsWindow) {
  TrafficConfig cfg = steady_config(400.0, 1.0);
  cfg.pattern = TrafficPattern::kAdversarial;
  cfg.tenants[0].flood_multiplier = 5.0;
  cfg.tenants[0].flood_from_s = 0.4;
  cfg.tenants[0].flood_until_s = 0.6;
  std::size_t inside = 0, outside = 0;
  for (const GeneratedJob& j : TrafficGenerator(cfg).generate_all()) {
    const double t = j.arrival_us * 1e-6;
    (t >= 0.4 && t < 0.6 ? inside : outside)++;
  }
  // Window is 20% of the run at 5x rate: roughly equal mass in and out
  // of it; without the flood the window would hold ~20%.
  EXPECT_GT(inside, outside / 2);
  EXPECT_GT(outside, 0U);
}

TEST(TrafficGenerator, TenantStreamsAreMergeOrderIndependent) {
  TrafficConfig both = steady_config(500.0, 1.0);
  both.tenants.push_back(simple_tenant("t1", 700.0));
  TrafficConfig solo = both;
  solo.tenants.pop_back();
  std::vector<double> with_peer, alone;
  for (const GeneratedJob& j : TrafficGenerator(both).generate_all()) {
    if (j.tenant == 0) with_peer.push_back(j.arrival_us);
  }
  for (const GeneratedJob& j : TrafficGenerator(solo).generate_all()) {
    alone.push_back(j.arrival_us);
  }
  // Dropping tenant 1 must not move a single one of tenant 0's stamps:
  // each tenant draws from its own split stream.
  EXPECT_EQ(with_peer, alone);
}

TEST(TrafficPattern, NamesRoundTripAndParseRejectsUnknown) {
  for (TrafficPattern p :
       {TrafficPattern::kSteady, TrafficPattern::kDiurnal,
        TrafficPattern::kBursty, TrafficPattern::kAdversarial}) {
    EXPECT_EQ(traffic_pattern_from_string(traffic_pattern_name(p)), p);
  }
  EXPECT_THROW(traffic_pattern_from_string("lunar"), std::invalid_argument);
}

TEST(TrafficParsers, TenantProfilesParseFullSpecs) {
  const auto tenants = parse_tenant_profiles(
      "int0,class=latency_bound,rate=20,weight=8,shots=128,deadline_us=5000,"
      "max_in_flight=4,admit_rate=25,admit_burst=8;"
      "flood,class=best,rate=300,flood=5,flood_from=0.2,flood_until=0.8");
  ASSERT_EQ(tenants.size(), 2U);
  EXPECT_EQ(tenants[0].name, "int0");
  EXPECT_EQ(tenants[0].slo_class, monitor::SloClass::kLatencyBound);
  EXPECT_EQ(tenants[0].rate_per_s, 20.0);
  EXPECT_EQ(tenants[0].weight, 8.0);
  EXPECT_EQ(tenants[0].shots, 128);
  EXPECT_EQ(tenants[0].deadline_us, 5000.0);
  EXPECT_EQ(tenants[0].max_in_flight, 4U);
  EXPECT_EQ(tenants[0].admit_rate_per_s, 25.0);
  EXPECT_EQ(tenants[0].admit_burst, 8.0);
  EXPECT_EQ(tenants[1].name, "flood");
  EXPECT_EQ(tenants[1].slo_class, monitor::SloClass::kBestEffort);
  EXPECT_EQ(tenants[1].flood_multiplier, 5.0);
  EXPECT_EQ(tenants[1].flood_from_s, 0.2);
  EXPECT_EQ(tenants[1].flood_until_s, 0.8);
}

TEST(TrafficParsers, RejectMalformedTenantSpecs) {
  EXPECT_THROW(parse_tenant_profiles(""), std::invalid_argument);
  EXPECT_THROW(parse_tenant_profiles("a;a"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_profiles("a,rate=x"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_profiles("a,bogus=1"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_profiles("a,class=gold"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_profiles("rate=5"), std::invalid_argument);
}

TEST(TrafficParsers, TenantIntegerKeysRejectWhatACastCannotHold) {
  // Integer keys are read over the whole field as one non-negative
  // integer: no exponent, fraction, sign, NaN or out-of-range value
  // reaches a cast.
  for (const char* spec :
       {"a,shots=1e20", "a,shots=2147483648", "a,shots=-1", "a,shots=nan",
        "a,shots=12.5", "a,shots=", "a,max_in_flight=-1",
        "a,max_in_flight=inf", "a,max_in_flight=1e30",
        "a,max_in_flight=18446744073709551616", "a,max_in_flight=4x"}) {
    EXPECT_THROW(parse_tenant_profiles(spec), std::invalid_argument) << spec;
  }
  const auto t = parse_tenant_profiles("a,shots=2147483647,max_in_flight=0");
  EXPECT_EQ(t[0].shots, 2147483647);
  EXPECT_EQ(t[0].max_in_flight, 0U);
}

TEST(TrafficParsers, TrafficSpecParsesPatternAndKeys) {
  const TrafficConfig cfg = parse_traffic_spec(
      "diurnal,duration=2,seed=9,dim=6,period=0.5,amplitude=0.7");
  EXPECT_EQ(cfg.pattern, TrafficPattern::kDiurnal);
  EXPECT_EQ(cfg.duration_s, 2.0);
  EXPECT_EQ(cfg.seed, 9U);
  EXPECT_EQ(cfg.feature_dim, 6U);
  EXPECT_EQ(cfg.diurnal_period_s, 0.5);
  EXPECT_EQ(cfg.diurnal_amplitude, 0.7);
  EXPECT_THROW(parse_traffic_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_traffic_spec("steady,warp=9"), std::invalid_argument);
}

TEST(TrafficParsers, TrafficIntegerKeysRejectWhatACastCannotHold) {
  for (const char* spec :
       {"steady,seed=nan", "steady,seed=-1", "steady,seed=1e20",
        "steady,seed=18446744073709551616", "steady,seed=0x10",
        "steady,dim=-3", "steady,dim=inf", "steady,dim=2.5",
        "steady,dim= "}) {
    EXPECT_THROW(parse_traffic_spec(spec), std::invalid_argument) << spec;
  }
  const TrafficConfig cfg =
      parse_traffic_spec("steady,seed=18446744073709551615,dim=3");
  EXPECT_EQ(cfg.seed, 18446744073709551615ULL);
  EXPECT_EQ(cfg.feature_dim, 3U);
}

TEST(TrafficParsers, AdversarialMixScalesToFleetCapacity) {
  const TrafficConfig cfg = adversarial_mix(3, 2.0, 100.0);
  ASSERT_EQ(cfg.tenants.size(), 7U);
  EXPECT_EQ(cfg.pattern, TrafficPattern::kAdversarial);
  EXPECT_EQ(cfg.tenants[0].name, "flood");
  EXPECT_EQ(cfg.tenants[0].rate_per_s, 60.0);
  EXPECT_EQ(cfg.tenants[0].flood_multiplier, 5.0);
  EXPECT_EQ(cfg.tenants[1].rate_per_s, 50.0);
  EXPECT_EQ(cfg.tenants[3].name, "int0");
  EXPECT_EQ(cfg.tenants[3].rate_per_s, 2.0);
  EXPECT_EQ(cfg.tenants[3].slo_class, monitor::SloClass::kLatencyBound);
  EXPECT_THROW(adversarial_mix(3, 0.0, 100.0), std::invalid_argument);
}

TEST(TrafficGenerator, TenantSpecsProjectQuotaProfiles) {
  TrafficConfig cfg = steady_config(10.0, 1.0);
  cfg.tenants[0].weight = 4.0;
  cfg.tenants[0].max_in_flight = 3;
  cfg.tenants[0].admit_rate_per_s = 2.5;
  cfg.tenants[0].admit_burst = 6.0;
  const auto specs = TrafficGenerator(cfg).tenant_specs();
  ASSERT_EQ(specs.size(), 1U);
  EXPECT_EQ(specs[0].name, "t0");
  EXPECT_EQ(specs[0].weight, 4.0);
  EXPECT_EQ(specs[0].max_in_flight, 3U);
  EXPECT_EQ(specs[0].admit_rate_per_s, 2.5);
  EXPECT_EQ(specs[0].admit_burst, 6.0);
}

// ---------------------------------------------------------- end to end

TEST(TrafficGeneratorRuntime, OpenLoopDriveReplaysBitIdentically) {
  qnn::QnnModel model(qnn::Backbone::kCRz, 2, 2);
  core::TrainConfig tcfg;
  core::DistributedTrainer trainer(model, device::table3_fleet_subset(6, 2),
                                   tcfg);
  math::Rng rng(42);
  std::vector<std::vector<double>> weights;
  std::vector<double> base(static_cast<std::size_t>(model.num_weights()));
  for (double& w : base) w = rng.normal(0.0, 0.3);
  for (std::size_t q = 0; q < trainer.fleet_size(); ++q) {
    std::vector<double> w = base;
    math::Rng qrng = rng.split(q);
    for (double& x : w) x += qrng.normal(0.0, 0.05);
    weights.push_back(std::move(w));
  }

  TrafficConfig traffic;
  traffic.tenants = {simple_tenant("fast", 400.0),
                     simple_tenant("greedy", 400.0)};
  traffic.tenants[0].slo_class = monitor::SloClass::kLatencyBound;
  traffic.tenants[1].max_in_flight = 2;  // quota rejects must fire
  traffic.duration_s = 0.05;
  traffic.seed = 13;
  traffic.feature_dim = 2;  // the 2-qubit model's encoding width
  TrafficGenerator gen(traffic);
  const auto arrivals = gen.generate_all();
  ASSERT_FALSE(arrivals.empty());

  auto run = [&](int shards) {
    ServeConfig cfg;
    cfg.shots_per_job = 40;
    cfg.queue_capacity = 4096;
    cfg.backoff_base_us = 0.0;
    cfg.num_shards = shards;
    cfg.arbiter = ArbiterKind::kWeightedCredit;
    cfg.tenants = gen.tenant_specs();
    ServingRuntime runtime(trainer.executors(), weights,
                           trainer.behavioral_vectors(), cfg);
    for (const GeneratedJob& j : arrivals) runtime.submit(j.spec);
    runtime.drain();
    return runtime.results();
  };

  const auto one = run(1);
  const auto two = run(2);
  const auto rerun = run(2);
  ASSERT_EQ(one.size(), arrivals.size());
  std::size_t quota_rejects = 0;
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].status, two[i].status) << "job " << i;
    EXPECT_EQ(one[i].probability, two[i].probability) << "job " << i;
    EXPECT_EQ(one[i].admit_virtual_us, two[i].admit_virtual_us)
        << "job " << i;
    EXPECT_EQ(two[i].status, rerun[i].status) << "job " << i;
    EXPECT_EQ(two[i].virtual_latency_us, rerun[i].virtual_latency_us)
        << "job " << i;
    if (one[i].status == JobStatus::kRejected) ++quota_rejects;
  }
  EXPECT_GT(quota_rejects, 0U);
}

}  // namespace
}  // namespace arbiterq::serve
