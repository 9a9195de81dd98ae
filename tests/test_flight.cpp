// FlightRecorder: ring bounds and eviction, JSONL shape (parse_json_line
// round trip), byte-identical dumps across reruns, and the integration
// path — a faulted serving run whose expired and retry-exhausted jobs all
// leave reconstructible postmortems.

#include "arbiterq/serve/flight_recorder.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arbiterq/core/trainers.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/report/jsonl.hpp"
#include "arbiterq/serve/fault_injector.hpp"
#include "arbiterq/serve/runtime.hpp"

namespace arbiterq::serve {
namespace {

FlightRecord make_record(std::uint64_t job) {
  FlightRecord r;
  r.job = job;
  r.tenant = "t";
  r.slo_class = "best_effort";
  r.status = "expired";
  r.events.push_back({FlightEventKind::kRoute, -1, 0, -1, 0.0, 1.0});
  r.events.push_back({FlightEventKind::kExpire, 0, 0, 3, 42.5, 0.0});
  return r;
}

TEST(FlightRecorder, KindNamesCoverEveryEvent) {
  EXPECT_EQ(flight_event_kind_name(FlightEventKind::kRoute), "route");
  EXPECT_EQ(flight_event_kind_name(FlightEventKind::kReject), "reject");
  EXPECT_EQ(flight_event_kind_name(FlightEventKind::kExecute), "execute");
  EXPECT_EQ(flight_event_kind_name(FlightEventKind::kDropoutFault),
            "dropout_fault");
  EXPECT_EQ(flight_event_kind_name(FlightEventKind::kTransientFault),
            "transient_fault");
  EXPECT_EQ(flight_event_kind_name(FlightEventKind::kLatencySpike),
            "latency_spike");
  EXPECT_EQ(flight_event_kind_name(FlightEventKind::kBackoff), "backoff");
  EXPECT_EQ(flight_event_kind_name(FlightEventKind::kReroute), "reroute");
  EXPECT_EQ(flight_event_kind_name(FlightEventKind::kExpire), "expire");
  EXPECT_EQ(flight_event_kind_name(FlightEventKind::kRetriesExhausted),
            "retries_exhausted");
}

TEST(FlightRecorder, ZeroCapacityThrows) {
  EXPECT_THROW(FlightRecorder(0), std::invalid_argument);
}

TEST(FlightRecorder, RingEvictsOldestAndCountsDrops) {
  FlightRecorder rec(2);
  rec.record(make_record(10));
  rec.record(make_record(11));
  rec.record(make_record(12));
  EXPECT_EQ(rec.size(), 2U);
  EXPECT_EQ(rec.total_recorded(), 3U);
  EXPECT_EQ(rec.dropped(), 1U);
  const std::vector<FlightRecord> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 2U);
  EXPECT_EQ(snap[0].job, 11U);  // oldest (10) evicted
  EXPECT_EQ(snap[1].job, 12U);
}

TEST(FlightRecorder, JsonlIsSortedByJobAndParses) {
  FlightRecorder rec(8);
  // Recorded out of job order (completion order is schedule-dependent).
  rec.record(make_record(7));
  rec.record(make_record(3));
  rec.record(make_record(5));
  const std::string jsonl = rec.to_jsonl();
  std::istringstream is(jsonl);
  std::string line;
  std::vector<std::uint64_t> jobs;
  while (std::getline(is, line)) {
    const auto obj = report::parse_json_line(line);
    ASSERT_TRUE(obj.has_value()) << line;
    EXPECT_EQ(obj->at("type").string, "flight");
    jobs.push_back(static_cast<std::uint64_t>(obj->at("job").number));
    // Parallel event arrays agree in length.
    const std::size_t n = obj->at("ev_kind").array.size();
    EXPECT_EQ(obj->at("ev_slot").array.size(), n);
    EXPECT_EQ(obj->at("ev_attempt").array.size(), n);
    EXPECT_EQ(obj->at("ev_qpu").array.size(), n);
    EXPECT_EQ(obj->at("ev_vus").array.size(), n);
    EXPECT_EQ(obj->at("ev_value").array.size(), n);
    EXPECT_EQ(obj->at("ev_kind").array[0].string, "route");
  }
  EXPECT_EQ(jobs, (std::vector<std::uint64_t>{3, 5, 7}));
}

TEST(FlightRecorder, WriteRoundTripAndBadPath) {
  FlightRecorder rec(4);
  rec.record(make_record(1));
  const std::string path = testing::TempDir() + "arbiterq_flight.jsonl";
  rec.write_jsonl(path);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, rec.to_jsonl());
  std::remove(path.c_str());
  EXPECT_THROW(rec.write_jsonl("/nonexistent-dir/x/f.jsonl"),
               std::runtime_error);
}

// ------------------------------------------------ runtime integration

class FlightFixture : public ::testing::Test {
 protected:
  FlightFixture()
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

  std::vector<JobSpec> make_jobs(std::size_t n) const {
    std::vector<JobSpec> jobs;
    for (std::size_t i = 0; i < n; ++i) {
      JobSpec spec;
      spec.features = split_.test_features[i % split_.test_features.size()];
      spec.label = split_.test_labels[i % split_.test_labels.size()];
      spec.tenant = "fixture";
      jobs.push_back(std::move(spec));
    }
    return jobs;
  }

  qnn::QnnModel model_;
  data::EncodedSplit split_;
  std::unique_ptr<core::DistributedTrainer> trainer_;
  std::vector<std::vector<double>> weights_;
};

TEST_F(FlightFixture, EveryBadJobLeavesAReconstructiblePostmortem) {
  // A faulted run that produces every kind of bad job: every 8th job
  // carries an unmeetable deadline (expired), QPU 1 dies at job 12,
  // inside the 40-job range, and transient failures with a single
  // re-route allowed exhaust some batches' retries (failed).
  ServeConfig cfg;
  cfg.shots_per_job = 32;
  cfg.trajectories = 2;
  cfg.max_retries = 1;
  cfg.backoff_base_us = 0.0;
  cfg.seed = 77;
  const FaultInjector faults(
      6, FaultInjector::parse("kill:1@12,transient:0.1,lag:8,seed:5"));
  std::vector<JobSpec> jobs = make_jobs(40);
  for (std::size_t i = 0; i < jobs.size(); i += 8) {
    jobs[i].deadline_us = 1e-3;  // far below one shot's modeled latency
  }
  const auto run = [&](FlightRecorder& flight, ServingReport* rep) {
    ServingRuntime runtime(trainer_->executors(), weights_,
                           trainer_->behavioral_vectors(), cfg, &faults,
                           nullptr, &flight);
    for (const JobSpec& spec : jobs) runtime.submit(spec);
    runtime.drain();
    *rep = runtime.report();
    return runtime.results();
  };
  FlightRecorder flight(64);
  ServingReport rep;
  const std::vector<JobResult> results = run(flight, &rep);
  EXPECT_EQ(rep.dropouts_detected, 1U);
  EXPECT_EQ(rep.rejected, 0U);
  EXPECT_GT(rep.expired, 0U);
  EXPECT_GT(rep.failed, 0U);

  std::map<std::uint64_t, JobStatus> bad;
  for (const JobResult& r : results) {
    if (r.status != JobStatus::kOk) bad[r.id] = r.status;
  }
  // One record per bad job, carrying the route decision and the event
  // that sank it; the dead QPU shows up in at least one postmortem.
  EXPECT_EQ(flight.total_recorded(), bad.size());
  std::set<std::uint64_t> recorded;
  bool saw_dropout = false;
  for (const FlightRecord& rec : flight.snapshot()) {
    ASSERT_EQ(bad.count(rec.job), 1U) << "job " << rec.job;
    recorded.insert(rec.job);
    const JobStatus status = bad[rec.job];
    EXPECT_EQ(rec.status, job_status_name(status)) << "job " << rec.job;
    EXPECT_EQ(rec.tenant, "fixture");
    ASSERT_FALSE(rec.events.empty());
    EXPECT_EQ(rec.events.front().kind, FlightEventKind::kRoute);
    const FlightEventKind cause = status == JobStatus::kExpired
                                      ? FlightEventKind::kExpire
                                      : FlightEventKind::kRetriesExhausted;
    bool saw_cause = false;
    for (const FlightEvent& e : rec.events) {
      if (e.kind == cause) saw_cause = true;
      if (e.kind == FlightEventKind::kDropoutFault) saw_dropout = true;
    }
    EXPECT_TRUE(saw_cause) << "job " << rec.job;
  }
  EXPECT_EQ(recorded.size(), bad.size());
  EXPECT_TRUE(saw_dropout);

  // Same seed, fresh runtime: the dump reproduces byte for byte.
  FlightRecorder again(64);
  ServingReport rep_again;
  run(again, &rep_again);
  EXPECT_EQ(flight.to_jsonl(), again.to_jsonl());
}

TEST_F(FlightFixture, HealthyJobsLeaveNoRecords) {
  ServeConfig cfg;
  cfg.shots_per_job = 32;
  cfg.trajectories = 2;
  FlightRecorder flight(16);
  ServingRuntime runtime(trainer_->executors(), weights_,
                         trainer_->behavioral_vectors(), cfg, nullptr,
                         nullptr, &flight);
  for (const JobSpec& spec : make_jobs(4)) runtime.submit(spec);
  runtime.drain();
  for (const JobResult& r : runtime.results()) {
    EXPECT_EQ(r.status, JobStatus::kOk);
  }
  EXPECT_EQ(flight.total_recorded(), 0U);
}

}  // namespace
}  // namespace arbiterq::serve
