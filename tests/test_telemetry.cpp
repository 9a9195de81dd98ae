// aq_telemetry: metric semantics, thread-safety, span nesting, the JSONL
// round trip, the runtime switch that makes the AQ_* macro sites inert,
// and the observational-only contract: flipping that switch, or sampling
// the registry with a live Collector, leaves training bit-identical.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "arbiterq/core/scheduler.hpp"
#include "arbiterq/core/torus.hpp"
#include "arbiterq/core/trainers.hpp"
#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/exec/parallel.hpp"
#include "arbiterq/report/jsonl.hpp"
#include "arbiterq/telemetry/export.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/profile.hpp"
#include "arbiterq/telemetry/sink.hpp"
#include "arbiterq/telemetry/timeseries.hpp"
#include "arbiterq/telemetry/trace.hpp"

namespace {

using namespace arbiterq;

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

TEST(Metrics, CounterSemantics) {
  telemetry::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSemantics) {
  telemetry::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Metrics, HistogramBucketsAndMoments) {
  telemetry::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);   // le=1
  h.observe(1.0);   // le=1 (inclusive top)
  h.observe(5.0);   // le=10
  h.observe(1e6);   // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 1e6);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(telemetry::Histogram({}), std::invalid_argument);
  EXPECT_THROW(telemetry::Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(telemetry::Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, RegistryReturnsStableHandlesAndSnapshots) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter& a = reg.counter("t.a");
  telemetry::Counter& a2 = reg.counter("t.a");
  EXPECT_EQ(&a, &a2);
  a.add(7);
  reg.gauge("t.g").set(3.0);
  reg.histogram("t.h", {1.0, 2.0}).observe(1.5);
  EXPECT_THROW(reg.histogram("t.h", {5.0}), std::invalid_argument);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "t.a");
  EXPECT_EQ(snap.counters[0].value, 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 3.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);

  reg.reset_values();
  EXPECT_EQ(a.value(), 0u);  // handle survives the reset
  const auto zeroed = reg.snapshot();
  EXPECT_EQ(zeroed.counters.size(), 1u);
  EXPECT_EQ(zeroed.counters[0].value, 0u);
  EXPECT_EQ(zeroed.histograms[0].count, 0u);
}

TEST(Metrics, ConcurrentIncrementsAreExact) {
  telemetry::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      telemetry::Counter& c = reg.counter("t.concurrent");
      telemetry::Histogram& h = reg.histogram("t.concurrent.h", {0.5});
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.observe(i % 2 == 0 ? 0.25 : 0.75);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter("t.concurrent").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto& h = reg.histogram("t.concurrent.h", {0.5});
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.bucket_counts()[0], h.bucket_counts()[1]);
}

TEST(Trace, SpanNestingOrderAndLinkage) {
  telemetry::TraceBuffer& buf = telemetry::TraceBuffer::global();
  buf.clear();
  {
    telemetry::ScopedSpan outer("t.outer");
    {
      telemetry::ScopedSpan inner("t.inner");
      EXPECT_EQ(inner.parent_id(), outer.id());
      EXPECT_EQ(inner.depth(), outer.depth() + 1);
    }
    telemetry::ScopedSpan sibling("t.sibling");
    EXPECT_EQ(sibling.parent_id(), outer.id());
  }
  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Completion order: children close before their parent.
  EXPECT_EQ(events[0].name, "t.inner");
  EXPECT_EQ(events[1].name, "t.sibling");
  EXPECT_EQ(events[2].name, "t.outer");
  EXPECT_EQ(events[0].parent_id, events[2].id);
  EXPECT_EQ(events[1].parent_id, events[2].id);
  EXPECT_EQ(events[2].parent_id, 0u);
  EXPECT_EQ(events[2].depth, 0u);
  EXPECT_EQ(events[0].depth, 1u);
  // A child's window sits inside its parent's.
  EXPECT_GE(events[0].start_ns, events[2].start_ns);
  EXPECT_LE(events[0].start_ns + events[0].duration_ns,
            events[2].start_ns + events[2].duration_ns);
  buf.clear();
}

TEST(Trace, CrossThreadSpansAreRootsInTheirOwnLane) {
  // The parent stack is thread-local: work fanned out to pool workers
  // opens spans with no parent (fresh TLS), while the chunk the caller
  // runs itself nests under the caller's open span. The Perfetto export
  // keeps one lane per recording thread either way.
  telemetry::set_telemetry_runtime_enabled(true);
  telemetry::TraceBuffer& buf = telemetry::TraceBuffer::global();
  buf.clear();
  std::uint64_t outer_id = 0;
  {
    telemetry::ScopedSpan outer("t.cross.outer");
    outer_id = outer.id();
    exec::ExecPolicy policy;
    policy.num_threads = 4;
    policy.grain = 1;
    exec::parallel_for(policy, 0, 8, [](std::size_t, std::size_t) {
      telemetry::ScopedSpan chunk("t.cross.chunk");
      // A nested span must link to its same-thread chunk parent.
      telemetry::ScopedSpan nested("t.cross.nested");
      EXPECT_EQ(nested.parent_id(), chunk.id());
    });
  }
  const auto events = buf.snapshot();
  std::uint64_t main_thread = 0;
  for (const auto& e : events) {
    if (e.name == "t.cross.outer") main_thread = e.thread_id;
  }
  // parallel_for wraps the fan-out in its own AQ_TRACE_SPAN on the
  // caller thread — present only when the macros are compiled in.
  std::uint64_t region_id = 0;
  for (const auto& e : events) {
    if (e.name == "exec.parallel.region") {
      region_id = e.id;
      EXPECT_EQ(e.parent_id, outer_id);
      EXPECT_EQ(e.thread_id, main_thread);
    }
  }
  const std::uint64_t caller_parent = region_id ? region_id : outer_id;
  const std::uint32_t caller_depth = region_id ? 2u : 1u;
  std::size_t chunks = 0;
  std::set<std::uint64_t> threads;
  for (const auto& e : events) {
    threads.insert(e.thread_id);
    if (e.name != "t.cross.chunk") continue;
    ++chunks;
    if (e.thread_id == main_thread) {
      // Caller-participation chunk: nests under the caller's open spans.
      EXPECT_EQ(e.parent_id, caller_parent);
      EXPECT_EQ(e.depth, caller_depth);
    } else {
      // Pool-worker chunk: fresh TLS, comes out as a root.
      EXPECT_EQ(e.parent_id, 0u);
      EXPECT_EQ(e.depth, 0u);
    }
  }
  EXPECT_GE(chunks, 1u);

  // One thread_name metadata event per distinct recording thread, and
  // every X event's tid stays inside [0, threads).
  const std::string json = telemetry::chrome_trace_json(events);
  std::size_t metadata = 0;
  for (std::size_t pos = json.find("\"ph\":\"M\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"M\"", pos + 1)) {
    ++metadata;
  }
  EXPECT_EQ(metadata, threads.size());
  for (std::size_t t = 0; t < threads.size(); ++t) {
    EXPECT_NE(json.find("\"tid\":" + std::to_string(t)), std::string::npos);
  }
  EXPECT_EQ(json.find("\"tid\":" + std::to_string(threads.size())),
            std::string::npos);
  buf.clear();
}

TEST(Trace, RuntimeSwitchMakesSpansAndMacrosInert) {
  telemetry::TraceBuffer& buf = telemetry::TraceBuffer::global();
  buf.clear();
  telemetry::Counter& c =
      telemetry::MetricsRegistry::global().counter("t.switch.counter");
  const std::uint64_t before = c.value();

  telemetry::set_telemetry_runtime_enabled(false);
  {
    telemetry::ScopedSpan span("t.switch.span");
    EXPECT_EQ(span.id(), 0u);  // inert: no TLS push, nothing recorded
    AQ_COUNTER_ADD("t.switch.counter", 5);
    AQ_TRACE_SPAN("t.switch.macro");
  }
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(c.value(), before);

  telemetry::set_telemetry_runtime_enabled(true);
  {
    telemetry::ScopedSpan span("t.switch.span");
    EXPECT_NE(span.id(), 0u);
  }
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
}

TEST(Trace, RingBufferDropsOldest) {
  telemetry::TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    telemetry::TraceEvent e;
    e.id = static_cast<std::uint64_t>(i + 1);
    buf.record(e);
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.total_recorded(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().id, 7u);  // oldest retained
  EXPECT_EQ(events.back().id, 10u);
}

TEST(Jsonl, EscapeRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te,f";
  const std::string line = report::JsonLine()
                               .field("s", nasty)
                               .field("n", 2.5)
                               .field("i", std::uint64_t{18446744073709551615ull})
                               .field("b", true)
                               .field("arr", std::vector<double>{1.0, -2.5})
                               .finish();
  const auto parsed = report::parse_json_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("s").string, nasty);
  EXPECT_DOUBLE_EQ(parsed->at("n").number, 2.5);
  EXPECT_TRUE(parsed->at("b").boolean);
  ASSERT_EQ(parsed->at("arr").array.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->at("arr").array[1].number, -2.5);
  EXPECT_FALSE(report::parse_json_line("{not json").has_value());
  EXPECT_FALSE(report::parse_json_line("{\"a\":1} trailing").has_value());
}

TEST(Jsonl, ExporterRoundTrip) {
  const std::string path = temp_path("telemetry_roundtrip.jsonl");
  telemetry::MetricsRegistry reg;
  reg.counter("t.rt.counter").add(5);
  reg.gauge("t.rt.gauge").set(-1.25);
  reg.histogram("t.rt.h", {1.0, 2.0}).observe(1.5);

  {
    telemetry::JsonlExporter ex(path);
    telemetry::EpochQpuRecord er;
    er.strategy = "ArbiterQ";
    er.epoch = 3;
    er.qpu = 1;
    er.online = true;
    er.churned = true;
    er.group = 0;
    er.group_size = 2;
    er.loss = 0.25;
    er.grad_norm = 1.5;
    er.shots_estimate = 640;
    ex.on_epoch(er);

    telemetry::AssignmentRecord ar;
    ar.task = 7;
    ar.torus = 2;
    ar.estimated_score = -0.01;
    ar.warmup_difficulty = 0.4;
    ar.realized_loss = 0.3;
    ar.shot_split = {{0, 100}, {3, 156}};
    ex.on_assignment(ar);

    ex.write_metrics(reg.snapshot());

    telemetry::TraceEvent ev;
    ev.name = "t.rt.span";
    ev.id = 11;
    ev.parent_id = 4;
    ev.depth = 1;
    ev.start_ns = 100;
    ev.duration_ns = 50;
    ev.thread_id = 9;
    ex.write_spans({ev});
    ex.close();
  }

  const auto lines = read_lines(path);
  // meta + epoch + assignment + 3 metrics + 1 span
  ASSERT_EQ(lines.size(), 7u);
  std::map<std::string, int> type_counts;
  for (const auto& line : lines) {
    const auto obj = report::parse_json_line(line);
    ASSERT_TRUE(obj.has_value()) << line;
    ++type_counts[obj->at("type").string];
  }
  EXPECT_EQ(type_counts["meta"], 1);
  EXPECT_EQ(type_counts["epoch"], 1);
  EXPECT_EQ(type_counts["assignment"], 1);
  EXPECT_EQ(type_counts["counter"], 1);
  EXPECT_EQ(type_counts["gauge"], 1);
  EXPECT_EQ(type_counts["histogram"], 1);
  EXPECT_EQ(type_counts["span"], 1);

  const auto epoch = report::parse_json_line(lines[1]);
  EXPECT_EQ(epoch->at("strategy").string, "ArbiterQ");
  EXPECT_EQ(epoch->at("epoch").number, 3.0);
  EXPECT_TRUE(epoch->at("churned").boolean);
  EXPECT_EQ(epoch->at("shots_est").number, 640.0);

  const auto assign = report::parse_json_line(lines[2]);
  EXPECT_EQ(assign->at("torus").number, 2.0);
  ASSERT_EQ(assign->at("split_qpu").array.size(), 2u);
  EXPECT_EQ(assign->at("split_qpu").array[1].number, 3.0);
  EXPECT_EQ(assign->at("split_shots").array[1].number, 156.0);
}

TEST(Jsonl, ExporterReportsOpenFailure) {
  EXPECT_THROW(telemetry::JsonlExporter("/nonexistent-dir/x/y.jsonl"),
               std::runtime_error);
}

TEST(Export, CsvTablesCoverSnapshot) {
  telemetry::MetricsRegistry reg;
  reg.counter("t.csv.c").add(2);
  reg.histogram("t.csv.h", {1.0}).observe(0.5);
  const auto table = telemetry::metrics_csv(reg.snapshot());
  EXPECT_EQ(table.num_rows(), 2u);
  const std::string text = table.to_string();
  EXPECT_NE(text.find("t.csv.c"), std::string::npos);
  EXPECT_NE(text.find("le=1:1"), std::string::npos);

  telemetry::TraceEvent ev;
  ev.name = "t.csv.span";
  const auto spans = telemetry::spans_csv({ev});
  EXPECT_EQ(spans.num_rows(), 1u);
}

TEST(Integration, TrainerEmitsPerEpochPerQpuRecords) {
  const data::BenchmarkCase bc{"iris", 2, 2};
  const data::EncodedSplit split = data::prepare_case(bc, 7);
  const qnn::QnnModel model(qnn::Backbone::kCRz, bc.num_qubits,
                            bc.num_layers);
  core::TrainConfig cfg;
  cfg.epochs = 3;
  cfg.offline_probability = 0.3;  // exercise churn fields
  const core::DistributedTrainer trainer(
      model, device::table3_fleet_subset(3, bc.num_qubits), cfg);

  telemetry::RecordingTelemetry rec;
  const auto result = trainer.train(core::Strategy::kArbiterQ, split, &rec);
  ASSERT_EQ(rec.epochs.size(), 3u * 3u);
  for (const auto& r : rec.epochs) {
    EXPECT_EQ(r.strategy, "ArbiterQ");
    EXPECT_GE(r.epoch, 0);
    EXPECT_LT(r.epoch, 3);
    EXPECT_GE(r.qpu, 0);
    EXPECT_LT(r.qpu, 3);
    EXPECT_GE(r.group, 0);
    EXPECT_GE(r.group_size, 1);
    EXPECT_TRUE(std::isfinite(r.loss));
    EXPECT_TRUE(std::isfinite(r.grad_norm));
    if (!r.online) EXPECT_EQ(r.shots_estimate, 0u);
  }
  // The sink must not perturb training itself.
  const auto plain = trainer.train(core::Strategy::kArbiterQ, split);
  EXPECT_EQ(plain.epoch_test_loss, result.epoch_test_loss);
}

// Instrumentation is observational only: ArbiterQ training reads the
// same per-epoch test losses with the runtime switch off, on, and on
// with a live Collector folding the registry into a store every 50 ms.
TEST(Integration, TrainingIgnoresTheSwitchAndALiveCollector) {
  // 6 qubits x 6 QPUs x 40 epochs: long enough for the Collector thread
  // to sample while the trainer's macro sites fire.
  const data::BenchmarkCase bc{"wine", 6, 2};
  const data::EncodedSplit split = data::prepare_case(bc, 42);
  const qnn::QnnModel model(qnn::Backbone::kCRz, bc.num_qubits,
                            bc.num_layers);
  core::TrainConfig cfg;
  cfg.epochs = 40;
  const core::DistributedTrainer trainer(
      model, device::table3_fleet_subset(6, bc.num_qubits), cfg);
  const auto losses = [&] {
    return trainer.train(core::Strategy::kArbiterQ, split).epoch_test_loss;
  };

  telemetry::set_telemetry_runtime_enabled(false);
  const std::vector<double> off = losses();
  telemetry::set_telemetry_runtime_enabled(true);
  const std::vector<double> on = losses();
  telemetry::TimeSeriesStore store;
  telemetry::CollectorOptions co;
  co.cadence_us = 50'000.0;
  telemetry::Collector collector(store, telemetry::MetricsRegistry::global(),
                                 co);
  collector.start();
  const std::vector<double> collected = losses();
  collector.stop();

  ASSERT_EQ(off.size(), 40u);
  EXPECT_EQ(on, off);
  EXPECT_EQ(collected, off);
}

TEST(Integration, SchedulerEmitsAssignmentRecords) {
  const data::BenchmarkCase bc{"iris", 2, 2};
  const data::EncodedSplit split = data::prepare_case(bc, 7);
  const qnn::QnnModel model(qnn::Backbone::kCRz, bc.num_qubits,
                            bc.num_layers);
  core::TrainConfig cfg;
  cfg.epochs = 2;
  const core::DistributedTrainer trainer(
      model, device::table3_fleet_subset(3, bc.num_qubits), cfg);
  const auto result = trainer.train(core::Strategy::kArbiterQ, split);
  const auto partition = core::build_torus_partition(
      trainer.behavioral_vectors(), result.weights);

  core::ScheduleConfig sc;
  sc.shots_per_task = 64;
  sc.warmup_shots = 8;
  sc.trajectories = 4;
  const core::ShotOrientedScheduler scheduler(trainer.executors(),
                                              result.weights, partition, sc);
  auto tasks = core::make_tasks(split.test_features, split.test_labels);
  tasks.resize(6);

  telemetry::RecordingTelemetry rec;
  const auto report = scheduler.run(tasks, &rec);
  ASSERT_EQ(rec.assignments.size(), tasks.size());
  for (const auto& a : rec.assignments) {
    EXPECT_LT(a.task, tasks.size());
    EXPECT_GE(a.torus, 0);
    EXPECT_LT(static_cast<std::size_t>(a.torus), partition.tori.size());
    EXPECT_FALSE(a.shot_split.empty());
    int total = 0;
    for (const auto& s : a.shot_split) total += s.shots;
    EXPECT_EQ(total, sc.shots_per_task);
    EXPECT_DOUBLE_EQ(a.realized_loss, report.per_task_loss[a.task]);
  }
}

TEST(Trace, MacroSitesRecordWhileTheSwitchIsOn) {
  telemetry::set_telemetry_runtime_enabled(true);
  telemetry::TraceBuffer& buf = telemetry::TraceBuffer::global();
  buf.clear();
  const std::uint64_t before =
      telemetry::MetricsRegistry::global().counter("t.mode.counter").value();
  {
    AQ_TRACE_SPAN("t.mode.span");
    AQ_COUNTER_ADD("t.mode.counter", 3);
    AQ_GAUGE_SET("t.mode.gauge", 1.0);
    AQ_HISTOGRAM_OBSERVE("t.mode.h", telemetry::latency_buckets_us(), 2.0);
  }
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.snapshot()[0].name, "t.mode.span");
  EXPECT_EQ(
      telemetry::MetricsRegistry::global().counter("t.mode.counter").value(),
      before + 3);
  buf.clear();
}

}  // namespace
