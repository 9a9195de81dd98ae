// arbiterq_cli: run a custom distributed-QNN experiment from the command
// line. The knobs cover everything the evaluation binaries use, so any
// table cell (and plenty the paper never tried) can be reproduced ad hoc.
//
//   arbiterq_cli --dataset wine --backbone crx --fleet 8 --epochs 50
//                --strategy arbiterq --lr 0.5 --csv run.csv
//
// Run with --help for the full flag list.

#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arbiterq/core/scheduler.hpp"
#include "arbiterq/core/torus.hpp"
#include "arbiterq/core/trainers.hpp"
#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/exec/parallel.hpp"
#include "arbiterq/monitor/health.hpp"
#include "arbiterq/monitor/slo.hpp"
#include "arbiterq/monitor/watchdog.hpp"
#include "arbiterq/report/csv.hpp"
#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/serve/flight_recorder.hpp"
#include "arbiterq/serve/runtime.hpp"
#include "arbiterq/serve/trafficgen.hpp"
#include "arbiterq/telemetry/dashboard.hpp"
#include "arbiterq/telemetry/export.hpp"
#include "arbiterq/telemetry/http.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/profile.hpp"
#include "arbiterq/telemetry/prometheus.hpp"
#include "arbiterq/telemetry/timeseries.hpp"
#include "arbiterq/telemetry/trace.hpp"

namespace {

using namespace arbiterq;

struct CliOptions {
  std::string dataset = "iris";
  std::string backbone = "crz";
  std::string strategy = "arbiterq";
  int fleet = 6;
  int epochs = 40;
  double lr = 0.8;
  int batch = 4;
  double kappa = 2000.0;
  double threshold = 1.2e-3;
  std::uint64_t seed = 42;
  int threads = 0;
  bool mitigate = false;
  bool infer = false;
  bool serve = false;
  std::string faults;
  int jobs = 0;
  double deadline_us = 0.0;
  int queue_cap = 1024;
  int shards = 1;        ///< serving shards (clamped to the fleet size)
  int shard_workers = 0; ///< workers per shard; 0 = one per QPU
  int listen = -1;       ///< scrape port; -1 = off, 0 = ephemeral
  int trace_sample = 0;  ///< per-job tracing: 0 off, 1 full, N sampled
  int linger_ms = 0;     ///< keep the scrape endpoint up after drain
  bool watch = false;    ///< live terminal dashboard during --serve
  std::string arbiter = "fifo";  ///< dequeue arbiter for --serve
  std::string tenants;   ///< tenant table spec (parse_tenant_profiles)
  std::string traffic;   ///< open-loop traffic spec (parse_traffic_spec)
  std::string tenant;
  std::string flight_out;
  std::string csv;
  std::string telemetry;
  std::string health;
  std::string trace_out;
  std::string prom_out;
};

void usage() {
  std::printf(
      "arbiterq_cli — distributed QNN training on simulated QPUs\n\n"
      "  --dataset   iris | wine | mnist | hmdb51        (default iris)\n"
      "  --backbone  crz | crx                           (default crz)\n"
      "  --strategy  single | all | eqc | arbiterq       (default arbiterq)\n"
      "  --fleet     1..10 Table III simulators          (default 6)\n"
      "  --epochs    training epochs                     (default 40)\n"
      "  --lr        learning rate                       (default 0.8)\n"
      "  --batch     minibatch size per QPU              (default 4)\n"
      "  --kappa     similarity sharpness                (default 2000)\n"
      "  --threshold grouping distance threshold         (default 1.2e-3)\n"
      "  --seed      RNG seed                            (default 42)\n"
      "  --threads   worker threads for fleet/gradient fan-out;\n"
      "              0 = auto: ARBITERQ_THREADS env var, else\n"
      "              hardware_concurrency                (default 0)\n"
      "  --no-simd   force the portable scalar gate kernels (same as\n"
      "              ARBITERQ_SIMD=OFF)\n"
      "  --mitigate  enable depolarizing error mitigation\n"
      "  --infer     run shot-oriented + batch inference afterwards\n"
      "  --serve     run the fleet serving runtime afterwards: test-set\n"
      "              jobs through the async queue + per-QPU workers\n"
      "  --faults SPEC  fault injection for --serve; comma-separated\n"
      "              kill:<qpu>@<job>, drop:<p>[@<horizon>],\n"
      "              transient:<p>, spike:<p>x<mult>, lag:<jobs>,\n"
      "              seed:<n>   e.g. \"kill:3@40,transient:0.05\"\n"
      "  --jobs N    serving jobs to submit (default: test-set size)\n"
      "  --deadline-us X  per-job modeled-time deadline for --serve\n"
      "              (default 0 = none)\n"
      "  --queue-cap N  serving admission bound in shot-batches\n"
      "              (default 1024)\n"
      "  --shards N  partition the serving fleet into N shards, each\n"
      "              with its own bounded queue and workers\n"
      "              (clamped to the fleet size; default 1).\n"
      "              Admitted results are bit-identical across N\n"
      "  --shard-workers N  worker threads per shard (each strides its\n"
      "              shard's QPU lanes; default 0 = one per QPU)\n"
      "  --listen PORT  serve a live scrape endpoint on 127.0.0.1:PORT\n"
      "              during --serve: /metrics (Prometheus text),\n"
      "              /healthz (fleet health JSON), /slo (SLO report),\n"
      "              /timeseries (windowed JSON series; filter with\n"
      "              ?name=<substring>), /dashboard (self-contained\n"
      "              HTML with sparklines)  (0 = kernel-assigned port)\n"
      "  --watch     live terminal dashboard during --serve: per-shard\n"
      "              admission rate, queue depth, p99 latency and fleet\n"
      "              health as sparkline rows (0.5s windows)\n"
      "  --trace-sample N  per-job causal tracing for --serve: 0 = off,\n"
      "              1 = every job, N = every Nth job (default 0)\n"
      "  --arbiter KIND  dequeue arbiter for --serve: fifo (default,\n"
      "              the pre-tenant order) | round_robin/rr | matrix |\n"
      "              weighted_credit/wc (per-tenant weights)\n"
      "  --tenants SPEC  tenant table for --serve: ';'-separated tenants,\n"
      "              each \"name[,key=value...]\" with keys class\n"
      "              (latency|throughput|best), weight, rate, shots,\n"
      "              deadline_us, max_in_flight, admit_rate,\n"
      "              admit_burst, flood, flood_from, flood_until — e.g.\n"
      "              \"int0,class=latency,weight=8;bulk,weight=1\"\n"
      "  --traffic SPEC  drive --serve with the open-loop generator\n"
      "              instead of the test set (requires --tenants):\n"
      "              \"<steady|diurnal|bursty|adversarial>[,key=value..]\"\n"
      "              with keys duration, seed, period, amplitude, cycle,\n"
      "              duty, mult, idle — arrivals pin the modeled\n"
      "              admission clock, so the run replays bit-identically\n"
      "  --tenant NAME  tenant label stamped on serving jobs (traces,\n"
      "              flight records, per-tenant counters)\n"
      "  --flight-out PATH  dump the flight recorder (postmortems of\n"
      "              rejected/expired/failed jobs) as JSONL\n"
      "  --linger-ms N  keep the scrape endpoint up N ms after drain\n"
      "              so a scraper can read the final state (default 0)\n"
      "  --csv PATH  dump the loss curve as CSV\n"
      "  --telemetry PATH  dump telemetry (epoch/assignment records,\n"
      "              metric counters, trace spans) as JSONL\n"
      "  --health PATH  ride a FleetHealthMonitor on the run: print the\n"
      "              per-QPU health table and write the report as JSONL\n"
      "  --trace-out PATH  export recorded spans as Chrome trace-event\n"
      "              JSON (load in Perfetto / chrome://tracing)\n"
      "  --prom-out PATH  export the metrics registry in Prometheus\n"
      "              text exposition format\n");
}

bool parse(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--help" || flag == "-h") return false;
    if (flag == "--mitigate") {
      opts->mitigate = true;
    } else if (flag == "--infer") {
      opts->infer = true;
    } else if (flag == "--serve") {
      opts->serve = true;
    } else if (flag == "--faults") {
      if (const char* v = next()) opts->faults = v;
    } else if (flag == "--jobs") {
      if (const char* v = next()) opts->jobs = std::atoi(v);
    } else if (flag == "--deadline-us") {
      if (const char* v = next()) opts->deadline_us = std::atof(v);
    } else if (flag == "--queue-cap") {
      if (const char* v = next()) opts->queue_cap = std::atoi(v);
    } else if (flag == "--shards") {
      if (const char* v = next()) opts->shards = std::atoi(v);
    } else if (flag == "--shard-workers") {
      if (const char* v = next()) opts->shard_workers = std::atoi(v);
    } else if (flag == "--listen") {
      if (const char* v = next()) opts->listen = std::atoi(v);
    } else if (flag == "--watch") {
      opts->watch = true;
    } else if (flag == "--trace-sample") {
      if (const char* v = next()) opts->trace_sample = std::atoi(v);
    } else if (flag == "--arbiter") {
      if (const char* v = next()) opts->arbiter = v;
    } else if (flag == "--tenants") {
      if (const char* v = next()) opts->tenants = v;
    } else if (flag == "--traffic") {
      if (const char* v = next()) opts->traffic = v;
    } else if (flag == "--tenant") {
      if (const char* v = next()) opts->tenant = v;
    } else if (flag == "--flight-out") {
      if (const char* v = next()) opts->flight_out = v;
    } else if (flag == "--linger-ms") {
      if (const char* v = next()) opts->linger_ms = std::atoi(v);
    } else if (flag == "--dataset") {
      if (const char* v = next()) opts->dataset = v;
    } else if (flag == "--backbone") {
      if (const char* v = next()) opts->backbone = v;
    } else if (flag == "--strategy") {
      if (const char* v = next()) opts->strategy = v;
    } else if (flag == "--fleet") {
      if (const char* v = next()) opts->fleet = std::atoi(v);
    } else if (flag == "--epochs") {
      if (const char* v = next()) opts->epochs = std::atoi(v);
    } else if (flag == "--lr") {
      if (const char* v = next()) opts->lr = std::atof(v);
    } else if (flag == "--batch") {
      if (const char* v = next()) opts->batch = std::atoi(v);
    } else if (flag == "--kappa") {
      if (const char* v = next()) opts->kappa = std::atof(v);
    } else if (flag == "--threshold") {
      if (const char* v = next()) opts->threshold = std::atof(v);
    } else if (flag == "--seed") {
      if (const char* v = next()) {
        opts->seed = static_cast<std::uint64_t>(std::atoll(v));
      }
    } else if (flag == "--threads") {
      if (const char* v = next()) opts->threads = std::atoi(v);
    } else if (flag == "--no-simd") {
      sim::kernels::set_simd_runtime_enabled(false);
    } else if (flag == "--csv") {
      if (const char* v = next()) opts->csv = v;
    } else if (flag == "--telemetry") {
      if (const char* v = next()) opts->telemetry = v;
    } else if (flag == "--health") {
      if (const char* v = next()) opts->health = v;
    } else if (flag == "--trace-out") {
      if (const char* v = next()) opts->trace_out = v;
    } else if (flag == "--prom-out") {
      if (const char* v = next()) opts->prom_out = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n\n", flag.c_str());
      return false;
    }
  }
  return true;
}

/// Last `n` plot points of the named series (exact-name match).
std::vector<double> series_plot_tail(const telemetry::TimeSeriesStore& store,
                                     const std::string& name,
                                     std::size_t n) {
  for (const telemetry::SeriesSnapshot& s : store.snapshot(name)) {
    if (s.name != name) continue;
    std::vector<double> vals = telemetry::plot_values(s);
    if (vals.size() > n) {
      vals.erase(vals.begin(),
                 vals.end() - static_cast<std::ptrdiff_t>(n));
    }
    return vals;
  }
  return {};
}

double last_finite(const std::vector<double>& vals) {
  for (auto it = vals.rbegin(); it != vals.rend(); ++it) {
    if (std::isfinite(*it)) return *it;
  }
  return 0.0;
}

/// One --watch frame: per-shard admission rate and queue depth, fleet
/// p99 latency, and the health summary, each as a sparkline row.
void render_watch_frame(const serve::ServingRuntime& runtime,
                        const telemetry::TimeSeriesStore& store,
                        monitor::FleetHealthMonitor* mon) {
  std::string frame = "\x1b[H\x1b[2J";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "arbiterq --watch | %zu shards | queue depth %zu\n",
                runtime.num_shards(), runtime.queue_depth());
  frame += buf;
  constexpr std::size_t kTail = 48;
  for (std::size_t s = 0; s < runtime.num_shards(); ++s) {
    const std::string shard = std::to_string(s);
    const std::vector<double> admit = series_plot_tail(
        store, "serve.shard" + shard + ".admitted_batches", kTail);
    const std::string depth_name =
        runtime.num_shards() > 1 ? "serve.queue.depth.shard" + shard
                                 : std::string("serve.queue.depth");
    const std::vector<double> depth =
        series_plot_tail(store, depth_name, kTail);
    std::snprintf(buf, sizeof buf, "shard %-3zu admit/s %9.1f ", s,
                  last_finite(admit));
    frame += buf;
    frame += telemetry::terminal_sparkline(admit);
    std::snprintf(buf, sizeof buf, "  depth %6.0f ",
                  last_finite(depth));
    frame += buf;
    frame += telemetry::terminal_sparkline(depth);
    frame += "\n";
  }
  const std::vector<double> p99 =
      series_plot_tail(store, "serve.job.latency_us", kTail);
  std::snprintf(buf, sizeof buf, "p99 wall latency %9.1f us ",
                last_finite(p99));
  frame += buf;
  frame += telemetry::terminal_sparkline(p99);
  frame += "\n";
  // One row per tenant slot: live resident depth plus the sampled
  // serve.queue.depth.tenant.<t> gauge trail.
  const std::vector<serve::TenantSpec>& tenants = runtime.tenants();
  const std::vector<std::size_t> depths = runtime.tenant_queue_depths();
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const std::vector<double> trail = series_plot_tail(
        store, "serve.queue.depth.tenant." + tenants[t].name, kTail);
    std::snprintf(buf, sizeof buf, "tenant %-12s depth %6zu ",
                  tenants[t].name.c_str(),
                  t < depths.size() ? depths[t] : 0);
    frame += buf;
    frame += telemetry::terminal_sparkline(trail);
    frame += "\n";
  }
  if (mon != nullptr) {
    const monitor::FleetHealthReport rep = mon->report();
    std::snprintf(buf, sizeof buf,
                  "health: %zu healthy, %zu drifting, %zu stalled, "
                  "%zu isolated | slo breaches %zu | anomalies %zu %s\n",
                  rep.healthy, rep.drifting, rep.stalled, rep.isolated,
                  rep.slo_breaches, rep.anomalies,
                  rep.worst_anomaly.c_str());
    frame += buf;
  }
  std::fwrite(frame.data(), 1, frame.size(), stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!parse(argc, argv, &opts)) {
    usage();
    return 1;
  }

  const std::map<std::string, data::BenchmarkCase> cases = {
      {"iris", {"iris", 2, 2}},
      {"wine", {"wine", 4, 2}},
      {"mnist", {"mnist", 6, 2}},
      {"hmdb51", {"hmdb51", 10, 10}},
  };
  const std::map<std::string, core::Strategy> strategies = {
      {"single", core::Strategy::kSingleNode},
      {"all", core::Strategy::kAllSharing},
      {"eqc", core::Strategy::kEqc},
      {"arbiterq", core::Strategy::kArbiterQ},
  };
  if (!cases.count(opts.dataset) || !strategies.count(opts.strategy) ||
      (opts.backbone != "crz" && opts.backbone != "crx")) {
    usage();
    return 1;
  }

  const data::BenchmarkCase& bc = cases.at(opts.dataset);
  const data::EncodedSplit split = data::prepare_case(bc, opts.seed);
  const qnn::QnnModel model(opts.backbone == "crz" ? qnn::Backbone::kCRz
                                                   : qnn::Backbone::kCRx,
                            bc.num_qubits, bc.num_layers);

  core::TrainConfig cfg;
  cfg.epochs = opts.epochs;
  cfg.learning_rate = opts.lr;
  cfg.batch_size = static_cast<std::size_t>(opts.batch);
  cfg.kappa = opts.kappa;
  cfg.distance_threshold = opts.threshold;
  cfg.seed = opts.seed;
  cfg.error_mitigation = opts.mitigate;
  cfg.exec.num_threads = opts.threads;

  std::unique_ptr<monitor::FleetHealthMonitor> mon;
  if (!opts.health.empty()) {
    mon = std::make_unique<monitor::FleetHealthMonitor>(
        static_cast<std::size_t>(opts.fleet));
    cfg.monitor = mon.get();
  }

  std::printf("dataset %s | %s | %d QPUs | strategy %s | %d epochs | "
              "%d threads | kernels %s\n",
              bc.dataset.c_str(), qnn::backbone_name(model.backbone()).c_str(),
              opts.fleet, opts.strategy.c_str(), opts.epochs,
              exec::resolve_threads(opts.threads),
              sim::kernels::arch_name(sim::kernels::active_arch()));

  const core::DistributedTrainer trainer(
      model, device::table3_fleet_subset(opts.fleet, bc.num_qubits), cfg);
  if (mon) {
    mon->set_baseline(trainer.behavioral_vectors());
    mon->observe_similarity(trainer.similarity(), opts.threshold);
  }
  std::printf("sharing groups:");
  for (const auto& g : trainer.sharing_groups()) {
    std::printf(" {");
    for (std::size_t k = 0; k < g.size(); ++k) {
      std::printf("%s%d", k ? "," : "", g[k] + 1);
    }
    std::printf("}");
  }
  std::printf("\n");

  std::unique_ptr<telemetry::JsonlExporter> tel;
  if (!opts.telemetry.empty()) {
    tel = std::make_unique<telemetry::JsonlExporter>(opts.telemetry);
  }

  const core::TrainResult r =
      trainer.train(strategies.at(opts.strategy), split, tel.get());
  std::printf("converged: epoch %d, loss %.4f (final %.4f), "
              "%zu gradient messages\n",
              r.convergence.epoch, r.convergence.loss,
              r.epoch_test_loss.back(), r.gradient_messages);

  if (!opts.csv.empty()) {
    report::loss_curves_table({{opts.strategy, r.epoch_test_loss}})
        .write(opts.csv);
    std::printf("wrote %s\n", opts.csv.c_str());
  }

  if (opts.infer) {
    const auto partition = core::build_torus_partition(
        trainer.behavioral_vectors(), r.weights);
    core::ScheduleConfig sc;
    const core::ShotOrientedScheduler scheduler(trainer.executors(),
                                                r.weights, partition, sc);
    const auto tasks =
        core::make_tasks(split.test_features, split.test_labels);
    const auto shot = scheduler.run(tasks, tel.get());
    const auto batch = core::batch_based_inference(trainer.executors(),
                                                   r.weights, tasks, sc);
    std::printf("inference: shot-oriented loss %.4f (throughput %.1f/s) | "
                "batch loss %.4f (throughput %.1f/s)\n",
                shot.mean_loss, shot.throughput_tasks_per_s,
                batch.mean_loss, batch.throughput_tasks_per_s);
  }

  if (opts.serve) {
    serve::ServeConfig sc;
    sc.queue_capacity = static_cast<std::size_t>(
        opts.queue_cap > 0 ? opts.queue_cap : 1024);
    sc.deadline_us = opts.deadline_us;
    sc.seed = opts.seed;
    sc.trace_sample_every = opts.trace_sample;
    sc.num_shards = opts.shards > 0 ? opts.shards : 1;
    sc.workers_per_shard = opts.shard_workers;
    // Multi-tenant QoS: the tenant table (quotas + weights), the dequeue
    // arbiter, and optionally the open-loop traffic generator replacing
    // the test-set submission loop.
    std::unique_ptr<serve::TrafficGenerator> traffic;
    try {
      sc.arbiter = serve::arbiter_kind_from_string(opts.arbiter);
      std::vector<serve::TenantProfile> profiles;
      if (!opts.tenants.empty()) {
        profiles = serve::parse_tenant_profiles(opts.tenants);
      }
      if (!opts.traffic.empty()) {
        if (profiles.empty()) {
          std::fprintf(stderr, "--traffic requires --tenants\n");
          return 1;
        }
        serve::TrafficConfig tc = serve::parse_traffic_spec(opts.traffic);
        tc.tenants = std::move(profiles);
        tc.feature_dim = split.test_features.empty()
                             ? 4
                             : split.test_features.front().size();
        traffic = std::make_unique<serve::TrafficGenerator>(tc);
        sc.tenants = traffic->tenant_specs();
        // Staged replay: stage the whole arrival stream before the
        // workers start so admission (quotas AND backpressure) and the
        // arbitrated dequeue order are pure functions of (config, seed)
        // — live submission would race the workers' drain and make
        // queue-full rejects wall-clock dependent.
        sc.autostart = false;
      } else {
        for (const serve::TenantProfile& p : profiles) {
          serve::TenantSpec t;
          t.name = p.name;
          t.weight = p.weight;
          t.max_in_flight = p.max_in_flight;
          t.admit_rate_per_s = p.admit_rate_per_s;
          t.admit_burst = p.admit_burst;
          sc.tenants.push_back(std::move(t));
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --arbiter/--tenants/--traffic: %s\n",
                   e.what());
      return 1;
    }
    std::unique_ptr<serve::FaultInjector> faults;
    if (!opts.faults.empty()) {
      faults = std::make_unique<serve::FaultInjector>(
          static_cast<std::size_t>(opts.fleet),
          serve::FaultInjector::parse(opts.faults));
    }
    // The scrape endpoint needs a health monitor behind /healthz even
    // when --health wasn't requested.
    std::unique_ptr<monitor::FleetHealthMonitor> serve_mon;
    monitor::FleetHealthMonitor* mon_ptr = mon.get();
    if (mon_ptr == nullptr && (opts.listen >= 0 || opts.watch)) {
      serve_mon = std::make_unique<monitor::FleetHealthMonitor>(
          static_cast<std::size_t>(opts.fleet));
      mon_ptr = serve_mon.get();
    }
    // Live telemetry store: the Collector folds 500ms wall-clock windows
    // of the global registry into it, and the runtime (sc.series) adds
    // its virtual-time serve.ts.* event series — per-shard/per-tenant
    // admission and latency keyed on the modeled admission clock. The
    // store is declared before the runtime so the handles the runtime
    // resolves in its constructor outlive it.
    std::unique_ptr<telemetry::TimeSeriesStore> store;
    std::unique_ptr<monitor::AnomalyWatchdog> watchdog;
    if (opts.listen >= 0 || opts.watch) {
      telemetry::TimeSeriesConfig tc;
      tc.window_us = 500'000.0;
      tc.max_windows = 240;
      store = std::make_unique<telemetry::TimeSeriesStore>(tc);
      watchdog = std::make_unique<monitor::AnomalyWatchdog>(
          monitor::WatchdogConfig{}, mon_ptr);
      sc.series = store.get();
    }
    serve::FlightRecorder flight;
    monitor::SloEngine slo(monitor::SloPolicy::defaults(), mon_ptr);
    serve::ServingRuntime runtime(trainer.executors(), r.weights,
                                  trainer.behavioral_vectors(), sc,
                                  faults.get(), mon_ptr, &flight, &slo);

    // The collector thread is declared after `runtime` so it stops and
    // destructs first (pre_sample reaches into the runtime).
    std::unique_ptr<telemetry::Collector> collector;
    if (store != nullptr) {
      telemetry::CollectorOptions co;
      co.cadence_us = 100'000.0;
      co.pre_sample = [&runtime] { runtime.publish_shard_metrics(); };
      co.post_sample = [&store, &watchdog] { watchdog->poll(*store); };
      collector = std::make_unique<telemetry::Collector>(
          *store, telemetry::MetricsRegistry::global(), co);
      collector->start();
    }

    telemetry::ScrapeServer scrape;
    if (opts.listen >= 0) {
      scrape.handle_text("/metrics", telemetry::prometheus_content_type(),
                         [] {
                           return telemetry::prometheus_text(
                               telemetry::MetricsRegistry::global()
                                   .snapshot());
                         });
      scrape.handle_text("/healthz", "application/json", [mon_ptr] {
        return mon_ptr->report().to_jsonl();
      });
      scrape.handle_text("/slo", "application/json",
                         [&slo] { return slo.report().to_jsonl(); });
      scrape.handle_query("/timeseries", [&store](const std::string& q) {
        telemetry::ScrapeResponse resp;
        resp.content_type = "application/json";
        resp.body = store->to_json(telemetry::query_param(q, "name"));
        return resp;
      });
      scrape.handle_text(
          "/dashboard", "text/html; charset=utf-8", [&store, mon_ptr] {
            std::string footer = "<pre>";
            footer += mon_ptr->report().to_table_string();
            footer += "</pre>";
            return telemetry::render_dashboard_html(*store, "arbiterq fleet",
                                                    "", footer);
          });
      if (scrape.start(static_cast<std::uint16_t>(opts.listen))) {
        std::printf("scrape endpoint: http://127.0.0.1:%u/metrics\n",
                    static_cast<unsigned>(scrape.port()));
      } else {
        std::fprintf(stderr, "cannot bind scrape port %d\n", opts.listen);
      }
    }

    std::atomic<bool> watch_stop{false};
    std::thread watch_thread;
    if (opts.watch) {
      watch_thread = std::thread([&] {
        while (!watch_stop.load(std::memory_order_acquire)) {
          render_watch_frame(runtime, *store, mon_ptr);
          std::this_thread::sleep_for(std::chrono::milliseconds(500));
        }
        render_watch_frame(runtime, *store, mon_ptr);
      });
    }

    if (traffic) {
      std::size_t arrivals = 0;
      while (const auto g = traffic->next()) {
        runtime.submit(g->spec);
        ++arrivals;
      }
      std::printf("traffic: %zu open-loop arrivals (%s, %.2f modeled s, "
                  "seed %llu)\n",
                  arrivals,
                  serve::traffic_pattern_name(traffic->config().pattern)
                      .c_str(),
                  traffic->config().duration_s,
                  static_cast<unsigned long long>(
                      traffic->config().seed));
      runtime.start();
    } else {
      const std::size_t n_jobs =
          opts.jobs > 0 ? static_cast<std::size_t>(opts.jobs)
                        : split.test_features.size();
      for (std::size_t i = 0; i < n_jobs; ++i) {
        serve::JobSpec spec;
        spec.features = split.test_features[i % split.test_features.size()];
        spec.label = split.test_labels[i % split.test_labels.size()];
        spec.tenant = opts.tenant;
        runtime.submit(spec);
      }
    }
    runtime.drain();
    if (watch_thread.joinable()) {
      watch_stop.store(true, std::memory_order_release);
      watch_thread.join();
    }
    const serve::ServingReport sr = runtime.report();
    std::printf(
        "serving: %zu jobs (%zu ok, %zu rejected, %zu expired, %zu "
        "failed) | %llu retries | %zu dropouts, %zu repartitions, "
        "%zu epochs | %.1f jobs/s\n",
        sr.submitted, sr.completed, sr.rejected, sr.expired, sr.failed,
        static_cast<unsigned long long>(sr.retries), sr.dropouts_detected,
        sr.repartitions, runtime.epochs(), sr.throughput_jobs_per_s);
    for (const serve::TenantReport& t : sr.tenants) {
      std::printf(
          "  tenant %-16s w %4.1f | %5zu submitted, %5zu ok, "
          "%4zu rejected (%zu quota, %zu throttled) | "
          "p50 %8.0fus p99 %8.0fus\n",
          t.name.c_str(), t.weight, t.submitted, t.completed, t.rejected,
          t.quota_rejected, t.throttled, t.p50_virtual_latency_us,
          t.p99_virtual_latency_us);
    }
    if (runtime.num_shards() > 1) {
      for (const serve::ShardStats& s : sr.shards) {
        std::printf(
            "  shard %zu: qpus [%zu,%zu) cap %zu | %llu batches, "
            "%llu reserve-rejects | cross-shard %llu in / %llu out | "
            "lock %.2fms (%llu contended)\n",
            s.shard, s.first_qpu, s.first_qpu + s.num_qpus, s.capacity,
            static_cast<unsigned long long>(s.admitted_batches),
            static_cast<unsigned long long>(s.reserve_rejects),
            static_cast<unsigned long long>(s.cross_shard_in),
            static_cast<unsigned long long>(s.cross_shard_out),
            static_cast<double>(s.lock_wait_ns) / 1e6,
            static_cast<unsigned long long>(s.lock_contentions));
      }
    }
    const telemetry::MetricsSnapshot snap =
        telemetry::MetricsRegistry::global().snapshot();
    for (const telemetry::HistogramSnapshot& h : snap.histograms) {
      if (h.name == "serve.job.latency_us" && h.count > 0) {
        std::printf("serving latency: p50 %.1fus p99 %.1fus (wall, "
                    "%llu jobs)\n",
                    h.p50(), h.p99(),
                    static_cast<unsigned long long>(h.count));
      }
    }
    std::printf("%s", slo.report().to_table_string().c_str());
    if (!opts.flight_out.empty()) {
      flight.write_jsonl(opts.flight_out);
      std::printf("wrote %s (%zu flight records, %zu dropped)\n",
                  opts.flight_out.c_str(), flight.size(), flight.dropped());
    }
    if (scrape.running() && opts.linger_ms > 0) {
      std::printf("scrape endpoint lingering %d ms...\n", opts.linger_ms);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts.linger_ms));
    }
    scrape.stop();
    if (collector) {
      collector->stop();
      if (watchdog->anomaly_count() > 0) {
        const monitor::FleetHealthReport rep = mon_ptr->report();
        std::printf("watchdog: %zu anomalies (worst %s, score %.2f)\n",
                    watchdog->anomaly_count(), rep.worst_anomaly.c_str(),
                    rep.worst_anomaly_score);
      }
    }
  }

  if (tel) {
    tel->write_global_state();
    tel->close();
    std::printf("wrote %s (%zu telemetry lines)\n", opts.telemetry.c_str(),
                tel->lines_written());
  }

  if (mon) {
    const monitor::FleetHealthReport rep = mon->report();
    std::printf("%s", rep.to_table_string().c_str());
    std::FILE* f = std::fopen(opts.health.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", opts.health.c_str());
      return 1;
    }
    const std::string jsonl = rep.to_jsonl();
    std::fwrite(jsonl.data(), 1, jsonl.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", opts.health.c_str());
  }
  if (!opts.trace_out.empty()) {
    telemetry::write_chrome_trace(opts.trace_out,
                                  telemetry::TraceBuffer::global().snapshot());
    std::printf("wrote %s\n", opts.trace_out.c_str());
  }
  if (!opts.prom_out.empty()) {
    telemetry::write_prometheus(
        opts.prom_out, telemetry::MetricsRegistry::global().snapshot());
    std::printf("wrote %s\n", opts.prom_out.c_str());
  }
  return 0;
}
