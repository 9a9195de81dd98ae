#include "harness.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>

#include "arbiterq/sim/exec_plan.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/profile.hpp"

namespace e2e {

namespace tel = arbiterq::telemetry;

namespace {

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0, 0.0};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  // CPython's statistics.quantiles, method="exclusive", n=4.
  const long long ld = static_cast<long long>(v.size());
  const long long m = ld + 1;
  std::array<double, 3> out{};
  for (long long i = 1; i < 4; ++i) {
    long long j = i * m / 4;
    j = std::clamp(j, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

Tail tail_percentile(std::vector<double> v) {
  static const std::pair<const char*, double> kLadder[] = {
      {"p99.9", 99.9}, {"p99", 99.0}, {"p95", 95.0},
      {"p90", 90.0},   {"p75", 75.0}, {"p50", 50.0}};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const auto& [label, p] : kLadder) {
    // Nearest rank k (1-based); the samples beyond it are n - k.
    const auto k = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (k >= 1 && n - k >= 10) return {label, v[k - 1]};
  }
  return {};
}

Summary summarize(const std::vector<double>& v) {
  Summary s;
  const auto q = quartiles(v);
  s.median = median(v);
  s.q1 = q[0];
  s.q3 = q[2];
  s.tail = tail_percentile(v);
  s.n = v.size();
  return s;
}

}  // namespace

Metric timed(const char* name, const char* unit, const char* better,
             const std::vector<double>& samples) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.better = better;
  m.timing = summarize(samples);
  m.value = m.timing->median;
  return m;
}

Metric det(const std::string& name, double value, const char* unit,
           const char* better) {
  Metric m;
  m.name = name;
  m.value = value;
  m.unit = unit;
  m.better = better;
  m.det = true;
  return m;
}

void Digest::add(std::uint64_t x) {
  for (int b = 0; b < 8; ++b) {
    h_ ^= (x >> (8 * b)) & 0xffU;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  add(bits);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag,
                          std::uint64_t round, std::uint64_t part) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(tag),
                    static_cast<std::uint32_t>(round),
                    static_cast<std::uint32_t>(round >> 32),
                    static_cast<std::uint32_t>(part)};
  std::mt19937_64 gen(seq);
  return gen();
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

constexpr std::size_t kMinSetups = 5;
/// Set-ups are spread through the run instead of made back to back, so
/// one slow stretch of the host moves few of them: after each round,
/// another follows until there are kMinSetups, and again whenever
/// set-ups have taken less than this share of the run so far.
constexpr double kSetupShare = 0.05;
/// Large enough that one traced round of any workload drops nothing.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;

/// "e2e.core.train" -> "core"; "sim.sample.marginal" -> "sim".
std::string layer_of(const std::string& span) {
  std::string s = span;
  if (s.rfind("e2e.", 0) == 0) s = s.substr(4);
  return s.substr(0, s.find('.'));
}

std::map<std::string, double> counter_values() {
  std::map<std::string, double> out;
  for (const auto& c : tel::MetricsRegistry::global().snapshot().counters) {
    out[c.name] = static_cast<double>(c.value);
  }
  return out;
}

/// Span aggregates summed over several traced rounds.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

struct TraceTotals {
  std::map<std::string, SpanTotals> spans;   ///< non-flow spans
  std::map<std::string, double> flow_ns;     ///< per-job (flow) spans
  double window_ns = 0.0;                    ///< timed stretches' wall time
  double units = 0.0;
  std::map<std::string, double> counts;      ///< Round::counts
  std::map<std::string, double> counters;   ///< registry deltas
  double events = 0.0;

  /// Fold in the events that start inside `windows` (all when empty).
  void add(const std::vector<tel::TraceEvent>& events_in,
           const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
               windows = {}) {
    std::vector<tel::TraceEvent> ambient;
    ambient.reserve(events_in.size());
    for (const tel::TraceEvent& e : events_in) {
      bool inside = windows.empty();
      for (const auto& [lo, hi] : windows) {
        inside = inside || (e.start_ns >= lo && e.start_ns <= hi);
      }
      if (!inside) continue;
      if (e.flow_id != 0) {
        flow_ns[e.name] += static_cast<double>(e.duration_ns);
      } else {
        ambient.push_back(e);
      }
    }
    const tel::TraceProfile profile = tel::TraceProfile::from_events(ambient);
    for (const tel::SpanStats& s : profile.rows()) {
      SpanTotals& t = spans[s.name];
      t.count += s.count;
      t.total_ns += static_cast<double>(s.total_ns);
      t.self_ns += static_cast<double>(s.self_ns);
    }
  }
  double self(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_ns;
  }
  double total(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ns;
  }
};

double value_or_zero(const std::map<std::string, double>& m,
                     const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

/// Median µs per ExecPlan::expectation_z call on the workload's circuit.
/// Calls alternate between two random bindings, so every call rebinds
/// every parameterized slot (the workspace memo never short-cuts it).
double time_expectation_us(const arbiterq::sim::ExecPlan& plan, int qubit,
                           std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> angle(0.0, 3.14159);
  std::vector<double> params[2];
  for (auto& p : params) {
    p.resize(static_cast<std::size_t>(plan.num_params()));
    for (double& x : p) x = angle(gen);
  }
  arbiterq::sim::Workspace ws;
  plan.expectation_z(params[0], qubit, ws);
  double t0 = now_s();
  plan.expectation_z(params[1], qubit, ws);
  const double one = std::max(now_s() - t0, 1e-8);
  // Chunks of ~50 µs keep clock overhead out of the per-call time.
  const int per_chunk = std::max(2, static_cast<int>(50e-6 / one));
  std::vector<double> samples;
  for (int c = 0; c < 101; ++c) {
    t0 = now_s();
    for (int k = 0; k < per_chunk; ++k) {
      plan.expectation_z(params[k % 2], qubit, ws);
    }
    samples.push_back((now_s() - t0) / per_chunk * 1e6);
  }
  return median(samples);
}

void add_round_tallies(const Round& r, Output& out, bool& finite,
                       bool& accounted) {
  out.attempted += r.attempted;
  out.failed += r.failed;
  finite = finite && r.finite;
  accounted = accounted && r.accounted;
}

void measure_untraced(Workload& w, const Options& opt, Output& out) {
  std::vector<double> setups;
  double setup_total = 0.0;
  const double begin = now_s();
  const auto setup = [&] {
    const double t0 = now_s();
    w.setup();
    setups.push_back(now_s() - t0);
    setup_total += setups.back();
  };
  const auto setup_due = [&] {
    return setups.size() < kMinSetups ||
           setup_total < kSetupShare * (now_s() - begin);
  };

  std::vector<Round> pass;
  std::vector<double> samples;
  bool finite = true;
  bool accounted = true;
  setup();
  for (std::size_t r = 0; r < w.rounds(); ++r) {
    pass.push_back(w.run(r));
    samples.insert(samples.end(), pass.back().unit_ms.begin(),
                   pass.back().unit_ms.end());
    add_round_tallies(pass.back(), out, finite, accounted);
    if (setup_due()) setup();
  }
  for (std::size_t r = w.rounds(); now_s() - begin < opt.seconds; ++r) {
    const Round extra = w.run(r);
    samples.insert(samples.end(), extra.unit_ms.begin(), extra.unit_ms.end());
    add_round_tallies(extra, out, finite, accounted);
    if (setup_due()) setup();
  }
  while (setups.size() < kMinSetups) setup();
  const Round again = w.run(0);

  out.metrics.push_back(timed("setup_s", "s", "lower", setups));
  w.report(pass, samples, out);

  out.checks.emplace_back("rerun_identical", again.digest == pass[0].digest);
  out.checks.emplace_back("losses_finite", finite && again.finite);
  if (w.workers() > 0) out.checks.emplace_back("jobs_accounted", accounted);
}

void measure_traced(Workload& w, const Options& opt, Output& out) {
  tel::TraceBuffer& buffer = tel::TraceBuffer::global();
  buffer.set_capacity(kTraceCapacity);
  tel::MetricsRegistry::global().reset_values();
  TraceTotals setup;
  tel::set_telemetry_runtime_enabled(true);
  w.setup();
  tel::set_telemetry_runtime_enabled(false);
  setup.add(buffer.snapshot());
  double dropped = static_cast<double>(buffer.dropped());
  buffer.clear();

  // Alternate which side runs first so slow host stretches hit both.
  TraceTotals traced;
  std::vector<double> on_ms;
  std::vector<double> off_ms;
  bool identical = true;
  bool finite = true;
  bool accounted = true;
  const std::size_t min_pairs = std::max<std::size_t>(1, w.rounds() / 10);
  const double begin = now_s();
  for (std::size_t r = 0;
       r < min_pairs || (r < w.rounds() && now_s() - begin < opt.seconds);
       ++r) {
    Round off;
    Round on;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (r % 2 == 0)) {
        off = w.run(r);
        continue;
      }
      const auto before = counter_values();
      buffer.clear();
      tel::set_telemetry_runtime_enabled(true);
      on = w.run(r);
      tel::set_telemetry_runtime_enabled(false);
      for (const auto& [lo, hi] : on.windows) {
        traced.window_ns += static_cast<double>(hi - lo);
      }
      std::vector<tel::TraceEvent> events = buffer.snapshot();
      traced.events += static_cast<double>(buffer.total_recorded());
      dropped += static_cast<double>(buffer.dropped());
      traced.add(events, on.windows);
      if (out.trace.empty()) out.trace = std::move(events);
      for (const auto& [name, v] : counter_values()) {
        traced.counters[name] += v - value_or_zero(before, name);
      }
      traced.units += on.units;
      for (const auto& [name, v] : on.counts) traced.counts[name] += v;
    }
    identical = identical && on.digest == off.digest;
    on_ms.insert(on_ms.end(), on.unit_ms.begin(), on.unit_ms.end());
    off_ms.insert(off_ms.end(), off.unit_ms.begin(), off.unit_ms.end());
    add_round_tallies(on, out, finite, accounted);
    add_round_tallies(off, out, finite, accounted);
  }
  buffer.clear();

  // Thread time of the timed stretches: the main thread's wall time
  // minus its drain waits, plus the serving workers' time during them.
  const double drain_ns = traced.total("e2e.serve.drain");
  const double worker_ns = static_cast<double>(w.workers()) * drain_ns;
  const double base_ns = traced.window_ns - drain_ns + worker_ns;
  std::map<std::string, double> layer_ns;
  double attributed_ns = 0.0;
  for (const auto& [name, t] : traced.spans) {
    if (name == "e2e.serve.drain") continue;
    layer_ns[layer_of(name)] += t.self_ns;
    attributed_ns += t.self_ns;
  }
  const auto frac = [&](double ns) { return base_ns > 0 ? ns / base_ns : 0.0; };
  const auto per_unit = [&](double v) {
    return traced.units > 0 ? v / traced.units : 0.0;
  };
  const auto counter = [&](const char* name) {
    return value_or_zero(traced.counters, name);
  };
  const auto count = [&](const char* name) {
    return value_or_zero(traced.counts, name);
  };
  const auto mean_us = [&](const char* name) {
    const auto it = setup.spans.find(name);
    return it == setup.spans.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ns / 1e3 /
                     static_cast<double>(it->second.count);
  };

  double expectation_us = 0.0;
  double ops = 0.0;
  double bytes = 0.0;
  if (const arbiterq::sim::ExecPlan* plan = w.probe_executor().plan()) {
    expectation_us = time_expectation_us(
        *plan, w.probe_executor().readout_qubit(), derive_seed(opt.seed, 99));
    ops = static_cast<double>(plan->stream_op_count());
    bytes = ops * std::ldexp(32.0, plan->num_qubits());
  }
  const double hits = counter("qnn.plan.cache_hits");
  const double misses = counter("qnn.plan.cache_misses");
  const double on_med = median(on_ms);
  const double off_med = median(off_ms);

  // Per-layer metrics, in print order. Shares ("_frac") are of the
  // timed stretches' thread time, counts are per unit of work, and the
  // times come from the traced set-up or from timing a compiled plan
  // directly, so they exist on every workload.
  const auto layer = [&](const char* name, const char* unit, double value,
                         const char* better = "lower") {
    Metric m;
    m.name = name;
    m.unit = unit;
    m.better = better;
    m.value = value;
    out.metrics.push_back(m);
  };
  const auto self = [&](const char* span) { return frac(traced.self(span)); };
  const auto flow = [&](const char* span) {
    return frac(value_or_zero(traced.flow_ns, span));
  };
  const bool serving = w.workers() > 0;
  layer("transpile.compile_us", "us", mean_us("transpile.compile"));
  layer("transpile.calls", "count",
        static_cast<double>(setup.spans["transpile.compile"].count));
  layer("sim.plan.compile_us", "us", mean_us("sim.plan.compile"));
  layer("sim.plan.expectation_us", "us", expectation_us);
  layer("sim.plan.expectation_ops", "count", ops);
  layer("sim.plan.expectation_bytes", "B", bytes);
  layer("sim.frac", "fraction", frac(layer_ns["sim"]));
  layer("sim.sample.marginal_frac", "fraction", self("sim.sample.marginal"));
  layer("sim.sample.shots", "count", per_unit(counter("sim.sample.shots")));
  layer("qnn.frac", "fraction", frac(layer_ns["qnn"]));
  layer("qnn.grad.adjoint_frac", "fraction", self("qnn.grad.adjoint"));
  layer("qnn.loss.dataset_frac", "fraction", self("qnn.loss.dataset"));
  layer("qnn.sample.probability_frac", "fraction",
        self("qnn.sample.probability"));
  layer("qnn.grad.calls", "count", per_unit(counter("qnn.grad.calls")));
  layer("qnn.forward.calls", "count", per_unit(counter("qnn.forward.calls")));
  layer("qnn.plan.hit_ratio", "fraction",
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "higher");
  layer("core.frac", "fraction", frac(layer_ns["core"]));
  layer("core.train.merge_frac", "fraction", self("core.train.epoch"));
  layer("core.train.fanout_self_frac", "fraction",
        self("core.train.gradient_fanout") + self("core.train.eval_fanout"));
  layer("core.gradient_messages", "count",
        per_unit(count("core.gradient_messages")));
  layer("core.torus.partition_frac", "fraction", self("core.torus.partition"));
  layer("core.infer.warmup_frac", "fraction", self("core.infer.warmup"));
  layer("core.infer.assign_frac", "fraction", self("core.infer.assign"));
  layer("core.infer.execute_frac", "fraction", self("core.infer.execute"));
  layer("exec.frac", "fraction", frac(layer_ns["exec"]));
  layer("serve.frac", "fraction", frac(layer_ns["serve"]));
  layer("serve.submit_frac", "fraction",
        frac(traced.total("e2e.serve.submit")));
  layer("serve.route_frac", "fraction", flow("serve.job.route"));
  layer("serve.exec_frac", "fraction",
        serving ? frac(traced.total("qnn.sample.probability")) : 0.0);
  layer("serve.worker_self_frac", "fraction", self("serve.worker.execute"));
  layer("serve.backoff_frac", "fraction", flow("serve.batch.backoff"));
  layer("serve.worker_unspanned_frac", "fraction",
        serving ? frac(worker_ns - traced.total("serve.worker.execute"))
                : 0.0);
  layer("serve.batches", "count", per_unit(counter("serve.batches.executed")));
  layer("serve.retries", "count", per_unit(counter("serve.retries")));
  layer("serve.repartitions", "count", per_unit(counter("serve.repartitions")));
  layer("serve.dropouts", "count", per_unit(counter("serve.qpu.dropouts")));
  layer("serve.throttled_frac", "fraction",
        per_unit(counter("serve.jobs.rejected.throttled")));
  layer("serve.doorbell_wakeups", "count",
        per_unit(count("serve.doorbell_wakeups")));
  layer("serve.doorbell_backstops", "count",
        per_unit(count("serve.doorbell_backstops")));
  layer("telemetry.overhead_frac", "fraction",
        off_med > 0 ? on_med / off_med - 1.0 : 0.0);
  layer("telemetry.events", "count", per_unit(traced.events));
  layer("telemetry.dropped", "count", dropped);
  layer("unattributed_frac", "fraction", frac(base_ns - attributed_ns));

  // Per-unit span table: the layer breakdown behind the shares above.
  char line[256];
  std::snprintf(line, sizeof line, "  %-30s %-9s %10s %12s %12s %8s\n",
                "span", "layer", "calls/unit", "self_us/unit",
                "total_us/unit", "share");
  out.profile = line;
  std::vector<std::pair<std::string, SpanTotals>> rows(traced.spans.begin(),
                                                       traced.spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  for (const auto& [name, t] : rows) {
    std::snprintf(line, sizeof line,
                  "  %-30s %-9s %10.3f %12.3f %12.3f %8.4f\n", name.c_str(),
                  layer_of(name).c_str(),
                  per_unit(static_cast<double>(t.count)),
                  per_unit(t.self_ns) / 1e3, per_unit(t.total_ns) / 1e3,
                  name == "e2e.serve.drain" ? 0.0 : frac(t.self_ns));
    out.profile += line;
  }
  for (const auto& [name, ns] : traced.flow_ns) {
    std::snprintf(line, sizeof line, "  %-30s %-9s %10s %12s %12.3f %8s\n",
                  name.c_str(), "flow", "-", "-", per_unit(ns) / 1e3, "-");
    out.profile += line;
  }
  std::snprintf(line, sizeof line,
                "  thread time %.3f ms over %.0f units (%d serving workers)\n",
                base_ns / 1e6, traced.units, w.workers());
  out.profile += line;

  out.checks.emplace_back("traced_equals_untraced", identical);
  out.checks.emplace_back("losses_finite", finite);
  if (w.workers() > 0) out.checks.emplace_back("jobs_accounted", accounted);
  out.checks.emplace_back("trace_complete", dropped == 0.0);
}

}  // namespace

void measure(Workload& w, const Options& opt, Output& out) {
  tel::set_telemetry_runtime_enabled(false);
  if (opt.traced) {
    measure_traced(w, opt, out);
  } else {
    measure_untraced(w, opt, out);
  }
}

// ---- JSON ------------------------------------------------------------------

std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace e2e
