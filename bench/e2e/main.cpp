// End-to-end benchmark of the paper's pipelines: personalized training
// (Table I), torus shot inference (Table IV) and fleet serving. Run it
// through run.sh, which builds it first:
//
//   bench/e2e/run.sh [--seed N] [--workloads a,b] [--seconds S]
//                    [--traced] [--trace-out f.json] [--smoke]
//                    [--out f.json]
//
// It prints every metric by name and unit, one check.<name> line per
// correctness gate, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs (--traced / --trace 1) the per-layer
// ones. Exit code 2 when any check fails, 1 on bad arguments.

#ifdef __linux__
#include <sched.h>
#endif

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/telemetry/profile.hpp"
#include "harness.hpp"

namespace {

using e2e::json_number;
using e2e::json_string;

int usage(const char* msg) {
  std::fprintf(stderr,
               "e2e: %s\nusage: run.sh [--seed N] [--workload NAME | "
               "--workloads a,b] [--seconds S] [--trace 0|1 | --traced] "
               "[--trace-out f.json] [--smoke] [--out f.json]\n",
               msg);
  return 1;
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(',', start);
    const std::string part = s.substr(
        start, end == std::string::npos ? std::string::npos : end - start);
    if (!part.empty()) out.push_back(part);
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return out;
}

/// Pins the process to the CPU it runs on, before any thread starts, so
/// the serving runtime's threads inherit the pin. Spread over CPUs, a
/// serving replay waits on cross-CPU wake-ups whose cost changes from
/// run to run on a shared virtual machine: serve-admission's per-job time
/// had a quartile spread of 0.56 of its median over 10 seeds, and 0.06
/// pinned. Returns the CPU, or -1 when the pin failed.
int pin_to_current_cpu() {
#ifdef __linux__
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
#else
  return -1;
#endif
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang++ ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_metric(const e2e::Metric& m) {
  std::printf("  %-28s %14.6g %-10s", m.name.c_str(), m.value,
              m.unit.c_str());
  if (m.timing) {
    std::printf(" q1 %.6g q3 %.6g", m.timing->q1, m.timing->q3);
    if (!m.timing->tail.label.empty()) {
      std::printf(" %s %.6g", m.timing->tail.label.c_str(),
                  m.timing->tail.value);
    }
    std::printf(" n %zu", m.timing->n);
  } else if (m.det) {
    std::printf(" det");
  }
  std::printf("\n");
}

std::string metric_json(const e2e::Metric& m) {
  std::string s = "{\"value\":" + json_number(m.value) +
                  ",\"unit\":" + json_string(m.unit) +
                  ",\"better\":" + json_string(m.better) +
                  ",\"det\":" + (m.det ? "true" : "false");
  if (m.timing) {
    s += ",\"median\":" + json_number(m.timing->median) +
         ",\"q1\":" + json_number(m.timing->q1) +
         ",\"q3\":" + json_number(m.timing->q3) +
         ",\"tail_label\":" + json_string(m.timing->tail.label) +
         ",\"tail\":" + json_number(m.timing->tail.value) +
         ",\"n\":" + std::to_string(m.timing->n);
  }
  return s + "}";
}

std::string metrics_json(const std::vector<e2e::Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ',';
    s += json_string(ms[i].name) + ":" + metric_json(ms[i]);
  }
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  std::vector<std::string> names;
  std::string out_path;
  std::string trace_out;
  std::string sha = "unknown";
  std::string command = "bench/e2e/run.sh";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    try {
      if (flag == "--smoke") {
        opt.smoke = true;
      } else if (flag == "--traced") {
        opt.traced = true;
      } else if (flag == "--sha") {
        const char* v = value();
        if (v == nullptr) return usage("--sha needs a value");
        sha = v;
        continue;  // not part of the recorded command
      } else {
        const char* v = value();
        if (v == nullptr) return usage(("missing value for " + flag).c_str());
        const std::string s = v;
        if (flag == "--seed") {
          opt.seed = std::stoull(s);
        } else if (flag == "--seconds") {
          opt.seconds = std::stod(s);
          if (!(opt.seconds >= 0.0 && opt.seconds <= 3600.0)) {
            return usage("--seconds must be in [0, 3600]");
          }
        } else if (flag == "--trace") {
          if (s != "0" && s != "1") return usage("--trace takes 0 or 1");
          opt.traced = s == "1";
        } else if (flag == "--workload" || flag == "--workloads") {
          for (const std::string& n : split_commas(s)) names.push_back(n);
        } else if (flag == "--trace-out") {
          trace_out = s;
        } else if (flag == "--out") {
          out_path = s;
        } else {
          return usage(("unknown argument " + flag).c_str());
        }
        command += " " + flag + " " + s;
        continue;
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
    command += " " + flag;
  }

  std::vector<const e2e::WorkloadInfo*> selected;
  for (const e2e::WorkloadInfo& w : e2e::workload_table()) {
    bool want = names.empty();
    for (const std::string& n : names) want = want || n == w.name;
    if (want) selected.push_back(&w);
  }
  for (const std::string& n : names) {
    bool known = false;
    for (const e2e::WorkloadInfo& w : e2e::workload_table()) {
      known = known || n == w.name;
    }
    if (!known) return usage(("unknown workload " + n).c_str());
  }

  const std::string arch =
      arbiterq::sim::kernels::arch_name(arbiterq::sim::kernels::active_arch());
  const unsigned nproc = std::thread::hardware_concurrency();
  const int cpu = pin_to_current_cpu();
  std::printf("e2e: sha %s, kernels %s, nproc %u, pinned to cpu %d, %s, "
              "seed %llu%s%s\n",
              sha.c_str(), arch.c_str(), nproc, cpu, compiler().c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.traced ? ", traced" : "", opt.smoke ? ", smoke" : "");

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<e2e::Output> outputs;
  std::vector<arbiterq::telemetry::TraceEvent> trace_events;
  for (const e2e::WorkloadInfo* info : selected) {
    e2e::Output out;
    out.name = info->name;
    out.why = info->why;
    out.args = info->args;
    std::printf("\n== %s (%s)\n   runs: %s\n   why:  %s\n", info->name,
                opt.traced ? "per-layer, traced" : "end to end",
                info->args, info->why);
    std::fflush(stdout);
    const std::unique_ptr<e2e::Workload> w = info->make(opt);
    try {
      e2e::measure(*w, opt, out);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "e2e: %s failed: %s\n", info->name, ex.what());
      out.checks.emplace_back("completed", false);
    }
    for (const e2e::Metric& m : out.metrics) print_metric(m);
    if (!out.detail.empty()) {
      std::printf("  -- detail (per-workload names; not gated)\n");
      for (const e2e::Metric& m : out.detail) print_metric(m);
    }
    if (!out.profile.empty()) std::printf("%s", out.profile.c_str());
    for (const auto& [name, pass] : out.checks) {
      std::printf("check.%s %s\n", name.c_str(), pass ? "pass" : "fail");
      correct = correct && pass;
    }
    std::printf("  ops_attempted %llu ops_failed %llu\n",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    std::fflush(stdout);
    attempted += out.attempted;
    failed += out.failed;
    trace_events.insert(trace_events.end(), out.trace.begin(),
                        out.trace.end());
    out.trace.clear();
    outputs.push_back(std::move(out));
  }

  if (!trace_out.empty()) {
    try {
      arbiterq::telemetry::write_chrome_trace(trace_out, trace_events);
      std::printf("wrote %s (%zu events)\n", trace_out.c_str(),
                  trace_events.size());
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "e2e: %s\n", ex.what());
      return 1;
    }
  }

  if (!out_path.empty()) {
    std::string doc = "{\"schema\":1,\"sha\":" + json_string(sha) +
                      ",\"arch\":" + json_string(arch) +
                      ",\"nproc\":" + std::to_string(nproc) +
                      ",\"cpu\":" + std::to_string(cpu) +
                      ",\"compiler\":" + json_string(compiler()) +
                      ",\"command\":" + json_string(command) +
                      ",\"seed\":" + std::to_string(opt.seed) +
                      ",\"seconds\":" + json_number(opt.seconds) +
                      ",\"smoke\":" + (opt.smoke ? "true" : "false") +
                      ",\"traced\":" + (opt.traced ? "true" : "false") +
                      ",\"correct\":" + (correct ? "true" : "false") +
                      ",\"workloads\":{";
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      const e2e::Output& o = outputs[i];
      if (i > 0) doc += ',';
      doc += json_string(o.name) +
             ":{\"why\":" + json_string(o.why) +
             ",\"args\":" + json_string(o.args) +
             ",\"ops_attempted\":" + std::to_string(o.attempted) +
             ",\"ops_failed\":" + std::to_string(o.failed) + ",\"checks\":{";
      for (std::size_t k = 0; k < o.checks.size(); ++k) {
        if (k > 0) doc += ',';
        doc += json_string(o.checks[k].first) + ":" +
               (o.checks[k].second ? "true" : "false");
      }
      doc += "},\"metrics\":" + metrics_json(o.metrics) +
             ",\"detail\":" + metrics_json(o.detail) + "}";
    }
    doc += "}}\n";
    std::ofstream f(out_path);
    f << doc;
    if (!f.flush()) {
      std::fprintf(stderr, "e2e: cannot write %s\n", out_path.c_str());
      return 1;
    }
  }

  // Last line: the machine-readable summary. A single workload keys its
  // metrics by name; several key them "<workload>/<metric>".
  std::string line = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"metrics\":{";
  bool first = true;
  for (const e2e::Output& o : outputs) {
    for (const e2e::Metric& m : o.metrics) {
      const std::string key =
          outputs.size() == 1 ? m.name : o.name + "/" + m.name;
      if (!first) line += ',';
      line += json_string(key) +
              ":{\"value\":" + json_number(m.value) +
              ",\"unit\":" + json_string(m.unit) + "}";
      first = false;
    }
  }
  std::printf("%s}}\n", line.c_str());
  return correct ? 0 : 2;
}
