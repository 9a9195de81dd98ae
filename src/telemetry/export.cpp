#include "arbiterq/telemetry/export.hpp"

#include <cstdio>
#include <stdexcept>

#include "arbiterq/report/jsonl.hpp"

namespace arbiterq::telemetry {

namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

report::CsvTable metrics_csv(const MetricsSnapshot& snapshot) {
  report::CsvTable table({"kind", "name", "value", "count", "sum"});
  for (const auto& c : snapshot.counters) {
    table.add_row({"counter", c.name, std::to_string(c.value), "", ""});
  }
  for (const auto& g : snapshot.gauges) {
    table.add_row({"gauge", g.name, fmt_double(g.value), "", ""});
  }
  for (const auto& h : snapshot.histograms) {
    std::string buckets;
    for (std::size_t b = 0; b < h.bucket_counts.size(); ++b) {
      if (h.bucket_counts[b] == 0) continue;
      if (!buckets.empty()) buckets += " ";
      buckets += "le=";
      buckets += b < h.upper_bounds.size() ? fmt_double(h.upper_bounds[b])
                                           : std::string("+inf");
      buckets += ":" + std::to_string(h.bucket_counts[b]);
    }
    table.add_row({"histogram", h.name, buckets, std::to_string(h.count),
                   fmt_double(h.sum)});
  }
  return table;
}

report::CsvTable spans_csv(const std::vector<TraceEvent>& events) {
  report::CsvTable table(
      {"name", "id", "parent", "depth", "start_ns", "dur_ns", "thread"});
  for (const TraceEvent& e : events) {
    table.add_row({e.name, std::to_string(e.id), std::to_string(e.parent_id),
                   std::to_string(e.depth), std::to_string(e.start_ns),
                   std::to_string(e.duration_ns),
                   std::to_string(e.thread_id)});
  }
  return table;
}

JsonlExporter::JsonlExporter(const std::string& path)
    : path_(path), os_(path) {
  if (!os_) {
    throw std::runtime_error("JsonlExporter: cannot open " + path);
  }
  line(report::JsonLine()
           .field("type", "meta")
           .field("schema", 1)
           .field("telemetry_enabled", telemetry_runtime_enabled())
           .finish());
}

JsonlExporter::~JsonlExporter() {
  if (!closed_) {
    os_.flush();  // destructor must not throw; close() reports errors
  }
}

void JsonlExporter::line(const std::string& object) {
  if (closed_) {
    throw std::logic_error("JsonlExporter: write after close");
  }
  os_ << object << "\n";
  if (!os_) {
    throw std::runtime_error("JsonlExporter: write failed for " + path_);
  }
  ++lines_;
}

void JsonlExporter::on_epoch(const EpochQpuRecord& r) {
  line(report::JsonLine()
           .field("type", "epoch")
           .field("strategy", r.strategy)
           .field("epoch", r.epoch)
           .field("qpu", r.qpu)
           .field("online", r.online)
           .field("churned", r.churned)
           .field("group", r.group)
           .field("group_size", r.group_size)
           .field("loss", r.loss)
           .field("grad_norm", r.grad_norm)
           .field("shots_est", r.shots_estimate)
           .finish());
}

void JsonlExporter::on_assignment(const AssignmentRecord& r) {
  std::vector<int> split_qpu;
  std::vector<int> split_shots;
  split_qpu.reserve(r.shot_split.size());
  split_shots.reserve(r.shot_split.size());
  for (const QpuShotShare& s : r.shot_split) {
    split_qpu.push_back(s.qpu);
    split_shots.push_back(s.shots);
  }
  line(report::JsonLine()
           .field("type", "assignment")
           .field("task", r.task)
           .field("torus", r.torus)
           .field("score", r.estimated_score)
           .field("warmup_loss", r.warmup_difficulty)
           .field("loss", r.realized_loss)
           .field("split_qpu", split_qpu)
           .field("split_shots", split_shots)
           .finish());
}

void JsonlExporter::write_metrics(const MetricsSnapshot& snapshot) {
  for (const auto& c : snapshot.counters) {
    line(report::JsonLine()
             .field("type", "counter")
             .field("name", c.name)
             .field("value", c.value)
             .finish());
  }
  for (const auto& g : snapshot.gauges) {
    line(report::JsonLine()
             .field("type", "gauge")
             .field("name", g.name)
             .field("value", g.value)
             .finish());
  }
  for (const auto& h : snapshot.histograms) {
    line(report::JsonLine()
             .field("type", "histogram")
             .field("name", h.name)
             .field("count", h.count)
             .field("sum", h.sum)
             .field("bounds", h.upper_bounds)
             .field("buckets", h.bucket_counts)
             .finish());
  }
}

void JsonlExporter::write_spans(const std::vector<TraceEvent>& events) {
  for (const TraceEvent& e : events) {
    report::JsonLine l;
    l.field("type", "span")
        .field("name", e.name)
        .field("id", e.id)
        .field("parent", e.parent_id)
        .field("depth", static_cast<std::uint64_t>(e.depth))
        .field("start_ns", e.start_ns)
        .field("dur_ns", e.duration_ns)
        .field("thread", e.thread_id);
    if (e.flow_id != 0) {
      l.field("flow", e.flow_id).field("flow_label", e.flow_label);
    }
    line(l.finish());
  }
}

void JsonlExporter::write_global_state() {
  write_metrics(MetricsRegistry::global().snapshot());
  write_spans(TraceBuffer::global().snapshot());
}

void JsonlExporter::close() {
  if (closed_) return;
  os_.flush();
  if (!os_) {
    throw std::runtime_error("JsonlExporter: flush failed for " + path_);
  }
  os_.close();
  if (os_.fail()) {
    throw std::runtime_error("JsonlExporter: close failed for " + path_);
  }
  closed_ = true;
}

}  // namespace arbiterq::telemetry
