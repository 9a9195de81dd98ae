#pragma once
// Exporters: dump the metrics registry, the span ring buffer, and the
// training records as JSONL (one self-describing object per line, keyed
// by "type") or as report::CsvTable. Both share src/report's escaping
// and failure-reporting discipline.
//
// JSONL schema (schema version 1):
//   {"type":"meta","schema":1,"telemetry_enabled":true|false}
//                                     (the runtime switch at open time)
//   {"type":"counter","name":N,"value":V}
//   {"type":"gauge","name":N,"value":V}
//   {"type":"histogram","name":N,"count":C,"sum":S,
//    "bounds":[...],"buckets":[...]}              (buckets has one
//                                                  overflow entry more)
//   {"type":"span","name":N,"id":I,"parent":P,"depth":D,
//    "start_ns":S,"dur_ns":U,"thread":T}
//   {"type":"epoch","strategy":S,"epoch":E,"qpu":Q,"online":B,
//    "churned":B,"group":G,"group_size":Z,"loss":L,"grad_norm":R,
//    "shots_est":H}
//   {"type":"assignment","task":K,"torus":T,"score":S,"warmup_loss":W,
//    "loss":L,"split_qpu":[...],"split_shots":[...]}

#include <fstream>
#include <string>
#include <vector>

#include "arbiterq/report/csv.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/sink.hpp"
#include "arbiterq/telemetry/trace.hpp"

namespace arbiterq::telemetry {

/// Columns: kind,name,value,count,sum (histograms fold bounds/buckets
/// into a "le=...:n" summary string — CSV is for eyeballing, JSONL for
/// tooling).
report::CsvTable metrics_csv(const MetricsSnapshot& snapshot);

/// Columns: name,id,parent,depth,start_ns,dur_ns,thread.
report::CsvTable spans_csv(const std::vector<TraceEvent>& events);

/// Streaming JSONL exporter; also a TrainingTelemetry sink, so one
/// object can capture training records as they happen *and* dump the
/// global metrics/trace state at the end of a run:
///
///   telemetry::JsonlExporter tel("run.jsonl");   // writes the meta line
///   trainer.train(strategy, split, &tel);        // epoch lines
///   scheduler.run(tasks, &tel);                  // assignment lines
///   tel.write_global_state();                    // metrics + spans
///   tel.close();                                 // throws on I/O failure
class JsonlExporter final : public TrainingTelemetry {
 public:
  /// Opens `path` for writing and emits the meta line; throws
  /// std::runtime_error if the file cannot be opened.
  explicit JsonlExporter(const std::string& path);
  /// Best-effort close; failures here are swallowed (call close() first
  /// if you need the error).
  ~JsonlExporter() override;

  JsonlExporter(const JsonlExporter&) = delete;
  JsonlExporter& operator=(const JsonlExporter&) = delete;

  void on_epoch(const EpochQpuRecord& record) override;
  void on_assignment(const AssignmentRecord& record) override;

  void write_metrics(const MetricsSnapshot& snapshot);
  void write_spans(const std::vector<TraceEvent>& events);
  /// Snapshot MetricsRegistry::global() and TraceBuffer::global() and
  /// write both.
  void write_global_state();

  /// Flushes and closes, throwing std::runtime_error on I/O failure.
  /// Idempotent; the destructor calls the non-throwing path.
  void close();

  const std::string& path() const noexcept { return path_; }
  std::size_t lines_written() const noexcept { return lines_; }

 private:
  void line(const std::string& object);

  std::string path_;
  std::ofstream os_;
  std::size_t lines_ = 0;
  bool closed_ = false;
};

}  // namespace arbiterq::telemetry
