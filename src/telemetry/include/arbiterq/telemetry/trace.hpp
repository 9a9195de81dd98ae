#pragma once
// Scoped trace spans: `AQ_TRACE_SPAN("transpile.route");` opens an RAII
// timer that records a TraceEvent into the process-wide ring buffer when
// the scope exits. Spans nest — a thread-local stack links each span to
// its parent, so exporters can reconstruct the call tree from
// (id, parent_id, depth). Events land in *completion* order (children
// before their parent), each carrying its start timestamp.
//
// The ring buffer is bounded (default 65536 events): under sustained load
// the oldest events are overwritten and `dropped()` counts the loss —
// telemetry never grows without bound and never throws on the hot path.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "arbiterq/telemetry/metrics.hpp"

namespace arbiterq::telemetry {

struct TraceEvent {
  std::string name;           ///< span label, `subsystem.verb.noun`
  std::uint64_t id = 0;       ///< unique per process, starts at 1
  std::uint64_t parent_id = 0;  ///< 0 = root span
  std::uint32_t depth = 0;    ///< 0 for roots, parent.depth + 1 otherwise
  std::uint64_t start_ns = 0;  ///< steady-clock ns since process anchor
  std::uint64_t duration_ns = 0;
  std::uint64_t thread_id = 0;  ///< hashed std::thread::id
  /// Causal-flow lane key for events that belong to a logical unit of
  /// work crossing threads (a serving job): exporters group same-flow
  /// events into one lane instead of per-thread lanes. 0 = none (the
  /// serving tracer stores job_id + 1 so job 0 is representable).
  std::uint64_t flow_id = 0;
  /// Human label for the flow lane (e.g. "job-17 tenant=acme"). Pass it
  /// through safe_label() before recording: exporters escape, but only
  /// sanitization makes hostile tenants harmless in every format.
  std::string flow_label;
};

/// Monotonic nanoseconds since a fixed process-lifetime anchor.
std::uint64_t trace_now_ns() noexcept;

/// Draw a fresh span id from the same process-wide sequence ScopedSpan
/// uses. For manually-stitched cross-thread span trees (the serving
/// runtime's per-job traces) where RAII nesting can't express parentage.
std::uint64_t allocate_span_id() noexcept;

/// Sanitize a user-supplied label (tenant, job name) for embedding in
/// span names, flow labels, and metric names: control characters and
/// invalid UTF-8 byte sequences become '_', and the result is truncated
/// to `max_len` bytes on a UTF-8 boundary. Quotes and backslashes are
/// kept — each exporter escapes them for its own format.
std::string safe_label(std::string_view s, std::size_t max_len = 128);

class TraceBuffer {
 public:
  /// The process-wide buffer AQ_TRACE_SPAN feeds.
  static TraceBuffer& global();

  explicit TraceBuffer(std::size_t capacity = 65536);
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  void record(TraceEvent e);
  /// Oldest-first copy of the retained events.
  std::vector<TraceEvent> snapshot() const;
  std::size_t size() const;
  std::size_t capacity() const;
  /// Events recorded over the buffer's lifetime (cleared resets it).
  std::uint64_t total_recorded() const;
  /// Events lost to ring overwrite: total_recorded() - size().
  std::uint64_t dropped() const;
  /// Drops retained events and zeroes the lifetime counters.
  void clear();
  /// Clears and resizes; capacity 0 is rounded up to 1.
  void set_capacity(std::size_t capacity);

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< next write slot once the ring is full
  std::uint64_t total_ = 0;
};

/// RAII span. Construct on the stack (via AQ_TRACE_SPAN); destruction
/// records the event into TraceBuffer::global() and pops the thread-local
/// parent stack. Not movable: its address is the nesting invariant.
/// When telemetry_runtime_enabled() is false at construction the span is
/// inert (id() == 0): nothing is pushed, timed, or recorded.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return id_; }
  std::uint64_t parent_id() const noexcept { return parent_id_; }
  std::uint32_t depth() const noexcept { return depth_; }

 private:
  const char* name_;
  std::uint64_t id_;
  std::uint64_t parent_id_;
  std::uint32_t depth_;
  std::uint64_t start_ns_;
};

}  // namespace arbiterq::telemetry

#define AQ_TELEMETRY_CONCAT_INNER(a, b) a##b
#define AQ_TELEMETRY_CONCAT(a, b) AQ_TELEMETRY_CONCAT_INNER(a, b)
#define AQ_TRACE_SPAN(name)                     \
  ::arbiterq::telemetry::ScopedSpan AQ_TELEMETRY_CONCAT( \
      aq_trace_span_, __LINE__)(name)

