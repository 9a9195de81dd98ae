#pragma once
// Bounded, priority-aware shot-batch queue behind the fleet serving
// runtime. The queue is laned: every QPU worker pops only the lane that
// targets its device, so a batch routed (or re-routed) to QPU q is
// executed by q's worker and nobody else.
//
// Multi-tenant arbitration: each (lane, priority) cell holds one FIFO
// per tenant, and a per-lane Arbiter (see arbiter.hpp) decides which
// tenant's head-of-line batch a pop takes. With a single tenant (the
// default) the cell degenerates to the old single FIFO and the arbiter
// is never consulted. Arbiter state is per *lane*, shared across the
// priority levels of that lane, so a tenant's credit/rotation position
// carries across priorities; priorities themselves still scan strictly
// high -> low.
//
// Admission control: try_push_all enforces a global capacity across all
// lanes and fails (backpressure) when the runtime is saturated — the
// caller turns that into a rejected job. Retries and re-routes of
// *already admitted* work go through push_retry, which bypasses the
// bound: admitted work is never dropped because the fleet is busy.
//
// Graceful drain: close() stops admissions; workers keep popping until
// every lane is empty AND no popped batch is still in flight (a worker
// holding a batch may yet re-route it into another lane), then every
// blocked pop returns false and the workers exit. The in-flight count
// is maintained by the pop/task_done pairing.

#include <atomic>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "arbiterq/serve/arbiter.hpp"

namespace arbiterq::telemetry {
class Gauge;
}  // namespace arbiterq::telemetry

namespace arbiterq::serve {

enum class JobPriority { kLow = 0, kNormal = 1, kHigh = 2 };

/// One unit of queued work: a slice of a job's shot budget bound for a
/// specific QPU. `slot` is the batch's fixed aggregation index within
/// its job (results fold in slot order, independent of completion
/// order); `excluded` accumulates the QPUs that already failed this
/// batch so the retry policy never routes back to them.
struct ShotBatch {
  std::uint64_t job = 0;
  std::size_t slot = 0;
  int qpu = 0;
  int shots = 0;
  int attempt = 0;
  JobPriority priority = JobPriority::kNormal;
  /// Tenant slot the owning job resolved to (0 when the runtime has no
  /// tenant table); selects the per-tenant FIFO and arbiter port.
  std::uint32_t tenant = 0;
  std::vector<int> excluded;
  /// Trace clock at (re-)enqueue, for queue-wait spans of traced jobs;
  /// 0 when the owning job is untraced (the common case — the clock
  /// read is skipped entirely).
  std::uint64_t enqueue_ns = 0;
};

class JobQueue {
 public:
  /// `num_lanes` = fleet (or shard) size; `capacity` bounds the
  /// *admitted* batches resident across all lanes (retries ride above
  /// the bound). `depth_metric` names the gauge the resident depth is
  /// published under — per-shard queues pass a shard-suffixed name so
  /// their depths stay distinguishable. `lane_base` rebases the lane a
  /// push derives from ShotBatch::qpu (lane = qpu - lane_base): a shard
  /// owning the QPU block [first, first+n) passes first and keeps its
  /// lanes local 0..n-1. pop/pop_any/lane_depth always take local lanes.
  /// `num_tenants` sizes the per-tenant FIFOs (batches with tenant >=
  /// num_tenants are clamped into the last slot); `arbiter` configures
  /// the per-lane dequeue arbiters, consulted only when num_tenants > 1.
  JobQueue(std::size_t num_lanes, std::size_t capacity,
           std::string depth_metric = "serve.queue.depth",
           std::size_t lane_base = 0, std::size_t num_tenants = 1,
           const ArbiterConfig& arbiter = {});

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// The admission path, atomic per job: either every batch is enqueued
  /// or none is (false when the batches don't all fit, or the queue is
  /// closed; std::out_of_range, enqueuing none, when one names a lane
  /// the queue does not hold).
  bool try_push_all(std::vector<ShotBatch> batches);
  /// Whether `n` more admission-path batches fit right now (false once
  /// closed). Exact for a caller that is the only admitter: pops only
  /// free units, so a yes stays a yes until that caller pushes.
  bool has_room(std::size_t n) const;
  /// Retry/re-route path for already-admitted work: always accepted,
  /// even above capacity or after close().
  void push_retry(ShotBatch batch);

  /// Block until a batch is available in `lane`, the queue has fully
  /// drained after close() (returns false), or abort() was called.
  /// A successful pop marks the batch in flight; the worker must call
  /// task_done() exactly once after the batch reaches a terminal state
  /// (executed, expired, failed) or was re-routed via push_retry.
  /// Popping an admission-path batch frees its capacity unit.
  bool pop(std::size_t lane, ShotBatch* out);
  /// Like pop() but over a fixed set of lanes (a worker that owns
  /// several QPU lanes): scans priorities high -> low across the lanes
  /// in the given order, blocking until any of them yields.
  bool pop_any(const std::vector<std::size_t>& lanes, ShotBatch* out);
  /// Balance a successful pop once the popped batch is finished with.
  void task_done();

  /// Stop admitting; pending work still drains.
  void close();
  /// Emergency stop: wake every popper immediately (pending batches are
  /// abandoned). Used by the runtime destructor.
  void abort();

  bool closed() const;
  /// Batches resident across all lanes right now.
  std::size_t depth() const;
  std::size_t lane_depth(std::size_t lane) const;
  /// Batches resident for tenant slot `tenant` across all lanes.
  std::size_t tenant_depth(std::size_t tenant) const;
  std::size_t num_tenants() const noexcept { return num_tenants_; }
  /// Arbiter grants issued so far (pops that consulted an arbiter).
  std::uint64_t arbiter_grants() const;

  /// Lock-contention accounting: cumulative nanoseconds callers spent
  /// blocked acquiring the queue mutex (only contended acquisitions are
  /// timed — the uncontended fast path is a try_lock), and how many
  /// acquisitions were contended; surfaced per shard in ShardStats.
  std::uint64_t lock_wait_ns() const {
    return lock_wait_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t lock_contentions() const {
    return lock_contentions_.load(std::memory_order_relaxed);
  }

 private:
  // One FIFO per (lane, priority, tenant); pop scans high -> low
  // priority, the lane arbiter picks the tenant within a cell.
  static constexpr int kPriorities = 3;

  /// Queue entry: only admission-path batches count against capacity
  /// while resident; retries ride above the bound. `seq` is the queue-
  /// wide push sequence — the arbiters' oldest-first tie-break.
  struct Entry {
    bool admitted = false;
    std::uint64_t seq = 0;
    ShotBatch batch;
  };

  bool drained_locked() const {
    return closed_ && total_depth_ == 0 && in_flight_ == 0;
  }
  void note_depth_locked();
  /// Local lane of a batch: its target QPU rebased by lane_base_.
  std::size_t lane_of(const ShotBatch& batch) const {
    return static_cast<std::size_t>(batch.qpu) - lane_base_;
  }
  /// Tenant slot of a batch, clamped into range.
  std::size_t tenant_of(const ShotBatch& batch) const {
    const auto t = static_cast<std::size_t>(batch.tenant);
    return t < num_tenants_ ? t : num_tenants_ - 1;
  }
  /// FIFO cell for (local lane, priority, tenant).
  std::deque<Entry>& cell(std::size_t lane, int pri, std::size_t tenant) {
    return lanes_[(lane * kPriorities + static_cast<std::size_t>(pri)) *
                      num_tenants_ +
                  tenant];
  }
  const std::deque<Entry>& cell(std::size_t lane, int pri,
                                std::size_t tenant) const {
    return lanes_[(lane * kPriorities + static_cast<std::size_t>(pri)) *
                      num_tenants_ +
                  tenant];
  }
  void enqueue_locked(ShotBatch batch, bool admitted);
  /// Acquire mu_, timing the wait when the try_lock fast path misses.
  std::unique_lock<std::mutex> lock_timed() const;
  bool pop_locked(std::unique_lock<std::mutex>& lock,
                  const std::size_t* lanes, std::size_t n_lanes,
                  ShotBatch* out);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<Entry>> lanes_;  ///< num_lanes*kPriorities*tenants
  std::size_t capacity_;
  std::size_t lane_base_;
  std::size_t num_tenants_;
  std::string depth_metric_;
  telemetry::Gauge* depth_gauge_ = nullptr;  ///< resolved on first use
  /// Per-lane tenant arbiters (empty when num_tenants_ == 1: the pop
  /// path never consults an arbiter for a single tenant).
  std::vector<std::unique_ptr<Arbiter>> arbiters_;
  std::vector<std::uint64_t> head_seq_;  ///< grant() scratch, mu_-guarded
  std::vector<std::size_t> tenant_depth_;  ///< resident per tenant
  std::uint64_t push_seq_ = 0;
  std::uint64_t arbiter_grants_ = 0;
  std::size_t admitted_depth_ = 0;  ///< admission batches still resident
  std::size_t total_depth_ = 0;
  std::size_t in_flight_ = 0;
  bool closed_ = false;
  bool aborted_ = false;
  mutable std::atomic<std::uint64_t> lock_wait_ns_{0};
  mutable std::atomic<std::uint64_t> lock_contentions_{0};
};

}  // namespace arbiterq::serve
