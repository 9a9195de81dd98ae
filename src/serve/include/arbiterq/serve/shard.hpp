#pragma once
// Serving shard: one slice of the fleet with a private bounded JobQueue
// and worker set, so a shard's workers contend only on their own queue
// lock.
//
//   admission   front-end --route lock--> has_room() on every touched
//               shard, then push_admitted() each slice into its queue
//   reroutes    a worker of shard A --push_cross()--> shard B's queue
//               (push_retry: above capacity, accepted even after close)
//
// The queue's admitted-batch bound is the one capacity bound. Only the
// routing-lock holder adds admitted units and pops only free them, so
// "check room on every touched shard, then push every slice" under that
// lock cannot be overtaken: a job's split is admitted all-or-nothing
// across shards, and a saturated shard rejects synchronously at
// submit(). Lock order is routing lock, then queue mutex — never the
// reverse.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "arbiterq/serve/job_queue.hpp"

namespace arbiterq::serve {

/// Point-in-time per-shard accounting, surfaced through
/// ServingReport::shards.
struct ShardStats {
  std::size_t shard = 0;
  std::size_t first_qpu = 0;
  std::size_t num_qpus = 0;
  std::size_t capacity = 0;
  std::uint64_t admitted_batches = 0;   ///< admitted batches pushed
  std::uint64_t reserve_rejects = 0;    ///< batches refused for room
  std::uint64_t cross_shard_in = 0;     ///< reroute batches received
  std::uint64_t cross_shard_out = 0;    ///< reroute batches sent to siblings
  /// Always 0; kept because the end-to-end benchmark still reads both.
  std::uint64_t doorbell_wakeups = 0;
  std::uint64_t doorbell_backstops = 0;  ///< always 0, as above
  std::uint64_t lock_wait_ns = 0;       ///< queue-mutex contention (JobQueue)
  std::uint64_t lock_contentions = 0;
};

class Shard {
 public:
  /// Shard `index` of `num_shards`, owning the contiguous QPU block
  /// [first_qpu, first_qpu + num_qpus). `capacity` bounds the admitted
  /// batches resident in this shard's queue. `num_tenants`/`arbiter`
  /// configure the queue's per-tenant FIFOs and per-lane dequeue
  /// arbiters (see job_queue.hpp).
  Shard(std::size_t index, std::size_t first_qpu, std::size_t num_qpus,
        std::size_t capacity, std::size_t num_shards,
        std::size_t num_tenants = 1, const ArbiterConfig& arbiter = {});

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  std::size_t num_qpus() const noexcept { return num_qpus_; }

  JobQueue& queue() noexcept { return queue_; }
  const JobQueue& queue() const noexcept { return queue_; }

  /// True when `n` more admitted batches fit; otherwise counts `n`
  /// reserve rejects. Caller holds the runtime's routing lock, which is
  /// what keeps the answer valid until push_admitted().
  bool has_room(std::size_t n);
  /// Push one admitted job's slice (slot order preserved) after
  /// has_room() said yes under the same routing-lock hold.
  void push_admitted(std::vector<ShotBatch> batches);
  /// Reroute a batch from shard `from` to its sibling `to` (from != to)
  /// straight into `to`'s queue as a retry.
  static void push_cross(Shard& from, Shard& to, ShotBatch batch);

  ShardStats stats() const;

 private:
  const std::size_t index_;
  const std::size_t first_qpu_;
  const std::size_t num_qpus_;
  const std::size_t capacity_;

  JobQueue queue_;

  std::atomic<std::uint64_t> admitted_batches_{0};
  std::atomic<std::uint64_t> reserve_rejects_{0};
  std::atomic<std::uint64_t> cross_in_{0};
  std::atomic<std::uint64_t> cross_out_{0};
};

}  // namespace arbiterq::serve
