#include "arbiterq/serve/shard.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "arbiterq/telemetry/metrics.hpp"

namespace arbiterq::serve {

Shard::Shard(std::size_t index, std::size_t first_qpu, std::size_t num_qpus,
             std::size_t capacity, std::size_t num_shards,
             std::size_t num_tenants, const ArbiterConfig& arbiter)
    : index_(index),
      first_qpu_(first_qpu),
      num_qpus_(num_qpus),
      capacity_(capacity),
      queue_(num_qpus == 0 ? 1 : num_qpus, capacity == 0 ? 1 : capacity,
             num_shards <= 1
                 ? std::string("serve.queue.depth")
                 : "serve.queue.depth.shard" + std::to_string(index),
             first_qpu, num_tenants, arbiter) {
  if (num_qpus_ == 0) {
    throw std::invalid_argument("Shard: no QPUs");
  }
  if (capacity_ == 0) {
    throw std::invalid_argument("Shard: zero capacity");
  }
}

bool Shard::has_room(std::size_t n) {
  if (queue_.has_room(n)) return true;
  reserve_rejects_.fetch_add(n, std::memory_order_relaxed);
  AQ_COUNTER_ADD("serve.shard.reserve_rejects", n);
  return false;
}

void Shard::push_admitted(std::vector<ShotBatch> batches) {
  const std::size_t n = batches.size();
  if (!queue_.try_push_all(std::move(batches))) {
    throw std::logic_error("Shard::push_admitted: no room after has_room");
  }
  admitted_batches_.fetch_add(n, std::memory_order_relaxed);
}

void Shard::push_cross(Shard& from, Shard& to, ShotBatch batch) {
  to.queue_.push_retry(std::move(batch));
  from.cross_out_.fetch_add(1, std::memory_order_relaxed);
  to.cross_in_.fetch_add(1, std::memory_order_relaxed);
}

ShardStats Shard::stats() const {
  ShardStats s;
  s.shard = index_;
  s.first_qpu = first_qpu_;
  s.num_qpus = num_qpus_;
  s.capacity = capacity_;
  s.admitted_batches = admitted_batches_.load(std::memory_order_relaxed);
  s.reserve_rejects = reserve_rejects_.load(std::memory_order_relaxed);
  s.cross_shard_in = cross_in_.load(std::memory_order_relaxed);
  s.cross_shard_out = cross_out_.load(std::memory_order_relaxed);
  s.lock_wait_ns = queue_.lock_wait_ns();
  s.lock_contentions = queue_.lock_contentions();
  return s;
}

}  // namespace arbiterq::serve
