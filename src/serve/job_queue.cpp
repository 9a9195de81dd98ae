#include "arbiterq/serve/job_queue.hpp"

#include <chrono>
#include <stdexcept>

#include "arbiterq/telemetry/metrics.hpp"

namespace arbiterq::serve {

JobQueue::JobQueue(std::size_t num_lanes, std::size_t capacity,
                   std::string depth_metric, std::size_t lane_base,
                   std::size_t num_tenants, const ArbiterConfig& arbiter)
    : lanes_(num_lanes * kPriorities *
             (num_tenants == 0 ? 1 : num_tenants)),
      capacity_(capacity),
      lane_base_(lane_base),
      num_tenants_(num_tenants == 0 ? 1 : num_tenants),
      depth_metric_(std::move(depth_metric)),
      tenant_depth_(num_tenants == 0 ? 1 : num_tenants, 0) {
  if (num_lanes == 0) {
    throw std::invalid_argument("JobQueue: no lanes");
  }
  if (capacity_ == 0) {
    throw std::invalid_argument("JobQueue: zero capacity");
  }
  if (num_tenants_ > 1) {
    // One arbiter per lane: a lane's grant history is a pure function
    // of that lane's content sequence, independent of which shard or
    // worker owns it — the property that keeps saturated-backlog
    // dequeue order identical across shard counts.
    arbiters_.reserve(num_lanes);
    for (std::size_t l = 0; l < num_lanes; ++l) {
      arbiters_.push_back(Arbiter::create(arbiter, num_tenants_));
    }
    head_seq_.resize(num_tenants_, kNoRequest);
  }
}

void JobQueue::note_depth_locked() {
  // Direct registry write (not AQ_GAUGE_SET): the gauge name is
  // per-instance, so the macro's function-local static cache would pin
  // every queue to whichever instance registered first.
  if (!telemetry::telemetry_runtime_enabled()) return;
  if (depth_gauge_ == nullptr) {
    depth_gauge_ = &telemetry::MetricsRegistry::global().gauge(depth_metric_);
  }
  depth_gauge_->set(static_cast<double>(total_depth_));
}

std::unique_lock<std::mutex> JobQueue::lock_timed() const {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (lock.owns_lock()) return lock;
  const auto t0 = std::chrono::steady_clock::now();
  lock.lock();
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  lock_wait_ns_.fetch_add(ns, std::memory_order_relaxed);
  lock_contentions_.fetch_add(1, std::memory_order_relaxed);
  AQ_COUNTER_ADD("serve.queue.lock_wait_ns", ns);
  AQ_COUNTER_ADD("serve.queue.lock_contentions", 1);
  return lock;
}

void JobQueue::enqueue_locked(ShotBatch batch, bool admitted) {
  const std::size_t lane = lane_of(batch);
  const std::size_t tenant = tenant_of(batch);
  const int pri = static_cast<int>(batch.priority);
  Entry e;
  e.admitted = admitted;
  e.seq = push_seq_++;
  e.batch = std::move(batch);
  cell(lane, pri, tenant).push_back(std::move(e));
  ++tenant_depth_[tenant];
  if (admitted) ++admitted_depth_;
  ++total_depth_;
}

bool JobQueue::try_push_all(std::vector<ShotBatch> batches) {
  std::unique_lock<std::mutex> lock = lock_timed();
  if (closed_ || admitted_depth_ + batches.size() > capacity_) return false;
  for (const ShotBatch& batch : batches) {
    if (lane_of(batch) * kPriorities * num_tenants_ >= lanes_.size()) {
      throw std::out_of_range("JobQueue::try_push_all: bad lane");
    }
  }
  for (ShotBatch& batch : batches) {
    enqueue_locked(std::move(batch), /*admitted=*/true);
  }
  note_depth_locked();
  cv_.notify_all();
  return true;
}

bool JobQueue::has_room(std::size_t n) const {
  std::unique_lock<std::mutex> lock = lock_timed();
  return !closed_ && admitted_depth_ + n <= capacity_;
}

void JobQueue::push_retry(ShotBatch batch) {
  const std::size_t lane = lane_of(batch);
  std::unique_lock<std::mutex> lock = lock_timed();
  if (lane * kPriorities * num_tenants_ >= lanes_.size()) {
    throw std::out_of_range("JobQueue::push_retry: bad lane");
  }
  enqueue_locked(std::move(batch), /*admitted=*/false);
  note_depth_locked();
  cv_.notify_all();
}

bool JobQueue::pop_locked(std::unique_lock<std::mutex>& lock,
                          const std::size_t* lanes, std::size_t n_lanes,
                          ShotBatch* out) {
  for (std::size_t i = 0; i < n_lanes; ++i) {
    if (lanes[i] * kPriorities * num_tenants_ >= lanes_.size()) {
      throw std::out_of_range("JobQueue::pop: bad lane");
    }
  }
  for (;;) {
    if (aborted_) return false;
    for (int pri = kPriorities - 1; pri >= 0; --pri) {
      for (std::size_t i = 0; i < n_lanes; ++i) {
        const std::size_t lane = lanes[i];
        std::deque<Entry>* q = nullptr;
        std::size_t tenant = 0;
        if (num_tenants_ == 1) {
          q = &cell(lane, pri, 0);
          if (q->empty()) q = nullptr;
        } else {
          // Fill the grant ports with each tenant's head-of-line push
          // sequence at this (lane, priority) and let the lane arbiter
          // pick; the FIFO arbiter reproduces the single-deque order
          // exactly (global minimum sequence).
          bool any = false;
          for (std::size_t t = 0; t < num_tenants_; ++t) {
            const std::deque<Entry>& c = cell(lane, pri, t);
            head_seq_[t] = c.empty() ? kNoRequest : c.front().seq;
            any = any || !c.empty();
          }
          if (any) {
            tenant = arbiters_[lane]->grant(head_seq_.data(), num_tenants_);
            ++arbiter_grants_;
            q = &cell(lane, pri, tenant);
          }
        }
        if (q == nullptr) continue;
        Entry e = std::move(q->front());
        q->pop_front();
        *out = std::move(e.batch);
        --tenant_depth_[num_tenants_ == 1 ? 0 : tenant];
        --total_depth_;
        if (e.admitted) --admitted_depth_;
        ++in_flight_;
        note_depth_locked();
        return true;
      }
    }
    if (drained_locked()) return false;
    cv_.wait(lock);
  }
}

bool JobQueue::pop(std::size_t lane, ShotBatch* out) {
  std::unique_lock<std::mutex> lock = lock_timed();
  return pop_locked(lock, &lane, 1, out);
}

bool JobQueue::pop_any(const std::vector<std::size_t>& lanes,
                       ShotBatch* out) {
  if (lanes.empty()) {
    throw std::invalid_argument("JobQueue::pop_any: no lanes");
  }
  std::unique_lock<std::mutex> lock = lock_timed();
  return pop_locked(lock, lanes.data(), lanes.size(), out);
}

void JobQueue::task_done() {
  std::unique_lock<std::mutex> lock = lock_timed();
  if (in_flight_ == 0) {
    throw std::logic_error("JobQueue::task_done: nothing in flight");
  }
  --in_flight_;
  if (drained_locked()) cv_.notify_all();
}

void JobQueue::close() {
  std::unique_lock<std::mutex> lock = lock_timed();
  closed_ = true;
  cv_.notify_all();
}

void JobQueue::abort() {
  std::unique_lock<std::mutex> lock = lock_timed();
  closed_ = true;
  aborted_ = true;
  cv_.notify_all();
}

bool JobQueue::closed() const {
  std::unique_lock<std::mutex> lock = lock_timed();
  return closed_;
}

std::size_t JobQueue::depth() const {
  std::unique_lock<std::mutex> lock = lock_timed();
  return total_depth_;
}

std::size_t JobQueue::lane_depth(std::size_t lane) const {
  std::unique_lock<std::mutex> lock = lock_timed();
  std::size_t d = 0;
  for (int pri = 0; pri < kPriorities; ++pri) {
    for (std::size_t t = 0; t < num_tenants_; ++t) {
      d += cell(lane, pri, t).size();
    }
  }
  return d;
}

std::size_t JobQueue::tenant_depth(std::size_t tenant) const {
  std::unique_lock<std::mutex> lock = lock_timed();
  return tenant < tenant_depth_.size() ? tenant_depth_[tenant] : 0;
}

std::uint64_t JobQueue::arbiter_grants() const {
  std::unique_lock<std::mutex> lock = lock_timed();
  return arbiter_grants_;
}

}  // namespace arbiterq::serve
