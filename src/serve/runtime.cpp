#include "arbiterq/serve/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/trace.hpp"

namespace arbiterq::serve {
namespace {

double wall_now_us() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::micro>(t).count();
}

/// Nearest-rank percentile (q in [0, 1]); reorders `v`.
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

std::uint64_t trace_thread_hash() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

std::string job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kPending:
      return "pending";
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kRejected:
      return "rejected";
    case JobStatus::kExpired:
      return "expired";
    case JobStatus::kFailed:
      return "failed";
  }
  throw std::logic_error("job_status_name: unknown status");
}

ServingRuntime::ServingRuntime(
    const std::vector<qnn::QnnExecutor>& executors,
    std::vector<std::vector<double>> weights,
    std::vector<core::BehavioralVector> behavioral, ServeConfig config,
    const FaultInjector* faults, monitor::FleetHealthMonitor* monitor,
    FlightRecorder* flight, monitor::SloEngine* slo)
    : executors_(executors),
      weights_(std::move(weights)),
      behavioral_(std::move(behavioral)),
      config_(config),
      faults_(faults),
      monitor_(monitor),
      flight_(flight),
      slo_(slo),
      root_(config.seed),
      dropout_noted_(executors.size(), false),
      qpu_shots_(executors.size(), 0.0),
      qpu_busy_us_(executors.size(), 0.0) {
  if (executors_.empty()) {
    throw std::invalid_argument("ServingRuntime: empty fleet");
  }
  if (weights_.size() != executors_.size() ||
      behavioral_.size() != executors_.size()) {
    throw std::invalid_argument(
        "ServingRuntime: weights/behavioral size mismatch");
  }
  if (config_.shots_per_job <= 0) {
    throw std::invalid_argument("ServingRuntime: shots_per_job must be > 0");
  }
  // Tenant table: configured rows plus the implicit catch-all slot that
  // absorbs unknown/unnamed tenants. Built before the shards so every
  // shard's queue is sized for the same tenant universe.
  if (!config_.tenants.empty()) {
    tenants_ = config_.tenants;
    TenantSpec other;
    other.name = "other";
    tenants_.push_back(std::move(other));
    tenant_qos_.resize(tenants_.size());
    tenant_labels_.reserve(tenants_.size());
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      tenant_labels_.push_back(telemetry::safe_label(tenants_[t].name, 64));
      // Admission-credit buckets start full: a tenant may spend its
      // whole burst at clock 0.
      tenant_qos_[t].tokens = tenants_[t].admit_burst;
      if (!tenants_[t].name.empty()) {
        tenant_ids_.emplace(tenants_[t].name,
                            static_cast<std::uint32_t>(t));
      }
    }
  }
  ArbiterConfig arb;
  arb.kind = config_.arbiter;
  for (const TenantSpec& t : tenants_) arb.weights.push_back(t.weight);
  const std::size_t num_tenants = tenants_.empty() ? 1 : tenants_.size();
  // Carve the fleet into contiguous QPU blocks, one shard each, and
  // split the admission budget evenly. Shard boundaries are a function
  // of (fleet size, shard count) alone — routing never consults them —
  // so per-job results are invariant across shard counts.
  const std::size_t n = executors_.size();
  const std::size_t num_shards = std::clamp<std::size_t>(
      config_.num_shards <= 0 ? 1
                              : static_cast<std::size_t>(config_.num_shards),
      1, n);
  const std::size_t total_cap =
      config_.queue_capacity == 0 ? 1 : config_.queue_capacity;
  shards_.reserve(num_shards);
  shard_by_qpu_.resize(n);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t first = s * n / num_shards;
    const std::size_t last = (s + 1) * n / num_shards;
    shards_.push_back(std::make_unique<Shard>(
        s, first, last - first,
        std::max<std::size_t>(1, total_cap / num_shards), num_shards,
        num_tenants, arb));
    // shard_of() must be the exact inverse of this block layout, so it
    // serves from a table filled here rather than a re-derivation.
    for (std::size_t q = first; q < last; ++q) shard_by_qpu_[q] = s;
  }
  if (monitor_ != nullptr) {
    std::vector<int> shard_by_qpu(n);
    for (std::size_t q = 0; q < n; ++q) {
      shard_by_qpu[q] = static_cast<int>(shard_of(static_cast<int>(q)));
    }
    monitor_->set_shard_map(std::move(shard_by_qpu));
  }
  AQ_GAUGE_SET("serve.shards", static_cast<double>(num_shards));
  // Epoch 0: the full fleet's partition, built eagerly so routing never
  // races with lazy construction elsewhere.
  std::vector<int> all(executors_.size());
  for (std::size_t q = 0; q < all.size(); ++q) all[q] = static_cast<int>(q);
  partitions_.push_back(core::repartition_alive(behavioral_, weights_, all,
                                                config_.num_tori));
  torus_rate_.emplace_back();
  credit_.emplace_back();
  std::size_t members0 = 0;
  for (const auto& torus : partitions_[0].tori) {
    double rate = 0.0;
    for (int q : torus) rate += executors_[static_cast<std::size_t>(q)]
                                    .shot_rate();
    torus_rate_[0].push_back(rate);
    credit_[0].push_back(0.0);
    members0 += torus.size();
  }
  epoch_alive_.push_back(std::max<std::size_t>(1, members0));
  // The shot-latency cache and modeled lane clocks feed the admission
  // clock, the tenant quotas, and the wait model — needed with or
  // without a time-series sink.
  shot_lat_us_.reserve(executors_.size());
  for (const auto& ex : executors_) {
    shot_lat_us_.push_back(ex.shot_latency_us());
  }
  qpu_clock_us_.assign(executors_.size(), 0.0);
  if (config_.series != nullptr) {
    telemetry::TimeSeriesStore& ts = *config_.series;
    ts_admitted_ = ts.series("serve.ts.admitted",
                             telemetry::SeriesKind::kEvent);
    ts_completed_ = ts.series("serve.ts.completed",
                              telemetry::SeriesKind::kEvent);
    ts_latency_ = ts.series("serve.ts.virtual_latency_us",
                            telemetry::SeriesKind::kHistogram,
                            telemetry::latency_buckets_us());
    ts_admitted_shard_.resize(shards_.size());
    ts_completed_shard_.resize(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      ts_admitted_shard_[s] =
          ts.series("serve.ts.admitted.shard" + std::to_string(s),
                    telemetry::SeriesKind::kEvent);
      ts_completed_shard_[s] =
          ts.series("serve.ts.completed.shard" + std::to_string(s),
                    telemetry::SeriesKind::kEvent);
    }
    // Slot-indexed tenant series, resolved up front so the finalize
    // path (worker threads) reads the vectors without a lock. The lazy
    // name-keyed map stays for runs without a tenant table.
    ts_tenant_admitted_.resize(tenants_.size());
    ts_tenant_completed_.resize(tenants_.size());
    ts_tenant_latency_.resize(tenants_.size());
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      ts_tenant_admitted_[t] =
          ts.series("serve.ts.admitted.tenant." + tenant_labels_[t],
                    telemetry::SeriesKind::kEvent);
      ts_tenant_completed_[t] =
          ts.series("serve.ts.completed.tenant." + tenant_labels_[t],
                    telemetry::SeriesKind::kEvent);
      ts_tenant_latency_[t] =
          ts.series("serve.ts.virtual_latency_us.tenant." + tenant_labels_[t],
                    telemetry::SeriesKind::kHistogram,
                    telemetry::latency_buckets_us());
    }
  }
  inflight_ = std::make_unique<std::atomic<int>[]>(executors_.size());
  for (std::size_t q = 0; q < executors_.size(); ++q) {
    inflight_[q].store(0, std::memory_order_relaxed);
  }
  if (config_.gauge_cadence_us > 0.0) {
    gauge_next_us_.store(
        static_cast<std::uint64_t>(config_.gauge_cadence_us),
        std::memory_order_relaxed);
  }
  AQ_GAUGE_SET("serve.fleet.alive", static_cast<double>(executors_.size()));
  if (config_.autostart) start();
}

ServingRuntime::~ServingRuntime() {
  if (started_ && !drained_) {
    {
      // Under the routing lock: an in-flight submit finishes pushing
      // before the flag flips, and later submits reject cleanly.
      std::lock_guard<std::mutex> lock(route_mu_);
      accepting_.store(false, std::memory_order_release);
    }
    // abort() wakes every popper and abandons what remains. A worker
    // mid-reroute may still push_retry into an aborted queue: that push
    // never blocks, and nothing pops it, so every join below returns.
    for (auto& shard : shards_) shard->queue().abort();
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }
    drained_ = true;
  }
}

void ServingRuntime::start() {
  if (started_ || drained_) return;
  started_ = true;
  // Jobs staged before start() (autostart=false) already sit in the
  // queues, so the per-lane arbiters grant over the complete backlog
  // from the first pop — the saturated-replay determinism contract.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t lanes = shards_[s]->num_qpus();
    const std::size_t per_shard =
        config_.workers_per_shard <= 0
            ? lanes
            : std::min<std::size_t>(
                  static_cast<std::size_t>(config_.workers_per_shard),
                  lanes);
    for (std::size_t w = 0; w < per_shard; ++w) {
      workers_.emplace_back(&ServingRuntime::worker_main, this, s, w,
                            per_shard);
    }
  }
}

std::optional<std::uint64_t> ServingRuntime::submit(const JobSpec& spec) {
  // A wrong feature width would otherwise throw on a worker thread,
  // where nothing catches it; refuse it before any routing state moves.
  const auto width =
      static_cast<std::size_t>(executors_.front().model().num_qubits());
  if (spec.features.size() != width) {
    throw std::invalid_argument(
        "ServingRuntime::submit: job has " +
        std::to_string(spec.features.size()) + " features, the fleet's model "
        "expects " + std::to_string(width));
  }
  std::unique_lock<std::mutex> route(route_mu_);
  const std::uint64_t id = next_job_++;
  const bool traced =
      telemetry::telemetry_runtime_enabled() &&
      config_.trace_sample_every > 0 &&
      id % static_cast<std::uint64_t>(config_.trace_sample_every) == 0;
  const std::uint64_t route_start_ns =
      traced ? telemetry::trace_now_ns() : 0;
  if (first_submit_wall_us_ == 0.0) first_submit_wall_us_ = wall_now_us();

  // Open-loop arrivals pin the modeled admission clock to the generated
  // timeline (monotone: out-of-order stamps never rewind it); closed-
  // loop submits advance it by modeled cost below, after admission.
  if (spec.arrival_us >= 0.0 && spec.arrival_us > admit_clock_us_) {
    admit_clock_us_ = spec.arrival_us;
  }
  const bool qos = !tenants_.empty();
  const std::uint32_t tenant_id =
      qos ? resolve_tenant_locked(spec.tenant) : 0;
  const int job_shots =
      spec.shots > 0 ? spec.shots : config_.shots_per_job;

  const std::size_t epoch =
      faults_ != nullptr ? faults_->routing_epoch(id) : 0;
  ensure_epoch_locked(epoch);
  const core::TorusPartition& part = partitions_[epoch];

  // Torus choice: credit-based largest-remainder weighted round-robin,
  // proportional to torus shot throughput (the scheduler's
  // batch_based_inference discipline, lifted to the serving plane).
  std::vector<double>& credit = credit_[epoch];
  const std::vector<double>& rate = torus_rate_[epoch];
  double total_rate = 0.0;
  for (double r : rate) total_rate += r;
  std::size_t pick = 0;
  if (total_rate > 0.0 && !rate.empty()) {
    for (std::size_t t = 0; t < rate.size(); ++t) {
      credit[t] += rate[t] / total_rate;
    }
    for (std::size_t t = 1; t < credit.size(); ++t) {
      if (credit[t] > credit[pick]) pick = t;
    }
    credit[pick] -= 1.0;
  }
  const std::vector<int>& members = part.tori[pick];

  // Shot split across the torus by shot-rate share (§IV): round, last
  // member absorbs the remainder, zero-shot members are skipped.
  double member_rate = 0.0;
  for (int q : members) {
    member_rate += executors_[static_cast<std::size_t>(q)].shot_rate();
  }
  std::vector<std::pair<int, int>> split;  // (qpu, shots)
  int remaining = job_shots;
  for (std::size_t i = 0; i < members.size() && remaining > 0; ++i) {
    const int q = members[i];
    int shots;
    if (i + 1 == members.size()) {
      shots = remaining;
    } else {
      const double share =
          member_rate > 0.0
              ? executors_[static_cast<std::size_t>(q)].shot_rate() /
                    member_rate
              : 1.0 / static_cast<double>(members.size());
      shots = static_cast<int>(std::lround(share * job_shots));
      shots = std::clamp(shots, 0, remaining);
    }
    if (shots <= 0) continue;
    remaining -= shots;
    split.emplace_back(q, shots);
  }
  if (split.empty()) {
    split.emplace_back(members.front(), job_shots);
  }
  // Modeled serial execution cost of the split: advances the admission
  // clock on admit and stamps the tenant's in-flight window.
  double modeled_us = 0.0;
  for (const auto& [q, shots] : split) {
    modeled_us += static_cast<double>(shots) *
                  shot_lat_us_[static_cast<std::size_t>(q)];
  }

  // Create the job row before admission so a rejection still records.
  JobState* job;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.emplace_back();
    job = &jobs_.back();
  }
  job->id = id;
  job->features = spec.features;
  job->label = spec.label;
  job->priority = spec.priority;
  job->deadline_us =
      spec.deadline_us >= 0.0 ? spec.deadline_us : config_.deadline_us;
  job->epoch = epoch;
  job->torus = pick;
  job->tenant = spec.tenant;
  job->tenant_id = tenant_id;
  job->shots = job_shots;
  job->slo_class = spec.slo_class;
  job->traced = traced;
  if (traced) {
    job->root_span = telemetry::allocate_span_id();
    job->submit_ns = route_start_ns;
    job->flow_label = telemetry::safe_label(
        "job-" + std::to_string(id) +
        (spec.tenant.empty() ? std::string() : " tenant=" + spec.tenant));
  }
  if (flight_ != nullptr) {
    FlightEvent ev;
    ev.kind = FlightEventKind::kRoute;
    ev.value = static_cast<double>(pick);
    job->route_events.push_back(ev);
  }
  job->home_shard = shard_of(split.front().first);
  job->slots.resize(split.size());
  job->pending.store(static_cast<int>(split.size()),
                     std::memory_order_release);
  job->submit_wall_us = wall_now_us();

  // Tenant quotas, evaluated on the modeled admission clock *before*
  // the capacity check: both decisions are pure functions of the
  // arrival sequence (unlike the live-occupancy capacity check), so the
  // quota-admitted set is bit-identical across runs and shard counts.
  if (qos) {
    const TenantSpec& tspec = tenants_[tenant_id];
    TenantQos& tq = tenant_qos_[tenant_id];
    const double now = admit_clock_us_;
    // Retire in-flight entries whose modeled completion has passed.
    while (!tq.inflight_done_us.empty() &&
           tq.inflight_done_us.front() <= now) {
      std::pop_heap(tq.inflight_done_us.begin(), tq.inflight_done_us.end(),
                    std::greater<>());
      tq.inflight_done_us.pop_back();
    }
    if (tspec.admit_rate_per_s > 0.0) {
      tq.tokens = std::min(
          tspec.admit_burst,
          tq.tokens +
              (now - tq.token_stamp_us) * tspec.admit_rate_per_s * 1e-6);
      tq.token_stamp_us = now;
    }
    FlightEventKind reject_kind = FlightEventKind::kQuotaReject;
    double reject_value = 0.0;
    bool quota_reject = false;
    if (tspec.max_in_flight > 0 &&
        tq.inflight_done_us.size() >= tspec.max_in_flight) {
      quota_reject = true;
      ++tq.quota_rejected;
      reject_value = static_cast<double>(tq.inflight_done_us.size());
      AQ_COUNTER_ADD("serve.jobs.rejected.quota", 1);
    } else if (tspec.admit_rate_per_s > 0.0 && tq.tokens < 1.0) {
      quota_reject = true;
      ++tq.throttled;
      reject_kind = FlightEventKind::kThrottle;
      reject_value = tq.tokens;
      AQ_COUNTER_ADD("serve.jobs.rejected.throttled", 1);
    }
    if (quota_reject) {
      route.unlock();
      job->status = JobStatus::kRejected;
      job->pending.store(0, std::memory_order_release);
      AQ_COUNTER_ADD("serve.jobs.rejected", 1);
      if (flight_ != nullptr) {
        FlightEvent ev;
        ev.kind = reject_kind;
        ev.value = reject_value;
        job->route_events.push_back(ev);
        flight_dump(*job);
      }
      if (slo_ != nullptr) {
        slo_->observe_job(job->slo_class, 0.0, false,
                          static_cast<int>(job->home_shard), job->tenant);
      }
      if (traced) trace_root(*job);
      return std::nullopt;
    }
  }

  std::vector<ShotBatch> batches;
  std::vector<std::size_t> batch_shard;
  batches.reserve(split.size());
  batch_shard.reserve(split.size());
  for (std::size_t s = 0; s < split.size(); ++s) {
    ShotBatch b;
    b.job = id;
    b.slot = s;
    b.qpu = split[s].first;
    b.shots = split[s].second;
    b.attempt = 0;
    b.priority = spec.priority;
    b.tenant = tenant_id;
    batches.push_back(std::move(b));
    batch_shard.push_back(shard_of(split[s].first));
  }

  // All-or-nothing admission: every shard the split touches must have
  // room, or the job is rejected synchronously — backpressure never
  // leaves submit(). Only this routing-lock holder adds admitted units
  // and pops only free them, so the answer holds until the pushes below.
  std::vector<std::pair<std::size_t, std::size_t>> need;  // (shard, count)
  for (std::size_t s : batch_shard) {
    bool found = false;
    for (auto& p : need) {
      if (p.first == s) {
        ++p.second;
        found = true;
        break;
      }
    }
    if (!found) need.emplace_back(s, 1);
  }
  bool room = accepting_.load(std::memory_order_acquire);
  for (std::size_t i = 0; room && i < need.size(); ++i) {
    room = shards_[need[i].first]->has_room(need[i].second);
  }
  if (!room) {
    route.unlock();
    job->status = JobStatus::kRejected;
    job->pending.store(0, std::memory_order_release);
    AQ_COUNTER_ADD("serve.jobs.rejected", 1);
    if (flight_ != nullptr) {
      FlightEvent ev;
      ev.kind = FlightEventKind::kReject;
      ev.value = static_cast<double>(queue_depth());
      job->route_events.push_back(ev);
      flight_dump(*job);
    }
    if (slo_ != nullptr) {
      slo_->observe_job(job->slo_class, 0.0, false,
                        static_cast<int>(job->home_shard), job->tenant);
    }
    if (traced) trace_root(*job);
    return std::nullopt;
  }

  outstanding_.fetch_add(batches.size(), std::memory_order_release);
  // Stamp the job on the modeled admission clock. Closed-loop submits
  // advance it by the job's modeled serial cost spread over the epoch's
  // alive fleet (an idealized perfectly-parallel fleet clock); open-loop
  // submits already pinned it to the arrival stamp above. Pure function
  // of the admitted sequence (routing lock held), so the recorded
  // series reproduces bit-identically.
  if (spec.arrival_us < 0.0) {
    admit_clock_us_ += modeled_us / static_cast<double>(epoch_alive_[epoch]);
  }
  job->admit_virtual_us = admit_clock_us_;
  if (qos) {
    // Consume quota only for actually-admitted jobs: a capacity reject
    // below this point cannot happen (every shard had room), so the
    // consumed state stays a pure function of the arrival sequence.
    const TenantSpec& tspec = tenants_[tenant_id];
    TenantQos& tq = tenant_qos_[tenant_id];
    if (tspec.admit_rate_per_s > 0.0) tq.tokens -= 1.0;
    if (tspec.max_in_flight > 0) {
      tq.inflight_done_us.push_back(admit_clock_us_ + modeled_us);
      std::push_heap(tq.inflight_done_us.begin(), tq.inflight_done_us.end(),
                     std::greater<>());
    }
  }
  if (config_.series != nullptr) {
    config_.series->observe(ts_admitted_, admit_clock_us_, 1.0);
    config_.series->observe(ts_admitted_shard_[job->home_shard],
                            admit_clock_us_, 1.0);
    if (qos) {
      config_.series->observe(ts_tenant_admitted_[tenant_id],
                              admit_clock_us_, 1.0);
    } else if (!job->tenant.empty()) {
      auto it = ts_tenant_.find(job->tenant);
      if (it == ts_tenant_.end()) {
        it = ts_tenant_
                 .emplace(job->tenant,
                          config_.series->series(
                              "serve.ts.admitted.tenant." +
                                  telemetry::safe_label(job->tenant, 64),
                              telemetry::SeriesKind::kEvent))
                 .first;
      }
      config_.series->observe(it->second, admit_clock_us_, 1.0);
    }
  }
  if (traced) {
    const std::uint64_t now = telemetry::trace_now_ns();
    trace_child(*job, "serve.job.route", route_start_ns, now);
    for (ShotBatch& b : batches) b.enqueue_ns = now;
  }

  // Push each shard its slice, slot order preserved, while still
  // holding the routing lock (lock order: routing lock, then queue).
  for (const auto& [shard, count] : need) {
    std::vector<ShotBatch> slice;
    slice.reserve(count);
    for (std::size_t i = 0; i < batches.size(); ++i) {
      if (batch_shard[i] == shard) slice.push_back(std::move(batches[i]));
    }
    shards_[shard]->push_admitted(std::move(slice));
  }
  route.unlock();
  AQ_COUNTER_ADD("serve.jobs.admitted", 1);
  return id;
}

void ServingRuntime::ensure_epoch_locked(std::size_t epoch) {
  while (partitions_.size() <= epoch) {
    const std::size_t next = partitions_.size();
    // The dropouts that define this epoch are now router-visible:
    // record them (monitor + counters) exactly once.
    for (std::size_t i = 0; i < next && i < faults_->dropouts().size();
         ++i) {
      note_dropout(faults_->dropouts()[i].qpu);
    }
    // Scoped rebuild: epoch k removes the k-th dropout from the one
    // torus that contains it (core::repartition_torus), leaving every
    // other torus — and therefore every other shard's routing — byte-
    // identical to the previous epoch. A dropout is contained to its
    // torus instead of reshuffling the fleet.
    const core::TorusPartition& prev = partitions_[next - 1];
    const int dead_qpu = faults_->dropouts()[next - 1].qpu;
    bool member = false;
    for (const auto& torus : prev.tori) {
      for (int q : torus) {
        if (q == dead_qpu) {
          member = true;
          break;
        }
      }
    }
    partitions_.push_back(member ? core::repartition_torus(prev, dead_qpu)
                                 : prev);
    torus_rate_.emplace_back();
    credit_.emplace_back();
    std::size_t members = 0;
    for (const auto& torus : partitions_[next].tori) {
      double rate = 0.0;
      for (int q : torus) {
        rate += executors_[static_cast<std::size_t>(q)].shot_rate();
      }
      torus_rate_[next].push_back(rate);
      credit_[next].push_back(0.0);
      members += torus.size();
    }
    epoch_alive_.push_back(std::max<std::size_t>(1, members));
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      ++repartitions_;
    }
    AQ_COUNTER_ADD("serve.repartitions", 1);
    AQ_GAUGE_SET("serve.fleet.alive",
                 static_cast<double>(faults_->alive_at_epoch(next).size()));
  }
}

void ServingRuntime::note_dropout(int qpu) {
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    const auto i = static_cast<std::size_t>(qpu);
    if (i < dropout_noted_.size() && !dropout_noted_[i]) {
      dropout_noted_[i] = true;
      ++dropouts_detected_;
      fresh = true;
    }
  }
  if (!fresh) return;
  AQ_COUNTER_ADD("serve.qpu.dropouts", 1);
  if (monitor_ != nullptr) monitor_->observe_membership(qpu, false);
}

std::uint32_t ServingRuntime::resolve_tenant_locked(
    const std::string& name) const {
  const auto it = tenant_ids_.find(name);
  if (it != tenant_ids_.end()) return it->second;
  // Unknown or empty tenant: the catch-all slot the constructor
  // appended after the configured rows.
  return static_cast<std::uint32_t>(tenants_.size() - 1);
}

ServingRuntime::JobState* ServingRuntime::job_ptr(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  return &jobs_[static_cast<std::size_t>(id)];
}

void ServingRuntime::worker_main(std::size_t shard_index, std::size_t worker,
                                 std::size_t stride) {
  Shard& shard = *shards_[shard_index];
  // Striped lane ownership: local lane l belongs to worker l % stride,
  // so every QPU still has exactly one worker touching its accounting.
  std::vector<std::size_t> lanes;
  for (std::size_t l = worker; l < shard.num_qpus(); l += stride) {
    lanes.push_back(l);
  }
  ShotBatch batch;
  while (shard.queue().pop_any(lanes, &batch)) {
    const int qpu = batch.qpu;
    std::atomic<int>& inflight = inflight_[static_cast<std::size_t>(qpu)];
    inflight.fetch_add(1, std::memory_order_relaxed);
    process_batch(qpu, std::move(batch));
    inflight.fetch_sub(1, std::memory_order_relaxed);
    shard.queue().task_done();
  }
}

void ServingRuntime::process_batch(int qpu, ShotBatch batch) {
  AQ_TRACE_SPAN("serve.worker.execute");
  JobState& job = *job_ptr(batch.job);
  BatchSlot& slot = job.slots[batch.slot];
  const auto uq = static_cast<std::size_t>(qpu);
  const int si = static_cast<int>(batch.slot);

  // Queue-wait span for traced jobs: enqueue -> this pop.
  std::uint64_t now_ns = 0;
  if (job.traced) {
    now_ns = telemetry::trace_now_ns();
    if (batch.enqueue_ns != 0) {
      trace_child(job, "serve.batch.wait", batch.enqueue_ns, now_ns);
    }
  }

  // Dead device: the batch landed inside the detection window (or was
  // already queued when the QPU died). Detect, then re-route with no
  // backoff — a dropout is recognized immediately, unlike a transient.
  if (dead(qpu, job.id)) {
    note_dropout(qpu);
    AQ_COUNTER_ADD("serve.batches.failed", 1);
    flight_note(slot, FlightEventKind::kDropoutFault, si, batch.attempt,
                qpu, slot.chain_us, 0.0);
    if (job.traced) {
      trace_child(job, "serve.batch.fault.dropout", now_ns,
                  telemetry::trace_now_ns());
    }
    reroute(job, std::move(batch), qpu, /*backoff=*/false);
    return;
  }

  if (faults_ != nullptr &&
      faults_->transient_failure(job.id, qpu, batch.attempt)) {
    AQ_COUNTER_ADD("serve.batches.failed", 1);
    flight_note(slot, FlightEventKind::kTransientFault, si, batch.attempt,
                qpu, slot.chain_us, 0.0);
    if (job.traced) {
      trace_child(job, "serve.batch.fault.transient", now_ns,
                  telemetry::trace_now_ns());
    }
    reroute(job, std::move(batch), qpu, /*backoff=*/true);
    return;
  }

  // Modeled hardware time for this execution.
  const qnn::QnnExecutor& exec = executors_[uq];
  double mult = 1.0;
  if (faults_ != nullptr) {
    mult = faults_->latency_multiplier(job.id, qpu, batch.attempt);
  }
  const double exec_us =
      static_cast<double>(batch.shots) * exec.shot_latency_us() * mult;
  const double chain_before_us = slot.chain_us;
  slot.chain_us += exec_us;
  qpu_busy_us_[uq] += exec_us;
  // Wait model: the batch starts when both the lane is free and the
  // batch is ready (admission stamp + any prior failed attempts or
  // backoffs on its chain). The lane clock is single-writer — only this
  // QPU's worker touches it — and advances whether the batch executes
  // or expires (either way it occupied the device).
  double elapsed_us = slot.chain_us;
  if (config_.model_queue_wait) {
    const double ready_us = job.admit_virtual_us + chain_before_us;
    const double start_us = std::max(qpu_clock_us_[uq], ready_us);
    slot.finish_us = start_us + exec_us;
    qpu_clock_us_[uq] = slot.finish_us;
    elapsed_us = slot.finish_us - job.admit_virtual_us;
  }
  if (mult > 1.0) {
    flight_note(slot, FlightEventKind::kLatencySpike, si, batch.attempt,
                qpu, slot.chain_us, mult);
  }
  advance_virtual_time(exec_us);

  // Deadline check on the modeled elapsed time (wait-inclusive under
  // the wait model, chain-only otherwise) *before* burning the
  // execution: an expired batch is dropped, not retried.
  if (job.deadline_us > 0.0 && elapsed_us > job.deadline_us) {
    slot.outcome = BatchSlot::Outcome::kExpired;
    slot.qpu = qpu;
    slot.shots = batch.shots;
    AQ_COUNTER_ADD("serve.batches.expired", 1);
    flight_note(slot, FlightEventKind::kExpire, si, batch.attempt, qpu,
                slot.chain_us, job.deadline_us);
    if (job.traced) {
      trace_child(job, "serve.batch.expire", now_ns,
                  telemetry::trace_now_ns());
    }
    complete_slot(job);
    return;
  }

  math::Rng rng = root_.split("serve").split(job.id).split(
      static_cast<std::uint64_t>(batch.slot) * 97ULL +
      static_cast<std::uint64_t>(batch.attempt));
  const double p = exec.sampled_probability(
      job.features, weights_[uq], batch.shots, rng, config_.trajectories);
  qpu_shots_[uq] += static_cast<double>(batch.shots);

  slot.outcome = BatchSlot::Outcome::kOk;
  slot.qpu = qpu;
  slot.probability = p;
  slot.shots = batch.shots;
  AQ_COUNTER_ADD("serve.batches.executed", 1);
  flight_note(slot, FlightEventKind::kExecute, si, batch.attempt, qpu,
              slot.chain_us, exec_us);
  if (job.traced) {
    trace_child(job, "serve.batch.exec", now_ns, telemetry::trace_now_ns());
  }
  complete_slot(job);
}

void ServingRuntime::reroute(JobState& job, ShotBatch batch, int failed_qpu,
                             bool backoff) {
  BatchSlot& slot = job.slots[batch.slot];
  const int si = static_cast<int>(batch.slot);
  batch.excluded.push_back(failed_qpu);

  if (batch.attempt >= config_.max_retries) {
    slot.outcome = BatchSlot::Outcome::kFailed;
    slot.qpu = failed_qpu;
    slot.shots = batch.shots;
    flight_note(slot, FlightEventKind::kRetriesExhausted, si, batch.attempt,
                failed_qpu, slot.chain_us, 0.0);
    complete_slot(job);
    return;
  }

  // Candidates: the job's torus members, minus every QPU that already
  // failed this batch, minus devices dead for this job; fall back to
  // the whole fleet under the same filters when the torus is exhausted.
  const std::vector<int>& members =
      partition_members_locked_copy(job.epoch, job.torus);
  auto viable = [&](int q) {
    if (dead(q, job.id)) return false;
    for (int e : batch.excluded) {
      if (e == q) return false;
    }
    return true;
  };
  std::vector<int> candidates;
  for (int q : members) {
    if (viable(q)) candidates.push_back(q);
  }
  if (candidates.empty()) {
    for (int q = 0; q < static_cast<int>(executors_.size()); ++q) {
      if (viable(q)) candidates.push_back(q);
    }
  }
  if (candidates.empty()) {
    slot.outcome = BatchSlot::Outcome::kFailed;
    slot.qpu = failed_qpu;
    slot.shots = batch.shots;
    flight_note(slot, FlightEventKind::kRetriesExhausted, si, batch.attempt,
                failed_qpu, slot.chain_us, 0.0);
    complete_slot(job);
    return;
  }

  // Deterministic target: the first candidate cyclically after the
  // failed QPU (candidates are ascending).
  int target = candidates.front();
  for (int q : candidates) {
    if (q > failed_qpu) {
      target = q;
      break;
    }
  }

  if (backoff) {
    // Exponential backoff with deterministic jitter, charged to the
    // batch's modeled chain and slept for real on this worker.
    math::Rng rng = root_.split("backoff").split(job.id).split(
        static_cast<std::uint64_t>(batch.slot) * 97ULL +
        static_cast<std::uint64_t>(batch.attempt));
    const double jitter = rng.uniform(0.5, 1.5);
    const double wait = std::min(
        config_.backoff_base_us * std::ldexp(jitter, batch.attempt),
        config_.backoff_max_us);
    slot.chain_us += wait;
    flight_note(slot, FlightEventKind::kBackoff, si, batch.attempt,
                failed_qpu, slot.chain_us, wait);
    const std::uint64_t backoff_start_ns =
        job.traced ? telemetry::trace_now_ns() : 0;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(wait));
    if (job.traced) {
      trace_child(job, "serve.batch.backoff", backoff_start_ns,
                  telemetry::trace_now_ns());
    }
  }

  ++batch.attempt;
  batch.qpu = target;
  flight_note(slot, FlightEventKind::kReroute, si, batch.attempt,
              failed_qpu, slot.chain_us, static_cast<double>(target));
  job.retries.fetch_add(1, std::memory_order_relaxed);
  AQ_COUNTER_ADD("serve.retries", 1);
  if (job.traced) batch.enqueue_ns = telemetry::trace_now_ns();
  // Straight into the target shard's queue; this worker holds no lock
  // here, so the push keeps the routing-then-queue lock order.
  const std::size_t from = shard_of(failed_qpu);
  const std::size_t to = shard_of(target);
  if (to == from) {
    shards_[to]->queue().push_retry(std::move(batch));
  } else {
    AQ_COUNTER_ADD("serve.shard.cross_sends", 1);
    Shard::push_cross(*shards_[from], *shards_[to], std::move(batch));
  }
}

std::vector<int> ServingRuntime::partition_members_locked_copy(
    std::size_t epoch, std::size_t torus) const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return partitions_[epoch].tori[torus];
}

void ServingRuntime::complete_slot(JobState& job) {
  if (job.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    finalize(job);
  }
  // One decrement per admitted slot reaching a terminal outcome; the
  // drain() barrier spins on this hitting zero.
  outstanding_.fetch_sub(1, std::memory_order_release);
}

void ServingRuntime::finalize(JobState& job) {
  // Fold slots in index order: completion order never touches the FP
  // reduction, so the probability is schedule-independent.
  double weighted = 0.0;
  double total_shots = 0.0;
  bool any_failed = false;
  bool any_expired = false;
  double vlat = 0.0;
  for (const BatchSlot& slot : job.slots) {
    switch (slot.outcome) {
      case BatchSlot::Outcome::kOk:
        weighted += slot.probability * static_cast<double>(slot.shots);
        total_shots += static_cast<double>(slot.shots);
        break;
      case BatchSlot::Outcome::kFailed:
        any_failed = true;
        break;
      case BatchSlot::Outcome::kExpired:
        any_expired = true;
        break;
      case BatchSlot::Outcome::kPending:
        any_failed = true;  // unreachable; defensive
        break;
    }
    // Wait model: a slot's latency is its lane-clock finish relative to
    // the admission stamp; slots that never reached a device (faulted
    // out) fall back to their chain time.
    vlat = std::max(vlat, config_.model_queue_wait && slot.finish_us > 0.0
                              ? slot.finish_us - job.admit_virtual_us
                              : slot.chain_us);
  }
  job.probability = total_shots > 0.0 ? weighted / total_shots : 0.5;
  job.loss = qnn::loss_value(config_.loss, job.probability, job.label);
  job.virtual_latency_us = vlat;
  job.wall_latency_us = wall_now_us() - job.submit_wall_us;

  if (any_failed) {
    job.status = JobStatus::kFailed;
    AQ_COUNTER_ADD("serve.jobs.failed", 1);
  } else if (any_expired ||
             (job.deadline_us > 0.0 && vlat > job.deadline_us)) {
    job.status = JobStatus::kExpired;
    AQ_COUNTER_ADD("serve.jobs.expired", 1);
  } else {
    job.status = JobStatus::kOk;
    AQ_COUNTER_ADD("serve.jobs.completed", 1);
  }
  AQ_HISTOGRAM_OBSERVE("serve.job.latency_us",
                       telemetry::latency_buckets_us(),
                       job.wall_latency_us);
  AQ_HISTOGRAM_OBSERVE("serve.job.virtual_latency_us",
                       telemetry::latency_buckets_us(),
                       job.virtual_latency_us);
  if (telemetry::telemetry_runtime_enabled()) {
    // Names vary at runtime (per class / per tenant), so these bypass
    // the static-caching AQ_* macros and hit the registry directly.
    auto& reg = telemetry::MetricsRegistry::global();
    reg.histogram("serve.job.virtual_latency_us." +
                      monitor::slo_class_name(job.slo_class),
                  telemetry::latency_buckets_us())
        .observe(job.virtual_latency_us);
    if (!job.tenant.empty()) {
      reg.counter("serve.tenant.jobs." +
                  telemetry::safe_label(job.tenant, 64))
          .add(1);
    }
  }
  if (config_.series != nullptr) {
    // Completion stamped at modeled admission + modeled latency: still a
    // pure function of the job, so the series stays schedule-invariant.
    const double t = job.admit_virtual_us + job.virtual_latency_us;
    config_.series->observe(ts_completed_, t, 1.0);
    config_.series->observe(ts_completed_shard_[job.home_shard], t, 1.0);
    config_.series->observe(ts_latency_, t, job.virtual_latency_us);
    if (!tenants_.empty()) {
      config_.series->observe(ts_tenant_completed_[job.tenant_id], t, 1.0);
      config_.series->observe(ts_tenant_latency_[job.tenant_id], t,
                              job.virtual_latency_us);
    }
  }
  if (slo_ != nullptr) {
    slo_->observe_job(job.slo_class, job.virtual_latency_us,
                      job.status == JobStatus::kOk,
                      static_cast<int>(job.home_shard), job.tenant);
  }
  if (flight_ != nullptr && job.status != JobStatus::kOk) {
    flight_dump(job);
  }
  if (job.traced) trace_root(job);
}

void ServingRuntime::trace_child(const JobState& job, const char* name,
                                 std::uint64_t start_ns,
                                 std::uint64_t end_ns) const {
  telemetry::TraceEvent e;
  e.name = name;
  e.id = telemetry::allocate_span_id();
  e.parent_id = job.root_span;
  e.depth = 1;
  e.start_ns = start_ns;
  e.duration_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  e.thread_id = trace_thread_hash();
  e.flow_id = job.id + 1;
  e.flow_label = job.flow_label;
  telemetry::TraceBuffer::global().record(std::move(e));
}

void ServingRuntime::trace_root(const JobState& job) const {
  // Children were recorded as they completed, so emitting the root
  // last preserves the buffer's completion-order invariant.
  telemetry::TraceEvent e;
  e.name = "serve.job";
  e.id = job.root_span;
  e.parent_id = 0;
  e.depth = 0;
  e.start_ns = job.submit_ns;
  const std::uint64_t now = telemetry::trace_now_ns();
  e.duration_ns = now > job.submit_ns ? now - job.submit_ns : 0;
  e.thread_id = trace_thread_hash();
  e.flow_id = job.id + 1;
  e.flow_label = job.flow_label;
  telemetry::TraceBuffer::global().record(std::move(e));
}

void ServingRuntime::flight_note(BatchSlot& slot, FlightEventKind kind,
                                 int slot_index, int attempt, int qpu,
                                 double virtual_us, double value) {
  if (flight_ == nullptr) return;
  FlightEvent ev;
  ev.kind = kind;
  ev.slot = slot_index;
  ev.attempt = attempt;
  ev.qpu = qpu;
  ev.virtual_us = virtual_us;
  ev.value = value;
  slot.flight.push_back(ev);
}

void ServingRuntime::flight_dump(const JobState& job) {
  FlightRecord rec;
  rec.job = job.id;
  rec.tenant = telemetry::safe_label(job.tenant, 64);
  rec.slo_class = monitor::slo_class_name(job.slo_class);
  rec.status = job_status_name(job.status);
  rec.epoch = job.epoch;
  rec.torus = job.torus;
  rec.shots = job.shots > 0 ? job.shots : config_.shots_per_job;
  rec.retries = job.retries.load(std::memory_order_relaxed);
  rec.virtual_latency_us = job.virtual_latency_us;
  rec.events = job.route_events;
  for (const BatchSlot& slot : job.slots) {
    rec.events.insert(rec.events.end(), slot.flight.begin(),
                      slot.flight.end());
  }
  flight_->record(std::move(rec));
}

void ServingRuntime::advance_virtual_time(double us) {
  if (config_.gauge_cadence_us <= 0.0 || us <= 0.0) return;
  if (!telemetry::telemetry_runtime_enabled()) return;
  const auto inc = static_cast<std::uint64_t>(us);
  const std::uint64_t total =
      virtual_us_acc_.fetch_add(inc, std::memory_order_relaxed) + inc;
  std::uint64_t next = gauge_next_us_.load(std::memory_order_relaxed);
  if (total < next) return;
  // One worker wins the crossing and publishes; losers carry on.
  if (!gauge_next_us_.compare_exchange_strong(
          next,
          total + static_cast<std::uint64_t>(config_.gauge_cadence_us),
          std::memory_order_relaxed)) {
    return;
  }
  auto& reg = telemetry::MetricsRegistry::global();
  reg.gauge("serve.virtual_time_us").set(static_cast<double>(total));
  reg.gauge("serve.queue.depth.sampled")
      .set(static_cast<double>(queue_depth()));
  for (std::size_t q = 0; q < executors_.size(); ++q) {
    // Per-QPU names vary at runtime: registry lookup, not AQ_GAUGE_SET.
    reg.gauge("serve.qpu.inflight.q" + std::to_string(q))
        .set(static_cast<double>(
            inflight_[q].load(std::memory_order_relaxed)));
  }
  AQ_COUNTER_ADD("serve.gauge.samples", 1);
}

void ServingRuntime::drain() {
  if (drained_) return;
  if (!started_) start();
  {
    // Serialize with in-flight submits: submit() checks accepting_ and
    // pushes its batches (bumping outstanding_) all under the routing
    // lock, so flipping the flag under the same lock means every
    // admitted job is visible to the outstanding_ wait below — no
    // batch can be pushed after the queues close.
    std::lock_guard<std::mutex> lock(route_mu_);
    accepting_.store(false, std::memory_order_release);
  }
  // Wait for every admitted slot to reach a terminal outcome — that
  // covers batches still sitting in queues, retry chains and backoff
  // sleeps. Progress is entirely worker-driven, so this is a
  // pure wait, not a handshake.
  while (outstanding_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Close the queues so the workers' blocked pops observe the drain
  // and exit.
  for (auto& shard : shards_) shard->queue().close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  drained_ = true;
  drain_wall_us_ = wall_now_us();
}

std::size_t ServingRuntime::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& shard : shards_) depth += shard->queue().depth();
  return depth;
}

std::vector<ShardStats> ServingRuntime::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->stats());
  return out;
}

void ServingRuntime::publish_shard_metrics() {
  if (!telemetry::telemetry_runtime_enabled()) return;
  auto& reg = telemetry::MetricsRegistry::global();
  std::lock_guard<std::mutex> lock(publish_mu_);
  if (published_.size() != shards_.size()) {
    published_.assign(shards_.size(), ShardStats{});
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardStats cur = shards_[s]->stats();
    const ShardStats& prev = published_[s];
    // Monotone ShardStats tallies feed registry *counters* by delta so
    // a sampling Collector rolls them up into per-window rates.
    const std::string p = "serve.shard" + std::to_string(s) + ".";
    reg.counter(p + "admitted_batches")
        .add(cur.admitted_batches - prev.admitted_batches);
    reg.counter(p + "reserve_rejects")
        .add(cur.reserve_rejects - prev.reserve_rejects);
    reg.counter(p + "cross_shard_in")
        .add(cur.cross_shard_in - prev.cross_shard_in);
    reg.counter(p + "cross_shard_out")
        .add(cur.cross_shard_out - prev.cross_shard_out);
    reg.gauge(p + "queue_depth")
        .set(static_cast<double>(shards_[s]->queue().depth()));
    published_[s] = cur;
  }
  // Per-tenant resident depth, summed across the shards — the gauge a
  // sampling Collector folds into serve.queue.depth.tenant.<t> rollups.
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    std::size_t depth = 0;
    for (const auto& shard : shards_) {
      depth += shard->queue().tenant_depth(t);
    }
    reg.gauge("serve.queue.depth.tenant." + tenant_labels_[t])
        .set(static_cast<double>(depth));
  }
}

std::vector<std::size_t> ServingRuntime::tenant_queue_depths() const {
  std::vector<std::size_t> out(tenants_.size(), 0);
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    for (const auto& shard : shards_) {
      out[t] += shard->queue().tenant_depth(t);
    }
  }
  return out;
}

std::vector<JobResult> ServingRuntime::results() const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  std::vector<JobResult> out;
  out.reserve(jobs_.size());
  for (const JobState& job : jobs_) {
    JobResult r;
    r.id = job.id;
    r.status = job.status;
    r.probability = job.probability;
    r.loss = job.loss;
    r.retries = job.retries.load(std::memory_order_relaxed);
    r.batches = static_cast<int>(job.slots.size());
    r.virtual_latency_us = job.virtual_latency_us;
    r.wall_latency_us = job.wall_latency_us;
    r.torus = job.torus;
    r.epoch = job.epoch;
    r.tenant = job.tenant;
    r.slo_class = job.slo_class;
    r.admit_virtual_us = job.admit_virtual_us;
    out.push_back(r);
  }
  return out;
}

ServingReport ServingRuntime::report() const {
  ServingReport rep;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    rep.submitted = jobs_.size();
    for (const JobState& job : jobs_) {
      switch (job.status) {
        case JobStatus::kOk: ++rep.completed; break;
        case JobStatus::kRejected: ++rep.rejected; break;
        case JobStatus::kExpired: ++rep.expired; break;
        case JobStatus::kFailed: ++rep.failed; break;
        case JobStatus::kPending: break;
      }
      rep.retries += static_cast<std::uint64_t>(
          job.retries.load(std::memory_order_relaxed));
    }
  }
  rep.admitted = rep.submitted - rep.rejected;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    rep.dropouts_detected = dropouts_detected_;
    rep.repartitions = repartitions_;
  }
  rep.qpu_shots = qpu_shots_;
  rep.qpu_busy_us = qpu_busy_us_;
  rep.shards = shard_stats();
  if (!tenants_.empty()) {
    rep.tenants.resize(tenants_.size());
    std::vector<std::vector<double>> vlats(tenants_.size());
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      for (const JobState& job : jobs_) {
        TenantReport& t = rep.tenants[job.tenant_id];
        ++t.submitted;
        switch (job.status) {
          case JobStatus::kOk:
            ++t.completed;
            vlats[job.tenant_id].push_back(job.virtual_latency_us);
            break;
          case JobStatus::kRejected:
            ++t.rejected;
            break;
          default:
            break;
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      for (std::size_t i = 0; i < tenants_.size(); ++i) {
        rep.tenants[i].quota_rejected = tenant_qos_[i].quota_rejected;
        rep.tenants[i].throttled = tenant_qos_[i].throttled;
      }
    }
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      TenantReport& t = rep.tenants[i];
      t.name = tenants_[i].name;
      t.weight = tenants_[i].weight;
      t.admitted = t.submitted - t.rejected;
      if (!vlats[i].empty()) {
        t.p50_virtual_latency_us = percentile(vlats[i], 0.50);
        t.p99_virtual_latency_us = percentile(vlats[i], 0.99);
      }
    }
  }
  if (drained_ && first_submit_wall_us_ > 0.0) {
    rep.wall_seconds = (drain_wall_us_ - first_submit_wall_us_) * 1e-6;
    if (rep.wall_seconds > 0.0) {
      rep.throughput_jobs_per_s =
          static_cast<double>(rep.admitted) / rep.wall_seconds;
    }
  }
  return rep;
}

std::size_t ServingRuntime::epochs() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return partitions_.size();
}

core::TorusPartition ServingRuntime::partition(std::size_t epoch) const {
  std::lock_guard<std::mutex> lock(route_mu_);
  if (epoch >= partitions_.size()) {
    throw std::out_of_range("ServingRuntime::partition: epoch not built");
  }
  return partitions_[epoch];
}

}  // namespace arbiterq::serve
