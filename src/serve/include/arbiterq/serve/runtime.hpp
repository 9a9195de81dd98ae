#pragma once
// ServingRuntime: the long-running fleet serving loop layered on the
// torus scheduler. Where core::ShotOrientedScheduler answers one
// synchronous batch of tasks, the runtime admits jobs continuously,
// executes them on per-QPU worker threads, retries around failures and
// degrades gracefully when QPUs drop out of the fleet.
//
// Lifecycle: construct (workers start unless config.autostart is
// false) -> submit() jobs -> drain() (stops admissions, finishes every
// admitted job, joins the workers) -> results()/report().
//
// Data path per job:
//  1. submit() routes the job to a torus — weighted round-robin over
//     the tori of the job's *routing-epoch* partition, proportional to
//     torus throughput — and splits its shot budget across the torus
//     members by shot rate (exactly the §IV split), one ShotBatch per
//     member.
//  2. The batches are admitted atomically into the bounded JobQueue
//     (all-or-nothing backpressure: a saturated queue rejects the whole
//     job) and each QPU worker pops its own lane.
//  3. A worker executes a batch through the QnnExecutor / ExecPlan path
//     (sampled_probability), or hits an injected fault: a transient
//     failure or a dead QPU re-routes the batch to another torus member
//     with exponential backoff + deterministic jitter, excluding every
//     QPU that already failed it. Dead-QPU detection feeds the
//     FleetHealthMonitor and triggers a torus repartition of the
//     surviving fleet (core::repartition_alive) for later jobs.
//  4. The last finishing batch folds the job's slot results *in slot
//     order* (shot-weighted average — the §IV noise-compensation step),
//     computes the loss, and records latency histograms.
//
// Determinism: every execution RNG, fault decision, re-route target and
// backoff amount is a pure function of (seed, job id, slot, attempt),
// and per-job aggregation folds fixed slots in index order — so per-job
// results are bit-identical across runs and thread schedules. Two
// clocks exist: *modeled* hardware time (shots x shot latency x spike
// multiplier + backoff), which is deterministic and is what deadlines
// meter, and wall-clock time, which only feeds the latency histograms.
// Admission rejects are the one real-time effect: they depend on live
// queue occupancy, so determinism is guaranteed for the admitted
// sequence (size the queue for the workload when reproducibility
// matters).

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arbiterq/core/torus.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/monitor/health.hpp"
#include "arbiterq/monitor/slo.hpp"
#include "arbiterq/qnn/executor.hpp"
#include "arbiterq/serve/arbiter.hpp"
#include "arbiterq/serve/fault_injector.hpp"
#include "arbiterq/serve/flight_recorder.hpp"
#include "arbiterq/serve/job_queue.hpp"
#include "arbiterq/serve/shard.hpp"
#include "arbiterq/telemetry/timeseries.hpp"

namespace arbiterq::serve {

/// One tenant's QoS contract. Tenants are identified by name
/// (JobSpec::tenant); jobs naming a tenant not in the table — or naming
/// none — fall into an implicit catch-all slot appended after the
/// configured rows. Both quota mechanisms meter on the *modeled*
/// admission clock, so every accept/reject decision is a pure function
/// of the arrival sequence (bit-identical across runs and shard counts).
struct TenantSpec {
  std::string name;
  /// Weighted-credit arbiter share; <= 0 marks a background tenant
  /// (served only when no positive-weight tenant is waiting on a lane).
  double weight = 1.0;
  /// Max jobs concurrently in flight on the modeled clock (a job is in
  /// flight from its admission stamp until stamp + modeled serial
  /// execution cost); a submit over the cap is rejected. 0 = unlimited.
  std::size_t max_in_flight = 0;
  /// Admission-credit token bucket: tokens refill at this rate per
  /// *modeled* second up to admit_burst; each admitted job costs one
  /// token and a submit without a whole token is rejected (throttled).
  /// 0 = unlimited.
  double admit_rate_per_s = 0.0;
  double admit_burst = 1.0;
};

struct ServeConfig {
  int shots_per_job = 256;
  int trajectories = 16;
  qnn::LossKind loss = qnn::LossKind::kMse;
  /// Admission bound on resident shot-batches across the fleet.
  std::size_t queue_capacity = 1024;
  /// Re-routes allowed per shot-batch before it counts as failed.
  int max_retries = 4;
  /// Default per-job deadline on *modeled* hardware time (us); 0 = no
  /// deadline. JobSpec::deadline_us >= 0 overrides.
  double deadline_us = 0.0;
  /// Exponential backoff for retried batches: attempt k sleeps
  /// base * 2^k * jitter (jitter uniform in [0.5, 1.5), seeded), capped.
  /// The amount is charged to the batch's modeled time and slept for
  /// real (capped by backoff_max_us) on the worker.
  double backoff_base_us = 50.0;
  double backoff_max_us = 5000.0;
  /// Tori per partition; 0 = core::default_torus_count of the
  /// surviving fleet.
  int num_tori = 0;
  std::uint64_t seed = 99;
  /// Spawn the workers in the constructor. Disable to stage a
  /// backpressure scenario (submit before start()).
  bool autostart = true;
  /// Per-job causal tracing: 0 = off, 1 = trace every job, N = trace
  /// every Nth job (id % N == 0). A traced job emits a stitched span
  /// tree (route decision, queue waits, per-slot executions, backoffs,
  /// fault events) into TraceBuffer::global(), flow-keyed by job id so
  /// chrome_trace_json renders one lane per job. Sampling keeps the
  /// non-traced path to a handful of branches.
  int trace_sample_every = 0;
  /// Cadence, in *modeled* (virtual) microseconds of fleet execution
  /// time, at which serve.queue.depth.sampled and the per-QPU
  /// serve.qpu.inflight.q<i> gauges are refreshed. 0 disables sampling.
  double gauge_cadence_us = 1000.0;
  /// Shards the fleet is partitioned into (clamped to the fleet size).
  /// Shard s owns the contiguous QPU block [s*n/S, (s+1)*n/S) with its
  /// own bounded JobQueue and worker set; queue_capacity
  /// is divided evenly across the shards. Routing stays global (the
  /// submit-side torus pick and shot split are shard-agnostic), so the
  /// admitted jobs' results are bit-identical across shard counts.
  int num_shards = 1;
  /// Worker threads per shard; each worker owns the shard-local lanes
  /// congruent to its index (lane l -> worker l % W), preserving the
  /// one-writer-per-QPU accounting invariant. 0 = one worker per QPU,
  /// the pre-sharding behavior; set a small value for simulated fleets
  /// far wider than the host's core count.
  int workers_per_shard = 0;
  /// Optional time-series sink (non-owning; must outlive the runtime).
  /// When set, the runtime records event series on a *modeled admission
  /// clock* — a virtual timeline advanced under the routing lock by each
  /// admitted job's modeled execution cost divided by the routing
  /// epoch's alive fleet (an idealized perfectly-parallel fleet clock):
  /// serve.ts.admitted(.shard<k>, .tenant.<t>) at admission time,
  /// serve.ts.completed(.shard<k>) and the
  /// serve.ts.virtual_latency_us histogram at admission + modeled
  /// latency. Every timestamp is a pure function of the admitted job
  /// sequence, so the windowed series is bit-identical across runs and
  /// thread schedules (store timestamps use the store's own clock
  /// domain — size window_us in modeled microseconds).
  telemetry::TimeSeriesStore* series = nullptr;
  // ---- Multi-tenant QoS -----------------------------------------------
  /// Dequeue arbiter deciding, per lane, which tenant's batch a worker
  /// runs next (see arbiter.hpp). kFifo reproduces the pre-tenant
  /// single-FIFO order exactly and is the default.
  ArbiterKind arbiter = ArbiterKind::kFifo;
  /// Tenant table. Empty = single anonymous tenant, all QoS machinery
  /// off (the pre-tenant behavior). Non-empty: jobs resolve by
  /// JobSpec::tenant name, unknown/empty names land in an implicit
  /// catch-all slot named "other"; quotas, weighted-credit shares and
  /// per-tenant telemetry key off the resolved slot.
  std::vector<TenantSpec> tenants;
  /// Model queue wait: per-QPU modeled lane clocks make a batch start
  /// at max(lane clock, job ready time), so virtual_latency_us becomes
  /// wait-inclusive (what the fairness test measures) instead of
  /// execution-chain-only. Lane clocks advance in dequeue order, which
  /// is deterministic in saturated-backlog replays (submit everything
  /// with autostart=false, then start()+drain()) but schedule-dependent
  /// when workers race live admission — leave this off when the
  /// execution-chain latency contract matters.
  bool model_queue_wait = false;
};

enum class JobStatus { kPending, kOk, kRejected, kExpired, kFailed };

std::string job_status_name(JobStatus status);

struct JobSpec {
  std::vector<double> features;  ///< encoded, radians
  int label = 0;
  JobPriority priority = JobPriority::kNormal;
  /// Modeled-time deadline override; < 0 uses ServeConfig::deadline_us.
  double deadline_us = -1.0;
  /// Free-form tenant label for traces, flight records, and per-tenant
  /// counters. Sanitized (safe_label) before reaching any exporter.
  /// With a ServeConfig::tenants table, also the quota/arbiter slot
  /// this job resolves to.
  std::string tenant;
  /// Service class the attached SloEngine judges this job under.
  monitor::SloClass slo_class = monitor::SloClass::kBestEffort;
  /// Per-job shot-budget override; <= 0 uses ServeConfig::shots_per_job.
  int shots = 0;
  /// Open-loop arrival stamp on the modeled admission clock (us). >= 0
  /// advances the clock to max(clock, arrival_us) instead of the
  /// cost-based advance — the TrafficGenerator drives the runtime with
  /// these, making quota decisions and the recorded series pure
  /// functions of the generated arrival sequence. < 0 = closed-loop
  /// submit (the pre-tenant behavior).
  double arrival_us = -1.0;
};

struct JobResult {
  std::uint64_t id = 0;
  JobStatus status = JobStatus::kPending;
  /// Shot-weighted torus-averaged P(readout = 1) over succeeded slots.
  double probability = 0.5;
  double loss = 0.0;
  int retries = 0;       ///< re-routes across all of the job's batches
  int batches = 0;       ///< shot-batch slots the job was split into
  /// Modeled hardware latency: max over the job's batch chains (the
  /// batches run on different QPUs in parallel).
  double virtual_latency_us = 0.0;
  /// Measured submit-to-finalize wall time (not deterministic).
  double wall_latency_us = 0.0;
  std::size_t torus = 0;  ///< torus within the routing epoch's partition
  std::size_t epoch = 0;  ///< membership epoch the job was routed under
  std::string tenant;     ///< JobSpec::tenant, verbatim
  monitor::SloClass slo_class = monitor::SloClass::kBestEffort;
  double admit_virtual_us = 0.0;  ///< modeled admission-clock stamp
};

/// Per-tenant accounting (ServingReport::tenants; populated only when
/// ServeConfig::tenants is non-empty). Latency percentiles are over the
/// job-level virtual latency of this tenant's non-rejected jobs.
struct TenantReport {
  std::string name;
  double weight = 1.0;
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t completed = 0;       ///< status == kOk
  std::size_t rejected = 0;        ///< all rejects (capacity + quota)
  std::size_t quota_rejected = 0;  ///< max_in_flight quota rejects
  std::size_t throttled = 0;       ///< admission-credit rejects
  double p50_virtual_latency_us = 0.0;
  double p99_virtual_latency_us = 0.0;
};

/// Aggregate accounting after drain().
struct ServingReport {
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t completed = 0;  ///< status == kOk
  std::size_t expired = 0;
  std::size_t failed = 0;
  std::uint64_t retries = 0;
  std::size_t dropouts_detected = 0;
  std::size_t repartitions = 0;
  std::vector<double> qpu_shots;    ///< executed shots per QPU
  std::vector<double> qpu_busy_us;  ///< modeled busy time per QPU
  double wall_seconds = 0.0;        ///< first submit -> drain complete
  double throughput_jobs_per_s = 0.0;
  /// Per-shard queue accounting (one row per shard).
  std::vector<ShardStats> shards;
  /// Per-tenant accounting (configured tenants then the catch-all slot;
  /// empty when no tenant table is configured).
  std::vector<TenantReport> tenants;
};

class ServingRuntime {
 public:
  /// `executors` must outlive the runtime. `weights[i]` is the model
  /// QPU i deploys; `behavioral` are the calibration-time behavioral
  /// vectors (both are what degradation-time repartitions rebuild
  /// from). `faults`/`monitor` are optional, non-owning, and must
  /// outlive the runtime.
  ServingRuntime(const std::vector<qnn::QnnExecutor>& executors,
                 std::vector<std::vector<double>> weights,
                 std::vector<core::BehavioralVector> behavioral,
                 ServeConfig config,
                 const FaultInjector* faults = nullptr,
                 monitor::FleetHealthMonitor* monitor = nullptr,
                 FlightRecorder* flight = nullptr,
                 monitor::SloEngine* slo = nullptr);
  ~ServingRuntime();

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  /// Spawn the per-QPU workers (idempotent; no-op after drain()).
  void start();
  /// Route + admit one job: its batches land in the owning shards'
  /// queues before this returns. Returns the job id, or std::nullopt
  /// when admission control rejected it (the rejection still occupies a
  /// results() row). Throws std::invalid_argument, before any state
  /// moves, when spec.features does not match the model's width.
  /// Thread-safe.
  std::optional<std::uint64_t> submit(const JobSpec& spec);
  /// Stop admissions, finish every admitted job, join the workers.
  /// Idempotent.
  void drain();

  const ServeConfig& config() const noexcept { return config_; }
  std::size_t fleet_size() const noexcept { return executors_.size(); }
  /// Jobs in submission order (rejected ones included); call after
  /// drain().
  std::vector<JobResult> results() const;
  ServingReport report() const;
  /// Membership epochs materialized so far (>= 1; epoch 0 is the full
  /// fleet).
  std::size_t epochs() const;
  /// Torus partition of `epoch`; throws when that epoch was never
  /// materialized.
  core::TorusPartition partition(std::size_t epoch) const;
  /// Queue introspection (live): resident batches across every shard.
  std::size_t queue_depth() const;
  std::size_t num_shards() const noexcept { return shards_.size(); }
  /// Shard owning QPU q — a lookup over the blocks the constructor
  /// actually built, so it is exact for every fleet/shard combination
  /// (a closed-form floor expression disagrees with the constructed
  /// block boundaries whenever S does not divide n).
  std::size_t shard_of(int qpu) const noexcept {
    return shard_by_qpu_[static_cast<std::size_t>(qpu)];
  }
  /// Per-shard accounting snapshot (live).
  std::vector<ShardStats> shard_stats() const;
  /// Resolved tenant table: the configured rows plus the implicit
  /// catch-all slot; empty when no tenants were configured.
  const std::vector<TenantSpec>& tenants() const noexcept {
    return tenants_;
  }
  /// Live resident queue depth per tenant slot, summed across shards
  /// (empty when no tenants were configured).
  std::vector<std::size_t> tenant_queue_depths() const;
  /// Publish the per-shard accounting into the global MetricsRegistry as
  /// serve.shard<k>.* counters (delta-fed, so a sampling Collector folds
  /// them into per-window rates) plus a queue-depth gauge per shard.
  /// Intended as a Collector pre_sample hook; safe to call any time.
  void publish_shard_metrics();

 private:
  /// Per-batch slot: written by at most one worker at a time (batch
  /// ownership hands over through the queue), read by the finalizer
  /// after the pending count hits zero.
  struct BatchSlot {
    enum class Outcome { kPending, kOk, kFailed, kExpired };
    Outcome outcome = Outcome::kPending;
    int qpu = -1;          ///< QPU that finished (or last failed) it
    double probability = 0.0;
    int shots = 0;
    double chain_us = 0.0;  ///< modeled time of the whole retry chain
    /// Modeled finish stamp on the lane clock (model_queue_wait only;
    /// 0 for slots that never executed — finalize falls back to the
    /// chain for those).
    double finish_us = 0.0;
    /// Flight-recorder event sequence for this slot (collected only
    /// when a recorder is attached; single-writer like the rest of the
    /// slot, published by the release decrement of `pending`).
    std::vector<FlightEvent> flight;
  };

  struct JobState {
    std::uint64_t id = 0;
    std::vector<double> features;
    int label = 0;
    JobPriority priority = JobPriority::kNormal;
    double deadline_us = 0.0;  ///< resolved; 0 = none
    std::size_t epoch = 0;
    std::size_t torus = 0;
    /// Modeled admission-clock stamp (see ServeConfig::series).
    double admit_virtual_us = 0.0;
    std::size_t home_shard = 0;  ///< shard of the split's first member
    JobStatus status = JobStatus::kPending;
    std::vector<BatchSlot> slots;
    std::atomic<int> pending{0};
    std::atomic<int> retries{0};
    double submit_wall_us = 0.0;
    std::string tenant;
    std::uint32_t tenant_id = 0;  ///< resolved slot (0 when no table)
    int shots = 0;                ///< resolved per-job shot budget
    monitor::SloClass slo_class = monitor::SloClass::kBestEffort;
    /// Tracing state, fixed at submit() before any batch is enqueued.
    bool traced = false;
    std::uint64_t root_span = 0;   ///< pre-allocated root span id
    std::uint64_t submit_ns = 0;   ///< trace clock at submit
    std::string flow_label;        ///< sanitized flow-lane label
    /// Submit-time flight events (route decision / rejection); written
    /// before admission, read at finalize.
    std::vector<FlightEvent> route_events;
    // Finalize-time outputs (published by the release decrement of
    // `pending`, read after drain()).
    double probability = 0.5;
    double loss = 0.0;
    double virtual_latency_us = 0.0;
    double wall_latency_us = 0.0;
  };

  /// Worker `worker` of shard `shard_index`, striding the shard's local
  /// lanes with step `stride` (the shard's worker count).
  void worker_main(std::size_t shard_index, std::size_t worker,
                   std::size_t stride);
  void process_batch(int qpu, ShotBatch batch);
  /// Re-route or fail a batch after `qpu` failed it. `backoff` charges
  /// and sleeps the exponential-backoff amount (dropouts re-route
  /// immediately).
  void reroute(JobState& job, ShotBatch batch, int failed_qpu,
               bool backoff);
  void complete_slot(JobState& job);
  void finalize(JobState& job);
  /// Record a detected dropout once (counter + monitor event).
  void note_dropout(int qpu);
  /// Materialize partitions/credits up to `epoch` (routing lock held).
  void ensure_epoch_locked(std::size_t epoch);
  /// Copy of a torus's member list (takes the routing lock).
  std::vector<int> partition_members_locked_copy(std::size_t epoch,
                                                 std::size_t torus) const;
  JobState* job_ptr(std::uint64_t id);
  bool dead(int qpu, std::uint64_t job) const {
    return faults_ != nullptr && faults_->dropped(qpu, job);
  }
  /// Record one child span of a traced job's tree (caller checks
  /// job.traced). `end_ns` >= `start_ns`; both from trace_now_ns().
  void trace_child(const JobState& job, const char* name,
                   std::uint64_t start_ns, std::uint64_t end_ns) const;
  /// Close a traced job: emit the root "serve.job" span.
  void trace_root(const JobState& job) const;
  /// Append a flight event to a slot's sequence (no-op when no
  /// recorder is attached).
  void flight_note(BatchSlot& slot, FlightEventKind kind, int slot_index,
                   int attempt, int qpu, double virtual_us, double value);
  /// Assemble and store the job's flight record (only called for
  /// non-ok dispositions, and only when a recorder is attached).
  void flight_dump(const JobState& job);
  /// Advance the modeled-time gauge clock by `us` of execution time and
  /// refresh the sampled gauges when a cadence boundary is crossed.
  void advance_virtual_time(double us);

  const std::vector<qnn::QnnExecutor>& executors_;
  std::vector<std::vector<double>> weights_;
  std::vector<core::BehavioralVector> behavioral_;
  ServeConfig config_;
  const FaultInjector* faults_;
  monitor::FleetHealthMonitor* monitor_;
  FlightRecorder* flight_;
  monitor::SloEngine* slo_;
  math::Rng root_;
  /// The sharded data plane: each shard owns a private bounded queue
  /// that submit() and cross-shard reroutes push into directly (see
  /// shard.hpp). unique_ptr for stable addresses (Shard is immovable:
  /// its queue's mutex and the atomic counters).
  std::vector<std::unique_ptr<Shard>> shards_;
  /// QPU -> owning shard, derived from the constructed blocks (the
  /// inverse shard_of() serves from).
  std::vector<std::size_t> shard_by_qpu_;
  /// Admitted shot-batch slots not yet at a terminal outcome; drain()
  /// waits for this to hit zero before closing the shard queues.
  std::atomic<std::uint64_t> outstanding_{0};
  /// Cleared by drain(): submissions arriving after are rejected
  /// without touching any shard.
  std::atomic<bool> accepting_{true};

  // Routing state (submission order defines all of it).
  mutable std::mutex route_mu_;
  std::uint64_t next_job_ = 0;
  std::vector<core::TorusPartition> partitions_;  ///< by epoch
  std::vector<std::vector<double>> torus_rate_;   ///< by epoch
  std::vector<std::vector<double>> credit_;       ///< by epoch
  std::vector<std::size_t> epoch_alive_;          ///< members, by epoch
  double first_submit_wall_us_ = 0.0;
  /// Modeled admission clock; routing lock held. Advanced by every
  /// admitted job's modeled cost (or pinned to JobSpec::arrival_us in
  /// open-loop mode) — quota decisions and the ts series meter on it.
  double admit_clock_us_ = 0.0;
  /// Per-QPU shot latency, cached so the admission-clock advance is a
  /// plain vector walk instead of per-slot executor calls.
  std::vector<double> shot_lat_us_;

  // ---- Multi-tenant QoS state (routing lock) --------------------------
  /// Resolved tenant table: configured rows + the implicit catch-all
  /// slot. Empty = QoS off (single anonymous tenant).
  std::vector<TenantSpec> tenants_;
  std::map<std::string, std::uint32_t> tenant_ids_;  ///< name -> slot
  /// Sanitized per-tenant metric labels, index-aligned with tenants_.
  std::vector<std::string> tenant_labels_;
  /// Per-tenant quota state, metered on the modeled admission clock.
  struct TenantQos {
    double tokens = 0.0;          ///< admission credits available
    double token_stamp_us = 0.0;  ///< clock at last refill
    /// Min-heap of modeled completion stamps of in-flight jobs
    /// (max_in_flight quota only).
    std::vector<double> inflight_done_us;
    std::uint64_t quota_rejected = 0;
    std::uint64_t throttled = 0;
  };
  std::vector<TenantQos> tenant_qos_;
  /// Tenant slot for a job's tenant name (catch-all when unknown);
  /// routing lock held.
  std::uint32_t resolve_tenant_locked(const std::string& name) const;

  // Time-series handles, resolved once in the constructor (per-series
  // locking happens inside the store). Tenant series are resolved
  // lazily under the routing lock.
  telemetry::TimeSeriesStore::Series* ts_admitted_ = nullptr;
  telemetry::TimeSeriesStore::Series* ts_completed_ = nullptr;
  telemetry::TimeSeriesStore::Series* ts_latency_ = nullptr;
  std::vector<telemetry::TimeSeriesStore::Series*> ts_admitted_shard_;
  std::vector<telemetry::TimeSeriesStore::Series*> ts_completed_shard_;
  std::map<std::string, telemetry::TimeSeriesStore::Series*> ts_tenant_;
  /// Slot-indexed per-tenant series (tenant table configured): resolved
  /// once in the constructor so finalize() touches them lock-free.
  std::vector<telemetry::TimeSeriesStore::Series*> ts_tenant_admitted_;
  std::vector<telemetry::TimeSeriesStore::Series*> ts_tenant_completed_;
  std::vector<telemetry::TimeSeriesStore::Series*> ts_tenant_latency_;

  /// Last-published per-shard counter values (publish_shard_metrics
  /// feeds registry counters by delta); guarded by publish_mu_.
  std::mutex publish_mu_;
  std::vector<ShardStats> published_;

  // Job store: deque gives stable element addresses; guarded only for
  // push/index, the elements synchronize through their atomics.
  mutable std::mutex jobs_mu_;
  std::deque<JobState> jobs_;

  // Dropout bookkeeping.
  mutable std::mutex state_mu_;
  std::vector<bool> dropout_noted_;
  std::size_t dropouts_detected_ = 0;
  std::size_t repartitions_ = 0;

  // Per-QPU accounting: written only by that QPU's worker, read after
  // the workers are joined.
  std::vector<double> qpu_shots_;
  std::vector<double> qpu_busy_us_;
  /// Per-QPU modeled lane clock (model_queue_wait): the finish stamp of
  /// the last batch the lane executed. Same single-writer discipline as
  /// qpu_busy_us_.
  std::vector<double> qpu_clock_us_;

  // Virtual-time gauge sampling: workers accumulate modeled execution
  // microseconds; whichever worker crosses the next cadence boundary
  // wins the CAS and publishes the gauges.
  std::unique_ptr<std::atomic<int>[]> inflight_;  ///< per QPU
  std::atomic<std::uint64_t> virtual_us_acc_{0};
  std::atomic<std::uint64_t> gauge_next_us_{0};

  std::vector<std::thread> workers_;
  bool started_ = false;
  bool drained_ = false;
  double drain_wall_us_ = 0.0;
};

}  // namespace arbiterq::serve
