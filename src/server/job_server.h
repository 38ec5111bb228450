// JobServer — SQLoop as a service (DESIGN.md "Service architecture").
//
// One JobServer multiplexes many concurrent iterative jobs from many
// tenant sessions over one shared worker ThreadPool and one shared minidb
// backend:
//
//   submissions → AdmissionQueue (bounded, per-tenant caps, weighted pop)
//              → dispatcher threads (one concurrent job each)
//              → the core runners, made yieldable by a RoundGate that the
//                FairScheduler grants round-by-round across tenants.
//
// Per-tenant accounting (rounds, tasks, retries, queue wait, job
// outcomes) accumulates in one telemetry Recorder per tenant, exportable
// through the existing telemetry exporters. Master connections are pooled
// per URL across jobs; the minidb plan cache is shared by construction
// (it lives with the Database), so repeated tenant queries compile once.
//
// The embedded single-job configuration of this class also backs
// SqLoop::Execute — the facade opens an ephemeral session, submits, and
// waits, so the one-shot API is a thin wrapper over the service path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "server/admission.h"
#include "server/job.h"
#include "server/scheduler.h"
#include "server/session.h"
#include "telemetry/recorder.h"

namespace sqloop::minidb {
class Server;  // the backend the background scrubber walks (minidb/server.h)
}  // namespace sqloop::minidb

namespace sqloop::server {

struct JobServerConfig {
  /// Connection URL of the shared backend; every job's master and worker
  /// connections open against it (plus the session's url_params).
  std::string url;

  /// Width of the shared worker pool. 0 = half the hardware threads
  /// (the paper's per-job default, now serving all jobs together).
  int worker_threads = 0;

  /// False = every job builds its own private pool exactly like a
  /// standalone run (the facade's embedded server uses this: legacy
  /// single-job behaviour stays bit-identical, thread count included).
  bool share_worker_pool = true;

  /// Dispatcher threads == jobs that may run concurrently.
  size_t max_running_jobs = 4;

  /// Jobs that may be INSIDE a round simultaneously; the scheduler holds
  /// the rest at the round border. 0 = unlimited (admission still bounds
  /// running jobs). 1 = strict weighted interleaving.
  size_t max_active_rounds = 0;

  /// Bounded submission queue; a full queue rejects with AdmissionError.
  size_t queue_capacity = 64;

  /// Per-tenant cap on queued + running jobs.
  size_t max_inflight_per_tenant = 16;

  /// Weight for tenants that never passed SessionOptions::weight.
  double default_tenant_weight = 1.0;

  /// Retry-after hint carried by AdmissionError.
  int64_t retry_after_ms = 50;

  /// Base seed for per-job derived seeds (below).
  uint64_t seed = 42;

  /// Derive per-job retry-jitter and fault-injector seeds from
  /// (seed, job id) so concurrent jobs draw from independent, reproducible
  /// streams. The job id is stable across resubmission, so a resumed job
  /// keeps its seeds — and its fault schedule. False = legacy behaviour
  /// (options/URL pass through untouched), used by the embedded facade
  /// server so existing single-job runs stay bit-identical.
  bool derive_seeds = true;

  /// Terminal jobs kept for Jobs() introspection; older ones are dropped.
  size_t history_limit = 128;

  // --- overload protection (DESIGN.md "Resource governance") ------------

  /// Soft memory watermark over the backend's total reservation (table
  /// storage + every job's transient working sets). While crossed, the
  /// server sheds load: new submissions are rejected with AdmissionError
  /// (+ retry-after), and already queued jobs are held at dispatch until
  /// pressure drops. 0 disables shedding.
  int64_t soft_memory_limit_bytes = 0;

  /// Hard memory watermark: while crossed, a governor thread cancels the
  /// running job holding the most transient memory (deterministic victim:
  /// largest reservation, ties broken toward the most recently admitted),
  /// which fails with QuotaExceededError. 0 disables victim kills.
  int64_t hard_memory_limit_bytes = 0;

  /// Governor thread poll interval (watermark checks). Only meaningful
  /// when hard_memory_limit_bytes > 0.
  int64_t governor_poll_ms = 2;

  // --- background integrity scrub (DESIGN.md "Durability & integrity") --

  /// Interval between background scrub cycles. Each cycle walks every
  /// table of the backend the config URL resolves to and verifies its
  /// maintained content checksum against a recomputation; a mismatch
  /// quarantines the table (jobs touching it fail with IntegrityError
  /// instead of reading corrupt rows). Pacing is governance-aware: cycles
  /// are skipped while the server is shedding load at the soft memory
  /// watermark. 0 disables the scrubber.
  int64_t scrub_interval_ms = 0;
};

/// One row of Jobs() — a point-in-time snapshot of a job.
struct JobInfo {
  uint64_t seq = 0;
  uint64_t id = 0;
  std::string tenant;
  JobState state = JobState::kQueued;
  int64_t rounds = 0;
  double queue_seconds = 0;
  double run_seconds = 0;
  std::string error;
  std::string sql;
};

/// One row of Tenants() — accumulated per-tenant accounting. `recorder`
/// aggregates every job's telemetry (plus tenant.* counters) and plugs
/// straight into telemetry/exporters.h.
struct TenantInfo {
  std::string tenant;
  double weight = 1.0;
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  uint64_t jobs_failed = 0;
  uint64_t jobs_cancelled = 0;
  uint64_t jobs_rejected = 0;
  std::shared_ptr<telemetry::Recorder> recorder;
};

class JobServer {
 public:
  explicit JobServer(JobServerConfig config);
  /// Drains: stops admitting, finishes every admitted job, joins the
  /// dispatchers, closes pooled connections.
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Opens (or refreshes) a tenant session. Cheap; any number of sessions
  /// per tenant. The weight applies tenant-wide.
  Session OpenSession(const std::string& tenant, SessionOptions options = {});

  /// Graceful shutdown: subsequent submissions are rejected with
  /// AdmissionError, already admitted jobs run to completion. Idempotent;
  /// also invoked by the destructor.
  void Drain();

  /// Drain with a deadline: stops admitting immediately, gives admitted
  /// jobs `deadline_ms` to finish, then cancels whatever is still running
  /// (those jobs surface JobCancelledError; checkpointed jobs can resume
  /// under the same identity on the next server). Always joins the
  /// dispatchers before returning.
  void Drain(int64_t deadline_ms);

  /// Submits an already parsed statement (the facade's path — it parsed
  /// for dispatch already). `sql_text` is kept for display; `observer`
  /// receives the run's callbacks on the dispatcher thread.
  /// `borrowed_conn`, when non-null, is the connection the job runs on —
  /// the facade lends its master so the run sees its transaction state,
  /// and the server neither opens nor closes a master for the job. It
  /// must stay valid until the job terminates.
  JobHandle SubmitParsed(const std::string& tenant, sql::StatementPtr stmt,
                         std::string sql_text,
                         const core::SqloopOptions& options,
                         core::ExecutionObserver* observer,
                         const std::string& url_params,
                         dbc::Connection* borrowed_conn = nullptr);

  /// Snapshot of active + recent jobs, oldest first.
  std::vector<JobInfo> Jobs() const;
  /// Snapshot of per-tenant accounting.
  std::vector<TenantInfo> Tenants() const;

  const JobServerConfig& config() const noexcept { return config_; }
  size_t queued_jobs() const { return admission_.queued(); }
  size_t inflight(const std::string& tenant) const {
    return admission_.inflight(tenant);
  }
  bool draining() const { return admission_.closed(); }
  /// Master-connection pool accounting.
  uint64_t pool_hits() const;
  uint64_t pool_misses() const;
  /// Rounds the scheduler granted the tenant (fairness metrics).
  uint64_t rounds_granted(const std::string& tenant) const {
    return scheduler_.granted(tenant);
  }

  // --- resource governance ----------------------------------------------
  /// Total bytes reserved under the backend server's root scope (storage
  /// plus transient), i.e. what the watermarks police. 0 when the backend
  /// has no tracker (unknown host).
  int64_t memory_reserved_bytes() const;
  /// True while the soft watermark is crossed (submissions shed).
  bool shedding() const;
  /// Submissions rejected at the soft watermark.
  uint64_t shed_admissions() const noexcept { return shed_admissions_.load(); }
  /// Running jobs cancelled by the hard-watermark governor.
  uint64_t victim_cancellations() const noexcept {
    return victim_cancellations_.load();
  }
  /// Bytes of table pages the governor evicted to spill files instead of
  /// (or before) cancelling a victim at the hard watermark.
  uint64_t pool_bytes_reclaimed() const noexcept {
    return pool_bytes_reclaimed_.load();
  }

  // --- background scrub accounting --------------------------------------
  /// Completed scrub cycles (full walks of the backend's tables).
  uint64_t scrub_cycles() const noexcept { return scrub_cycles_.load(); }
  /// Tables whose checksum was verified across all cycles.
  uint64_t scrub_tables() const noexcept { return scrub_tables_.load(); }
  /// Checksum mismatches found (each quarantines its table).
  uint64_t scrub_corruptions() const noexcept {
    return scrub_corruptions_.load();
  }
  /// Cycles skipped because the server was shedding load.
  uint64_t scrub_skipped() const noexcept { return scrub_skipped_.load(); }

 private:
  struct TenantState {
    double weight = 1.0;
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t cancelled = 0;
    uint64_t rejected = 0;
    std::shared_ptr<telemetry::Recorder> recorder;
    /// The tenant's memory scope ("tenant:<name>", parented on the
    /// backend's root): job scopes hang off it, so a SessionOptions
    /// budget caps the tenant's combined transient memory.
    std::unique_ptr<MemoryTracker> tracker;
  };

  void DispatcherLoop();
  void RunJob(const std::shared_ptr<JobRecord>& job);
  /// Moves the record to a terminal state and notifies waiters; also
  /// bumps the tenant's outcome counters.
  void CompleteJob(JobRecord& job, dbc::ResultSet result,
                   std::exception_ptr error, core::RunStats stats);
  /// JobHandle::Cancel plumbing: wakes round-border waiters; completes
  /// still-queued jobs immediately.
  void HandleCancel(JobRecord& job);
  /// Caller holds tenants_mutex_.
  TenantState& EnsureTenant(const std::string& tenant);
  void MergeTenantTelemetry(const std::string& tenant,
                            const core::RunStats& stats);
  std::unique_ptr<dbc::Connection> AcquireConnection(const std::string& url);
  void ReleaseConnection(const std::string& url,
                         std::unique_ptr<dbc::Connection> conn);
  /// Jobs that materialize the same relation on the shared backend are
  /// serialized: the relation and its _delta/_tmp/_pt scratch tables are
  /// shared state. The wait is cancellable (Cancel() pokes it) and is
  /// reported as `service.target_wait_seconds` in the job's telemetry.
  void AcquireTarget(JobRecord& job, telemetry::Recorder* recorder);
  void ReleaseTarget(const JobRecord& job);
  /// Hard-watermark governor: polls the root reservation and cancels the
  /// largest running job (by job-scope bytes) while the hard watermark is
  /// crossed.
  void GovernorLoop();
  /// Pressure ladder step 1: ask every backend database's buffer pool to
  /// evict pages to spill files. Returns the bytes actually released.
  int64_t ShrinkBackendPools(int64_t want_bytes);
  /// One governor decision. Returns true if a victim was cancelled.
  bool KillLargestVictim();
  /// Background scrub thread body: one cycle per scrub_interval_ms, each
  /// cycle verifying every backend table's content checksum under its
  /// shared lock. Skips cycles while shedding() (governance-aware pacing).
  void ScrubLoop();
  /// One scrub cycle. Returns the number of corrupt tables found.
  uint64_t ScrubBackendOnce();
  /// Caller holds registry_mutex_. Drops the oldest terminal jobs beyond
  /// history_limit.
  void TrimHistory();

  const JobServerConfig config_;
  std::unique_ptr<ThreadPool> shared_pool_;  // null when !share_worker_pool
  FairScheduler scheduler_;
  AdmissionQueue admission_;

  mutable std::mutex registry_mutex_;
  std::map<uint64_t, std::shared_ptr<JobRecord>> registry_;  // by seq
  std::atomic<uint64_t> next_seq_{1};

  mutable std::mutex tenants_mutex_;
  std::map<std::string, TenantState> tenants_;

  mutable std::mutex targets_mutex_;
  std::condition_variable targets_cv_;
  std::set<std::string> busy_targets_;

  mutable std::mutex pool_mutex_;
  std::map<std::string, std::vector<std::unique_ptr<dbc::Connection>>>
      idle_conns_;
  uint64_t pool_hits_ = 0;
  uint64_t pool_misses_ = 0;

  // --- resource governance ----------------------------------------------
  /// The backend's root memory scope (shared so it outlives re-registered
  /// hosts); null when the config URL's host resolves to no server, in
  /// which case `fallback_root_` parents the tenant scopes so accounting
  /// still works without watermarks.
  std::shared_ptr<MemoryTracker> root_tracker_;
  std::unique_ptr<MemoryTracker> fallback_root_;
  /// Running jobs' memory scopes, for the governor's victim pick:
  /// seq → (record, job scope). Entries live exactly while RunJob runs.
  mutable std::mutex running_mutex_;
  std::map<uint64_t, std::pair<std::shared_ptr<JobRecord>, MemoryTracker*>>
      running_;
  std::atomic<uint64_t> shed_admissions_{0};
  std::atomic<uint64_t> victim_cancellations_{0};
  std::atomic<uint64_t> pool_bytes_reclaimed_{0};
  std::atomic<bool> stop_governor_{false};
  std::mutex governor_mutex_;
  std::condition_variable governor_cv_;
  std::thread governor_;

  // --- background integrity scrub ---------------------------------------
  /// The backend the config URL resolves to; the scrubber walks its
  /// tables. Null when the host is unknown (scrubber never starts).
  minidb::Server* backend_ = nullptr;
  std::atomic<uint64_t> scrub_cycles_{0};
  std::atomic<uint64_t> scrub_tables_{0};
  std::atomic<uint64_t> scrub_corruptions_{0};
  std::atomic<uint64_t> scrub_skipped_{0};
  std::atomic<bool> stop_scrub_{false};
  std::mutex scrub_mutex_;
  std::condition_variable scrub_cv_;
  std::thread scrubber_;

  std::mutex drain_mutex_;
  std::vector<std::thread> dispatchers_;
};

}  // namespace sqloop::server
