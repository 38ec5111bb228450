#include "server/job_server.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/logging.h"
#include "core/execute.h"
#include "minidb/database.h"
#include "minidb/table.h"
#include "core/resilience.h"
#include "dbc/driver.h"
#include "minidb/schema.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace sqloop::server {
namespace {

uint64_t Fnv1a(std::string_view text, uint64_t hash) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Job identity: stable across resubmission of the same work by the same
/// tenant (tenant, canonical SQL, mode, partitions), so a cancelled or
/// crashed job resumed later keeps its checkpoint directory and derived
/// seeds. Deliberately independent of options.resume and submission order.
uint64_t JobIdentity(const std::string& tenant, const std::string& canonical,
                     const core::SqloopOptions& options) {
  uint64_t hash = Fnv1a(tenant, 14695981039346656037ULL);
  hash = Fnv1a("|", hash);
  hash = Fnv1a(canonical, hash);
  hash = Fnv1a("|", hash);
  hash = Fnv1a(core::ExecutionModeName(options.mode), hash);
  hash = Fnv1a("|", hash);
  hash = Fnv1a(std::to_string(options.partitions), hash);
  return hash;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Per-job seed stream k of the server's base seed: independent streams
/// for retry jitter (k=1) and fault injection (k=2), reproducible for a
/// given (base, job id) regardless of what else the server is running.
uint64_t DeriveSeed(uint64_t base, uint64_t job_id, uint64_t stream) {
  return SplitMix64(base ^ SplitMix64(job_id + stream));
}

std::string AppendUrlParams(std::string url, const std::string& params) {
  if (params.empty()) return url;
  url += url.find('?') == std::string::npos ? '?' : '&';
  url += params;
  return url;
}

/// Sets `key=value` in the URL's query string, replacing an existing
/// occurrence (ConnectionConfig::Parse rejects duplicates, so a blind
/// append would fail on URLs that already carry the key).
std::string WithUrlParam(const std::string& url, const std::string& key,
                         const std::string& value) {
  const size_t q = url.find('?');
  if (q == std::string::npos) return url + "?" + key + "=" + value;
  std::string result = url.substr(0, q);
  char separator = '?';
  size_t start = q + 1;
  bool replaced = false;
  while (start <= url.size()) {
    size_t end = url.find('&', start);
    if (end == std::string::npos) end = url.size();
    const std::string param = url.substr(start, end - start);
    if (!param.empty()) {
      if (param.compare(0, key.size() + 1, key + "=") == 0) {
        if (!replaced) {
          result += separator + key + "=" + value;
          separator = '&';
          replaced = true;
        }
      } else {
        result += separator + param;
        separator = '&';
      }
    }
    start = end + 1;
  }
  if (!replaced) result += separator + key + "=" + value;
  return result;
}

/// The runner-side scheduler hook of one running job: BeginRound blocks
/// for the tenant's weighted-fair turn and is the cooperative
/// cancellation point; EndRound returns the round slot.
class JobGate : public core::RoundGate {
 public:
  /// The gate's lifetime announces the tenant as live: the scheduler may
  /// hold a round slot for it across the gaps between its rounds, and
  /// the destructor lifts that claim the moment the run ends.
  JobGate(FairScheduler& scheduler, JobRecord& job)
      : scheduler_(scheduler), job_(job) {
    scheduler_.Enter(job_.tenant);
  }
  ~JobGate() override { scheduler_.Leave(job_.tenant); }

  void BeginRound(int64_t round) override {
    if (!scheduler_.BeginRound(job_.tenant, job_.cancel_requested)) {
      // The token knows WHY the job was stopped: a watermark victim kill
      // must surface as QuotaExceededError, not as a user cancellation.
      if (job_.token.requested()) job_.token.ThrowNow();
      throw JobCancelledError("job " + std::to_string(job_.id) +
                              " at round " + std::to_string(round) +
                              " border");
    }
    job_.rounds.store(round, std::memory_order_relaxed);
  }

  void EndRound(int64_t round) noexcept override {
    (void)round;
    scheduler_.EndRound(job_.tenant);
  }

 private:
  FairScheduler& scheduler_;
  JobRecord& job_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

JobHandle Session::Submit(const std::string& sql) const {
  return Submit(sql, options_.defaults);
}

JobHandle Session::Submit(const std::string& sql,
                          const core::SqloopOptions& options) const {
  return server_->SubmitParsed(tenant_, sql::ParseStatement(sql), sql,
                               options, /*observer=*/nullptr,
                               options_.url_params);
}

// ---------------------------------------------------------------------------
// JobServer
// ---------------------------------------------------------------------------

JobServer::JobServer(JobServerConfig config)
    : config_(std::move(config)),
      scheduler_(config_.max_active_rounds),
      admission_(config_.queue_capacity, config_.max_inflight_per_tenant,
                 config_.retry_after_ms) {
  // The watermarks police the BACKEND's total reservation (table storage
  // plus every connection's transient working sets), so the governance
  // scopes hang off the backend server's root tracker. A host that
  // resolves to no server still gets accounting — just no watermarks —
  // under a private root.
  try {
    const dbc::ConnectionConfig parsed =
        dbc::ConnectionConfig::Parse(config_.url);
    if (minidb::Server* backend = dbc::DriverManager::FindHost(parsed.host)) {
      root_tracker_ = backend->memory_tracker();
      backend_ = backend;
    }
  } catch (...) {
    // An unparsable URL fails later, at the first connection open.
  }
  if (root_tracker_ == nullptr) {
    fallback_root_ = std::make_unique<MemoryTracker>("server");
  }
  if (config_.share_worker_pool) {
    int threads = config_.worker_threads;
    if (threads <= 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      threads = hw >= 2 ? static_cast<int>(hw / 2) : 1;
    }
    shared_pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(threads));
  }
  const size_t dispatchers = std::max<size_t>(1, config_.max_running_jobs);
  dispatchers_.reserve(dispatchers);
  for (size_t i = 0; i < dispatchers; ++i) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
  if (config_.hard_memory_limit_bytes > 0 && root_tracker_ != nullptr) {
    governor_ = std::thread([this] { GovernorLoop(); });
  }
  if (config_.scrub_interval_ms > 0 && backend_ != nullptr) {
    scrubber_ = std::thread([this] { ScrubLoop(); });
  }
}

JobServer::~JobServer() { Drain(); }

Session JobServer::OpenSession(const std::string& tenant,
                               SessionOptions options) {
  const double weight = options.weight > 0 ? options.weight
                                           : config_.default_tenant_weight;
  {
    const std::scoped_lock lock(tenants_mutex_);
    TenantState& state = EnsureTenant(tenant);
    state.weight = weight;
    // Like the weight, the tenant budget is tenant-wide and updated by
    // every OpenSession (0 = unlimited).
    state.tracker->set_limit_bytes(options.memory_limit_bytes);
  }
  scheduler_.SetWeight(tenant, weight);
  return Session(this, tenant, std::move(options));
}

void JobServer::Drain() {
  const std::scoped_lock lock(drain_mutex_);
  admission_.Close();
  scheduler_.Poke();
  for (auto& dispatcher : dispatchers_) {
    if (dispatcher.joinable()) dispatcher.join();
  }
  // The governor outlives the dispatchers: watermark protection stays
  // active while admitted jobs finish.
  stop_governor_.store(true, std::memory_order_release);
  governor_cv_.notify_all();
  if (governor_.joinable()) governor_.join();
  // Ditto the scrubber: tables stay verified until the last job is done.
  stop_scrub_.store(true, std::memory_order_release);
  scrub_cv_.notify_all();
  if (scrubber_.joinable()) scrubber_.join();
  const std::scoped_lock pool_lock(pool_mutex_);
  for (auto& [url, conns] : idle_conns_) {
    for (auto& conn : conns) {
      if (conn != nullptr && !conn->closed()) {
        try {
          conn->Close();
        } catch (...) {
          // Closing pooled connections on shutdown is best-effort.
        }
      }
    }
  }
  idle_conns_.clear();
}

JobServer::TenantState& JobServer::EnsureTenant(const std::string& tenant) {
  TenantState& state = tenants_[tenant];
  if (state.recorder == nullptr) {
    state.recorder = std::make_shared<telemetry::Recorder>();
    state.weight = config_.default_tenant_weight;
  }
  if (state.tracker == nullptr) {
    MemoryTracker* root = root_tracker_ != nullptr ? root_tracker_.get()
                                                   : fallback_root_.get();
    state.tracker =
        std::make_unique<MemoryTracker>("tenant:" + tenant, root);
  }
  return state;
}

void JobServer::Drain(int64_t deadline_ms) {
  admission_.Close();  // stop admitting before the clock starts
  scheduler_.Poke();
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(std::max<int64_t>(0, deadline_ms));
  for (;;) {
    bool pending = false;
    {
      const std::scoped_lock lock(registry_mutex_);
      for (const auto& [seq, record] : registry_) {
        const std::scoped_lock record_lock(record->mutex);
        if (!IsTerminal(record->state)) {
          pending = true;
          break;
        }
      }
    }
    if (!pending || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Past the deadline: cancel the stragglers. They stop mid-statement via
  // the engine governor; checkpointed jobs resume under the same identity
  // on the next server.
  std::vector<std::shared_ptr<JobRecord>> stragglers;
  {
    const std::scoped_lock lock(registry_mutex_);
    for (const auto& [seq, record] : registry_) {
      const std::scoped_lock record_lock(record->mutex);
      if (!IsTerminal(record->state)) stragglers.push_back(record);
    }
  }
  for (const auto& record : stragglers) JobHandle(record).Cancel();
  Drain();  // joins dispatchers (stragglers unwind quickly) and governor
}

bool JobServer::shedding() const {
  return config_.soft_memory_limit_bytes > 0 && root_tracker_ != nullptr &&
         root_tracker_->reserved_bytes() >= config_.soft_memory_limit_bytes;
}

int64_t JobServer::memory_reserved_bytes() const {
  return root_tracker_ != nullptr ? root_tracker_->reserved_bytes() : 0;
}

void JobServer::GovernorLoop() {
  std::unique_lock<std::mutex> lock(governor_mutex_);
  const auto poll =
      std::chrono::milliseconds(std::max<int64_t>(1, config_.governor_poll_ms));
  while (!stop_governor_.load(std::memory_order_acquire)) {
    governor_cv_.wait_for(lock, poll, [&] {
      return stop_governor_.load(std::memory_order_acquire);
    });
    if (stop_governor_.load(std::memory_order_acquire)) break;
    const int64_t reserved = root_tracker_->reserved_bytes();
    if (reserved >= config_.hard_memory_limit_bytes) {
      // Pressure ladder: evicting cold table pages to their spill files is
      // loss-free, cancelling a job throws its progress away — so shrink
      // the backend's buffer pools first and only kill when eviction
      // cannot get the reservation back under the watermark.
      ShrinkBackendPools(reserved - config_.hard_memory_limit_bytes);
      if (root_tracker_->reserved_bytes() >= config_.hard_memory_limit_bytes) {
        KillLargestVictim();
      }
    }
  }
}

int64_t JobServer::ShrinkBackendPools(int64_t want_bytes) {
  if (backend_ == nullptr || want_bytes <= 0) return 0;
  int64_t freed = 0;
  for (const std::string& db_name : backend_->DatabaseNames()) {
    if (freed >= want_bytes) break;
    const std::shared_ptr<minidb::Database> db =
        backend_->FindDatabase(db_name);
    if (db == nullptr) continue;  // dropped since the name snapshot
    freed += db->buffer_pool().TryReclaim(want_bytes - freed);
  }
  if (freed > 0) {
    pool_bytes_reclaimed_.fetch_add(static_cast<uint64_t>(freed),
                                    std::memory_order_relaxed);
  }
  return freed;
}

void JobServer::ScrubLoop() {
  std::unique_lock<std::mutex> lock(scrub_mutex_);
  const auto interval =
      std::chrono::milliseconds(std::max<int64_t>(1, config_.scrub_interval_ms));
  while (!stop_scrub_.load(std::memory_order_acquire)) {
    scrub_cv_.wait_for(lock, interval, [&] {
      return stop_scrub_.load(std::memory_order_acquire);
    });
    if (stop_scrub_.load(std::memory_order_acquire)) break;
    // Governance-aware pacing: a scrub pass scans whole tables under
    // shared locks; while the server is already shedding load at the soft
    // watermark, skipping the cycle is strictly better than adding reads.
    if (shedding()) {
      scrub_skipped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    ScrubBackendOnce();
    scrub_cycles_.fetch_add(1, std::memory_order_relaxed);
  }
}

uint64_t JobServer::ScrubBackendOnce() {
  uint64_t corruptions = 0;
  for (const std::string& db_name : backend_->DatabaseNames()) {
    const std::shared_ptr<minidb::Database> db =
        backend_->FindDatabase(db_name);
    if (db == nullptr) continue;  // dropped since the name snapshot
    for (const std::string& table_name : db->TableNames()) {
      if (stop_scrub_.load(std::memory_order_acquire)) return corruptions;
      const std::shared_ptr<minidb::Table> table = db->FindTable(table_name);
      if (table == nullptr || table->quarantined()) continue;
      uint64_t expected = 0;
      uint64_t actual = 0;
      bool ok = true;
      {
        const std::shared_lock table_lock(table->lock());
        ok = table->VerifyContent(&expected, &actual);
        if (!ok) table->set_quarantined(true);
      }
      scrub_tables_.fetch_add(1, std::memory_order_relaxed);
      if (!ok) {
        ++corruptions;
        scrub_corruptions_.fetch_add(1, std::memory_order_relaxed);
        SQLOOP_WARN("background scrub: table '"
                    << db_name << "." << table_name
                    << "' failed its content checksum (maintained " << expected
                    << ", recomputed " << actual << "); table quarantined");
      }
    }
  }
  return corruptions;
}

bool JobServer::KillLargestVictim() {
  std::shared_ptr<JobRecord> victim;
  int64_t victim_bytes = 0;
  {
    const std::scoped_lock lock(running_mutex_);
    for (const auto& [seq, entry] : running_) {
      const auto& [record, tracker] = entry;
      // A kill already in flight: let it unwind before judging again,
      // otherwise one pressure spike cascades into killing every job.
      if (record->token.reason() == CancelReason::kQuota) return true;
      const int64_t bytes = tracker->reserved_bytes();
      if (bytes <= 0) continue;  // storage pressure; killing won't help
      // Deterministic victim: most bytes, ties broken toward the most
      // recently admitted job (earlier submitters keep their progress).
      if (victim == nullptr || bytes > victim_bytes ||
          (bytes == victim_bytes && seq > victim->seq)) {
        victim = record;
        victim_bytes = bytes;
      }
    }
    if (victim == nullptr) return false;
    victim->token.Request(
        CancelReason::kQuota,
        "job " + std::to_string(victim->id) + " cancelled: server over its " +
            std::to_string(config_.hard_memory_limit_bytes) +
            "-byte hard memory watermark (job held " +
            std::to_string(victim_bytes) + " bytes)");
    victim->cancel_requested.store(true, std::memory_order_release);
  }
  victim_cancellations_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::scoped_lock lock(tenants_mutex_);
    EnsureTenant(victim->tenant)
        .recorder->Add("governance.victim_cancellations", 1);
  }
  // Wake the victim wherever it is blocked (round border, target wait);
  // the engine governor picks the token up mid-statement.
  scheduler_.Poke();
  { const std::scoped_lock lock(targets_mutex_); }
  targets_cv_.notify_all();
  return true;
}

JobHandle JobServer::SubmitParsed(const std::string& tenant,
                                  sql::StatementPtr stmt,
                                  std::string sql_text,
                                  const core::SqloopOptions& options,
                                  core::ExecutionObserver* observer,
                                  const std::string& url_params,
                                  dbc::Connection* borrowed_conn) {
  if (stmt == nullptr) throw UsageError("Submit requires a statement");
  // Soft watermark: shed new work while the backend is under memory
  // pressure — reject up front with a retry-after instead of admitting a
  // job that would deepen the overload. Queued jobs are additionally held
  // at dispatch (see RunJob).
  if (shedding()) {
    shed_admissions_.fetch_add(1, std::memory_order_relaxed);
    {
      const std::scoped_lock lock(tenants_mutex_);
      TenantState& state = EnsureTenant(tenant);
      ++state.rejected;
      state.recorder->Add("tenant.jobs_rejected", 1);
      state.recorder->Add("governance.shed_admissions", 1);
    }
    throw AdmissionError(
        "server over its soft memory watermark (" +
            std::to_string(memory_reserved_bytes()) + " of " +
            std::to_string(config_.soft_memory_limit_bytes) +
            " bytes reserved)",
        config_.retry_after_ms);
  }
  auto job = std::make_shared<JobRecord>();
  job->seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  job->tenant = tenant;
  const std::string canonical = sql::PrintStatement(*stmt);
  job->sql = sql_text.empty() ? canonical : std::move(sql_text);
  job->id = JobIdentity(tenant, canonical, options);
  job->stmt = std::move(stmt);
  if (job->stmt->kind == sql::StatementKind::kWith) {
    job->target = minidb::FoldIdentifier(job->stmt->with.name);
  }
  job->options = options;
  job->observer = observer;
  job->borrowed_conn = borrowed_conn;
  job->url = AppendUrlParams(config_.url, url_params);
  if (config_.derive_seeds) {
    job->options.retry.jitter_seed = DeriveSeed(config_.seed, job->id, 1);
    if (job->url.find("fault_") != std::string::npos) {
      // Each job gets its own deterministic fault stream — concurrent
      // jobs otherwise share one injector and steal each other's draws.
      // Stable across resume: the same job id yields the same seed, so
      // latched triggers (fault_kill_at_round) behave as one schedule.
      // Masked to the int64 range: URL parameters parse as signed.
      job->url = WithUrlParam(
          job->url, "fault_seed",
          std::to_string(DeriveSeed(config_.seed, job->id, 2) &
                         0x7FFFFFFFFFFFFFFFULL));
    }
  }
  job->cancel_hook = [this](JobRecord& record) { HandleCancel(record); };

  double weight = config_.default_tenant_weight;
  {
    const std::scoped_lock lock(tenants_mutex_);
    TenantState& state = EnsureTenant(tenant);
    weight = state.weight;
  }
  {
    const std::scoped_lock lock(registry_mutex_);
    registry_[job->seq] = job;
    TrimHistory();
  }
  try {
    admission_.Push(job, weight);
  } catch (const AdmissionError&) {
    {
      const std::scoped_lock lock(registry_mutex_);
      registry_.erase(job->seq);
    }
    const std::scoped_lock lock(tenants_mutex_);
    TenantState& state = EnsureTenant(tenant);
    ++state.rejected;
    state.recorder->Add("tenant.jobs_rejected", 1);
    throw;
  }
  {
    const std::scoped_lock lock(tenants_mutex_);
    ++EnsureTenant(tenant).submitted;
  }
  return JobHandle(job);
}

void JobServer::DispatcherLoop() {
  while (std::shared_ptr<JobRecord> job = admission_.Pop()) {
    RunJob(job);
    admission_.Release(job->tenant);
  }
}

void JobServer::RunJob(const std::shared_ptr<JobRecord>& job) {
  // Soft watermark: hold queued work at dispatch until pressure drops (a
  // drain lets held jobs through — they run to completion). Cancellation
  // still works while held.
  while (shedding() &&
         !job->cancel_requested.load(std::memory_order_acquire) &&
         !admission_.closed()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    const std::scoped_lock lock(job->mutex);
    if (job->state != JobState::kQueued) return;  // cancelled while queued
    job->state = JobState::kRunning;
    job->queue_seconds = job->watch.ElapsedSeconds();
  }
  {
    const std::scoped_lock lock(tenants_mutex_);
    EnsureTenant(job->tenant)
        .recorder->AddSeconds("tenant.queue_wait_seconds",
                              job->queue_seconds);
  }

  dbc::ResultSet result;
  std::exception_ptr error;
  core::RunStats stats;
  stats.recorder = std::make_shared<telemetry::Recorder>();

  // The job's memory scope: parented on the tenant scope (whose budget
  // caps the tenant's combined jobs), capped by the per-job budget. Every
  // connection the run touches charges here; the governor thread reads it
  // to pick hard-watermark victims.
  MemoryTracker* tenant_scope = nullptr;
  {
    const std::scoped_lock lock(tenants_mutex_);
    tenant_scope = EnsureTenant(job->tenant).tracker.get();
  }
  MemoryTracker job_tracker("job:" + std::to_string(job->id), tenant_scope,
                            job->options.memory_limit_bytes);
  {
    const std::scoped_lock lock(running_mutex_);
    running_[job->seq] = {job, &job_tracker};
  }

  std::unique_ptr<dbc::Connection> owned;
  dbc::Connection* master = job->borrowed_conn;
  int64_t saved_check_rows = -1;
  bool target_held = false;
  try {
    if (job->cancel_requested.load(std::memory_order_acquire)) {
      if (job->token.requested()) job->token.ThrowNow();
      throw JobCancelledError("job " + std::to_string(job->id) +
                              " before its first round");
    }
    AcquireTarget(*job, stats.recorder.get());
    target_held = !job->target.empty();
    if (master == nullptr) {
      owned = AcquireConnection(job->url);  // pooled, may be null
      if (owned == nullptr) {
        // Initial open, not a recovery: Retrier::Open retries transient
        // connect faults but keeps fault-free counters at zero.
        core::Retrier open_retrier(job->options.retry, stats.recorder.get(),
                                   job->observer);
        owned = open_retrier.Open(job->url);
        stats.retries += open_retrier.retries();
        stats.timeouts += open_retrier.timeouts();
      }
      master = owned.get();
    }
    master->set_recorder(stats.recorder.get());
    master->set_statement_timeout_ms(job->options.retry.statement_timeout_ms);
    // Governance attachments for statements that run directly on the
    // master (plain SQL, setup); the runners re-apply the same hooks to
    // every worker connection they open.
    saved_check_rows = master->cancel_check_rows();
    master->set_cancel_token(&job->token);
    master->set_memory_tracker(&job_tracker);
    if (job->options.cancel_check_rows > 0) {
      master->set_cancel_check_rows(job->options.cancel_check_rows);
    }

    JobGate gate(scheduler_, *job);
    const core::ExecutionContext ctx{
        job->options, stats,
        stats.recorder.get(), job->observer,
        &gate,        config_.share_worker_pool ? shared_pool_.get() : nullptr,
        &job->token,  &job_tracker};
    result = core::RunStatement(job->url, *master, *job->stmt, ctx);
  } catch (...) {
    error = std::current_exception();
  }
  if (target_held) ReleaseTarget(*job);

  // Unregister from the governor BEFORE job_tracker leaves scope and
  // before the record turns terminal.
  {
    const std::scoped_lock lock(running_mutex_);
    running_.erase(job->seq);
  }
  // The job's own high watermark, for run-level reporting (the shell's
  // \stats governance line); the tenant-scope gauges live in Tenants().
  if (stats.recorder != nullptr) {
    stats.recorder->Set("governance.job_bytes_peak",
                        static_cast<uint64_t>(
                            std::max<int64_t>(0, job_tracker.peak_bytes())));
  }

  // Detach and pool/close the master BEFORE the record turns terminal:
  // the moment Wait() returns, callers are entitled to see the job's
  // connection accounting settled. A borrowed connection is only
  // detached — it belongs to the submitter.
  if (master != nullptr) {
    master->set_recorder(nullptr);
    master->set_statement_timeout_ms(0);
    master->set_cancel_token(nullptr);
    master->set_memory_tracker(nullptr);  // restores the conn's own scope
    if (saved_check_rows >= 0) {
      master->set_cancel_check_rows(saved_check_rows);
    }
  }
  if (owned != nullptr) {
    ReleaseConnection(job->url, std::move(owned));
  }
  MergeTenantTelemetry(job->tenant, stats);
  CompleteJob(*job, std::move(result), error, std::move(stats));
}

void JobServer::CompleteJob(JobRecord& job, dbc::ResultSet result,
                            std::exception_ptr error, core::RunStats stats) {
  JobState state = JobState::kCompleted;
  std::string message;
  bool quota = false;
  if (error != nullptr) {
    try {
      std::rethrow_exception(error);
    } catch (const JobCancelledError& e) {
      state = JobState::kCancelled;
      message = e.what();
    } catch (const QuotaExceededError& e) {
      state = JobState::kFailed;
      message = e.what();
      quota = true;
    } catch (const std::exception& e) {
      state = JobState::kFailed;
      message = e.what();
    } catch (...) {
      state = JobState::kFailed;
      message = "unknown error";
    }
  }
  {
    const std::scoped_lock lock(job.mutex);
    if (IsTerminal(job.state)) return;  // completed by a racing cancel
    job.state = state;
    job.error = error;
    job.error_message = message;
    job.result = std::move(result);
    job.stats = std::move(stats);
    job.run_seconds =
        std::max(0.0, job.watch.ElapsedSeconds() - job.queue_seconds);
    job.cancel_hook = nullptr;
    // Settle the tenant's outcome counters before any waiter wakes: the
    // moment Wait() returns, Tenants() already reflects this job. Lock
    // order job.mutex → tenants_mutex_ matches HandleCancel's path.
    const std::scoped_lock tenants_lock(tenants_mutex_);
    TenantState& tenant = EnsureTenant(job.tenant);
    switch (state) {
      case JobState::kCompleted:
        ++tenant.completed;
        tenant.recorder->Add("tenant.jobs_completed", 1);
        break;
      case JobState::kFailed:
        ++tenant.failed;
        tenant.recorder->Add("tenant.jobs_failed", 1);
        if (quota) tenant.recorder->Add("governance.quota_rejections", 1);
        break;
      case JobState::kCancelled:
        ++tenant.cancelled;
        tenant.recorder->Add("tenant.jobs_cancelled", 1);
        break;
      default:
        break;
    }
  }
  job.cv.notify_all();
}

void JobServer::HandleCancel(JobRecord& job) {
  // A running job re-checks its cancel flag at the next round border;
  // wake it if it is blocked waiting for a grant.
  scheduler_.Poke();
  // Also wake it if it is blocked waiting for its target relation. The
  // empty critical section orders the wake after the cancel flag: a
  // waiter between its predicate check and blocking holds the mutex, so
  // it either saw the flag or is woken by this notify.
  { const std::scoped_lock lock(targets_mutex_); }
  targets_cv_.notify_all();
  // A still-queued job terminates right here (and frees its admission
  // slot); if a dispatcher popped it first, RunJob's pre-round check or
  // the gate picks the cancellation up instead.
  if (admission_.Erase(&job)) {
    CompleteJob(job, {},
                std::make_exception_ptr(JobCancelledError(
                    "job " + std::to_string(job.id) + " while queued")),
                {});
  }
}

void JobServer::MergeTenantTelemetry(const std::string& tenant,
                                     const core::RunStats& stats) {
  const std::scoped_lock lock(tenants_mutex_);
  TenantState& state = EnsureTenant(tenant);
  if (stats.recorder != nullptr) {
    for (const auto& [name, value] : stats.recorder->Counters()) {
      state.recorder->Add(name, value);
    }
    for (const auto& [name, seconds] : stats.recorder->Timers()) {
      state.recorder->AddSeconds(name, seconds);
    }
  }
  state.recorder->Add("tenant.rounds",
                      static_cast<uint64_t>(std::max<int64_t>(
                          0, stats.iterations)));
  state.recorder->Add("tenant.tasks",
                      stats.compute_tasks + stats.gather_tasks);
  state.recorder->Add("tenant.retries", stats.retries);
  // Memory gauges from the tenant's scope: a point-in-time reservation
  // (gauge: last write wins) and the monotonic high watermark.
  if (state.tracker != nullptr) {
    state.recorder->Set(
        "governance.bytes_reserved",
        static_cast<uint64_t>(
            std::max<int64_t>(0, state.tracker->reserved_bytes())));
    state.recorder->SetMax(
        "governance.bytes_peak",
        static_cast<uint64_t>(
            std::max<int64_t>(0, state.tracker->peak_bytes())));
  }
}

void JobServer::AcquireTarget(JobRecord& job, telemetry::Recorder* recorder) {
  if (job.target.empty()) return;
  const double start = job.watch.ElapsedSeconds();
  std::unique_lock<std::mutex> lock(targets_mutex_);
  targets_cv_.wait(lock, [&] {
    return job.cancel_requested.load(std::memory_order_acquire) ||
           busy_targets_.count(job.target) == 0;
  });
  if (job.cancel_requested.load(std::memory_order_acquire)) {
    throw JobCancelledError("job " + std::to_string(job.id) +
                            " waiting for relation '" + job.target + "'");
  }
  busy_targets_.insert(job.target);
  lock.unlock();
  if (recorder != nullptr) {
    recorder->AddSeconds("service.target_wait_seconds",
                         job.watch.ElapsedSeconds() - start);
  }
}

void JobServer::ReleaseTarget(const JobRecord& job) {
  {
    const std::scoped_lock lock(targets_mutex_);
    busy_targets_.erase(job.target);
  }
  targets_cv_.notify_all();
}

std::unique_ptr<dbc::Connection> JobServer::AcquireConnection(
    const std::string& url) {
  const std::scoped_lock lock(pool_mutex_);
  auto it = idle_conns_.find(url);
  while (it != idle_conns_.end() && !it->second.empty()) {
    std::unique_ptr<dbc::Connection> conn = std::move(it->second.back());
    it->second.pop_back();
    if (conn != nullptr && !conn->closed()) {
      ++pool_hits_;
      return conn;
    }
  }
  ++pool_misses_;
  return nullptr;
}

void JobServer::ReleaseConnection(const std::string& url,
                                  std::unique_ptr<dbc::Connection> conn) {
  if (conn == nullptr) return;
  // Only a clean connection is safe to hand to the next job: open, in
  // autocommit, with no half-built batch.
  if (!admission_.closed() && !conn->closed() &&
      conn->auto_commit() && conn->batch_size() == 0) {
    const std::scoped_lock lock(pool_mutex_);
    idle_conns_[url].push_back(std::move(conn));
    return;
  }
  if (!conn->closed()) {
    try {
      conn->Close();
    } catch (...) {
      // Best-effort on the way out.
    }
  }
}

std::vector<JobInfo> JobServer::Jobs() const {
  std::vector<std::shared_ptr<JobRecord>> records;
  {
    const std::scoped_lock lock(registry_mutex_);
    records.reserve(registry_.size());
    for (const auto& [seq, record] : registry_) records.push_back(record);
  }
  std::vector<JobInfo> infos;
  infos.reserve(records.size());
  for (const auto& record : records) {
    JobInfo info;
    info.seq = record->seq;
    info.id = record->id;
    info.tenant = record->tenant;
    info.sql = record->sql;
    info.rounds = record->rounds.load(std::memory_order_relaxed);
    const std::scoped_lock lock(record->mutex);
    info.state = record->state;
    info.queue_seconds = record->queue_seconds;
    info.run_seconds = record->run_seconds;
    info.error = record->error_message;
    infos.push_back(std::move(info));
  }
  return infos;
}

std::vector<TenantInfo> JobServer::Tenants() const {
  const std::scoped_lock lock(tenants_mutex_);
  std::vector<TenantInfo> infos;
  infos.reserve(tenants_.size());
  for (const auto& [name, state] : tenants_) {
    TenantInfo info;
    info.tenant = name;
    info.weight = state.weight;
    info.jobs_submitted = state.submitted;
    info.jobs_completed = state.completed;
    info.jobs_failed = state.failed;
    info.jobs_cancelled = state.cancelled;
    info.jobs_rejected = state.rejected;
    info.recorder = state.recorder;
    infos.push_back(std::move(info));
  }
  return infos;
}

uint64_t JobServer::pool_hits() const {
  const std::scoped_lock lock(pool_mutex_);
  return pool_hits_;
}

uint64_t JobServer::pool_misses() const {
  const std::scoped_lock lock(pool_mutex_);
  return pool_misses_;
}

void JobServer::TrimHistory() {
  size_t terminal = 0;
  for (const auto& [seq, record] : registry_) {
    const std::scoped_lock lock(record->mutex);
    if (IsTerminal(record->state)) ++terminal;
  }
  for (auto it = registry_.begin();
       terminal > config_.history_limit && it != registry_.end();) {
    bool done = false;
    {
      const std::scoped_lock lock(it->second->mutex);
      done = IsTerminal(it->second->state);
    }
    if (done) {
      it = registry_.erase(it);
      --terminal;
    } else {
      ++it;
    }
  }
}

}  // namespace sqloop::server
