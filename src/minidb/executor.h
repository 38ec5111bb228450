// Statement execution against a Database: the SELECT pipeline (scans,
// joins, grouping, set operations), DML, DDL, recursive CTEs via
// semi-naive evaluation, and weak transactions (table-snapshot rollback).
//
// Concurrency model: each statement collects every base table it touches,
// sorts them by name, and takes table-level locks up front (shared for
// reads, exclusive for writes) — the global ordering makes deadlock
// impossible. INSERT ... SELECT and UPDATE ... FROM (subquery) whose source
// does not read the written table lock in two phases (LockPlan::phased):
// shared locks while the source is evaluated, then the exclusive lock
// alone for the apply. This mirrors the table-lock engines the paper runs on and is
// exactly the overhead SQLoop's per-partition tables + message tables are
// designed to avoid (paper §V-C).
#pragma once

#include <chrono>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cancel.h"
#include "common/function_ref.h"
#include "minidb/batch.h"
#include "minidb/database.h"
#include "minidb/evaluator.h"
#include "telemetry/recorder.h"

namespace sqloop::minidb {

// Join emission callback: RunJoin hands each combined row to the sink,
// which takes ownership (FunctionRef is non-owning).
using OwnedRowSink = FunctionRef<void(Row&&)>;

/// Per-connection state: an open transaction's table backups. minidb
/// transactions give statement-level isolation with all-or-nothing
/// rollback of DML (DDL is not transactional; see DESIGN.md).
class Session {
 public:
  bool in_transaction() const noexcept { return in_transaction_; }

 private:
  friend class Executor;
  bool in_transaction_ = false;
  std::unordered_map<std::string, std::vector<Row>> backups_;
};

/// One parsed statement and its number of `?` placeholders.
struct ParsedStatement {
  sql::StatementPtr ast;
  int param_count = 0;
};

/// Parses exactly one statement of `text`, counting `sql.parse_count` and
/// timing `sql.parse_seconds` on `recorder` (null = not recorded). Every
/// parse the plan cache, its off switch and prepared statements pay goes
/// through here.
ParsedStatement ParseCounted(std::string_view text,
                             telemetry::Recorder* recorder);

class Executor {
 public:
  explicit Executor(Database& db) : db_(db) {}

  /// Executes one parsed statement. `session` carries transaction state
  /// and may be null for autocommit execution.
  ResultSet Execute(const sql::Statement& stmt, Session* session = nullptr);

  /// Executes a statement with a precomputed lock plan (from Prepare or a
  /// cached plan), skipping the per-statement table-collection walk. Access
  /// paths are chosen per execution, against the live catalog.
  ResultSet ExecuteWithPlan(const sql::Statement& stmt, const LockPlan& plan,
                            Session* session = nullptr);

  /// Executes exactly one statement of SQL text. Consults the database's
  /// plan cache first: repeated text skips the parse entirely, and a
  /// catalog change since the plan was bound re-binds without re-parsing.
  ResultSet ExecuteSql(std::string_view text, Session* session = nullptr);

  /// Compile-once entry point: returns the cached plan for `text`, parsing
  /// on a cache miss and re-binding the lock plan if DDL happened since it
  /// was bound. The handle stays valid after eviction and across Reopen.
  /// `pin` declares the text reusable (an explicit PREPARE): it enters the
  /// shared cache on first compile instead of waiting for a second sighting.
  /// Throws UsageError when the plan cache is disabled.
  std::shared_ptr<const CachedPlan> Prepare(std::string_view text,
                                            bool pin = false);

  /// Whether the most recent Prepare call actually parsed (cache miss) as
  /// opposed to serving a cached plan. Feeds the dbc compile-cost model.
  bool last_prepare_parsed() const noexcept { return last_prepare_parsed_; }

  /// Computes the lock plan (base tables to lock, views expanded) for a
  /// statement under the current catalog.
  LockPlan BuildLockPlan(const sql::Statement& stmt) const;

  /// Scan/materialization accounting for the most recent statement this
  /// executor ran (reset per statement; also flushed to the recorder as
  /// `minidb.*` counters).
  struct EngineCounters {
    size_t rows_materialized = 0;  // rows deep-copied into intermediates
    size_t rows_borrowed = 0;      // rows served zero-copy from storage
    size_t index_scans = 0;        // scans narrowed by an index probe
    size_t full_scans = 0;         // scans that visited every live row
    size_t pushed_predicates = 0;  // WHERE conjuncts evaluated during scans
    size_t batches_produced = 0;   // RowBatches emitted by scans and joins
    size_t vectorized_cores = 0;   // SELECT cores run on the batch engine
    size_t scalar_fallbacks = 0;   // conjuncts/aggregates evaluated
                                   // per lane instead of kernelized
    size_t pruned_cores = 0;       // range cores answered without a scan
  };
  const EngineCounters& last_engine_counters() const noexcept {
    return counters_;
  }

  /// Iteration cap for recursive CTE evaluation (safety net against
  /// non-terminating recursion).
  static constexpr int64_t kMaxRecursions = 100000;

  /// Attributes server-side costs (rows examined, lock-wait time) to a
  /// telemetry recorder; null detaches. Only consulted in telemetry-enabled
  /// builds — the counting hooks compile out otherwise.
  void set_recorder(telemetry::Recorder* recorder) noexcept {
    recorder_ = recorder;
  }

  // --- resource governance ----------------------------------------------
  // The statement governor: scan/join/build loops tick a countdown; every
  // `cancel_check_rows` rows the slow path consults the cancel token and
  // the statement deadline, so Cancel(), a blown deadline, or a quota
  // breach preempts a long cross join mid-statement. Byte charges for
  // transient working sets (materialized rows, join builds, GROUP BY
  // state) batch locally and flush into the attached tracker chain, which
  // throws QuotaExceededError on breach. Ticks and charges live only in
  // read/build phases — never in write-apply loops — so a mid-statement
  // abort always leaves tables untouched.

  /// Default rows between governor checks (see `cancel_check_rows` URL
  /// parameter).
  static constexpr int64_t kDefaultCancelCheckRows = 1024;

  /// Cancellation token observed mid-statement; null detaches.
  void set_cancel_token(const CancelToken* token) noexcept {
    cancel_ = token;
  }
  /// Memory scope charged for this executor's transient working sets;
  /// null detaches (accounting off).
  void set_memory_tracker(MemoryTracker* tracker) noexcept {
    memory_ = tracker;
  }
  /// Rows between governor checks; values < 1 restore the default.
  void set_cancel_check_rows(int64_t rows) noexcept {
    check_rows_ = rows >= 1 ? rows : kDefaultCancelCheckRows;
  }
  /// Arms a mid-statement deadline: once passed, the next governor check
  /// throws TimeoutError (transient — ticks sit in read loops only, so the
  /// statement never reached a write and retry is safe).
  void set_statement_deadline(
      std::chrono::steady_clock::time_point deadline) noexcept {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  void clear_statement_deadline() noexcept { has_deadline_ = false; }

  // Current governance attachments, so callers that lend a scope (runner,
  // job server) can save and restore what was there before.
  const CancelToken* cancel_token() const noexcept { return cancel_; }
  MemoryTracker* memory_tracker() const noexcept { return memory_; }
  int64_t cancel_check_rows() const noexcept { return check_rows_; }

 private:
  struct ExecContext {
    // CTE name (folded) -> materialized relation visible to the query.
    std::unordered_map<std::string, const Relation*> cte_bindings;
    // Range cores PruneRangeCores proved empty before the locks were
    // taken, sorted by address: answered without a scan, their tables
    // locked only if something else reads them.
    std::vector<const sql::SelectCore*> empty_cores;
  };

  /// Everything PrepareJoin resolves before a join runs: evaluated (or
  /// schema-only, for index-nested-loop candidates) inputs, the combined
  /// output bindings, and the classified ON condition. RunJoin streams the
  /// combined rows from this state into a sink.
  struct JoinState {
    const sql::TableRef* join = nullptr;
    Relation left;
    std::shared_ptr<Table> right_table;  // set when right is a base table
    Relation right;                      // evaluated right (when needed)
    bool right_materialized = false;
    std::vector<ColumnBinding> right_columns;
    std::vector<ColumnBinding> columns;  // combined output bindings
    std::vector<std::pair<int, int>> equi;  // (left index, right index)
    std::vector<const sql::Expr*> residual;  // non-equi ON conjuncts
  };

  // --- SELECT pipeline -------------------------------------------------
  // For single-core statements the ORDER BY keys are computed inside the
  // core evaluation, where both the projected output and the pre-projection
  // input are visible (SQL allows ordering by either). `order_by` and
  // `sort_keys` are null for UNION arms.
  //
  // One engine (see DESIGN.md "The SELECT engine"): a producer pushes
  // RowBatches of borrowed row views into ProjectCore or AggregateCore.
  // The producers are the batched base-table scan, the join (staging its
  // combined rows into batches), and the reference relation. Operator
  // outputs are always owned relations.
  ResultSet EvalSelect(const sql::SelectStmt& stmt, ExecContext& ctx);
  Relation EvalCore(const sql::SelectCore& core, ExecContext& ctx,
                    const std::vector<sql::OrderItem>* order_by = nullptr,
                    std::vector<Row>* sort_keys = nullptr);
  /// The materializing pipeline (pre-fusion behavior, kept verbatim): the
  /// oracle the batch engine is tested against, the whole pipeline of a
  /// SelectEngine::kReference database, and the fallback for cores the
  /// batch engine does not cover (subqueries, CTE and view references,
  /// FROM-less selects). Error reporting for missing relations and
  /// unresolvable columns lives here.
  Relation EvalCoreReference(const sql::SelectCore& core, ExecContext& ctx,
                             bool aggregate_mode,
                             const std::vector<sql::OrderItem>* order_by,
                             std::vector<Row>* sort_keys);
  /// The batch engine for cores whose FROM is a base table or a join
  /// tree: predicates push into the scans (compiled into kernels where
  /// their shape allows) and batches stream from scan or join straight
  /// into projection or aggregation with no intermediate Relation.
  /// Returns false (leaving `out` untouched) for the shapes it does not
  /// cover — the caller falls back to EvalCoreReference.
  bool EvalBatchCore(const sql::SelectCore& core, ExecContext& ctx,
                     bool aggregate_mode,
                     const std::vector<sql::OrderItem>* order_by,
                     std::vector<Row>* sort_keys, Relation* out);
  /// Checks the bound window of each of `plan`'s range cores in `select`
  /// (a SELECT or a phased INSERT's source) and collects the empty ones
  /// into ctx.empty_cores, so a Gather's idle outbox arms neither scan nor
  /// lock their outboxes. Returns the per-entry lock mask to acquire, or
  /// null when nothing was pruned (or the catalog moved since the plan was
  /// bound). No catalog lookup: the plan carries the bind-time proof.
  const std::vector<uint8_t>* PruneRangeCores(const sql::SelectStmt& select,
                                              const LockPlan& plan,
                                              ExecContext& ctx);
  /// A base-table scan's access path, chosen per execution against the
  /// live catalog: the scan's column bindings, a predicate kernel for each
  /// pushed conjunct whose shape compiles (`compiled[i]` set), and the
  /// first conjunct usable as an equality index probe (`probe_conjunct`,
  /// -1 = full scan) with the column it narrows on.
  struct ScanSetup {
    std::vector<ColumnBinding> columns;
    std::vector<PredicateKernel> kernels;
    std::vector<uint8_t> compiled;
    int probe_conjunct = -1;
    std::string probe_column;
  };
  /// The one scan set-up both base-table scan sites (EvalBatchCore and
  /// ScanFiltered) run before ScanBatched. A prepared statement's `?`
  /// slots are bound literals by now, so they compile and probe like any
  /// literal. Counts each uncompiled conjunct as a scalar fallback.
  ScanSetup SetUpScan(const Table& table, const std::string& alias,
                      const std::vector<const sql::Expr*>& pushed);
  /// The batched base-table scan: visits `table`'s live rows (or, with a
  /// probe in `setup`, the rows the equality index probe returns, in scan
  /// order) a RowBatch at a time and pushes the lanes passing every
  /// conjunct of `pushed` into `sink` (the probe conjunct too, preserving
  /// SQL `=` semantics). Compiled conjuncts run as kernels; the others are
  /// evaluated per lane over every visited lane, so each row sees every
  /// conjunct (classic AND), before the sink sees the batch.
  void ScanBatched(const Table& table,
                   const std::vector<const sql::Expr*>& pushed,
                   const ScanSetup& setup, const BatchSink& sink);
  /// Pushes `rel`'s rows into `sink` as batches of views (the reference
  /// pipeline's producer).
  void FeedRelation(const Relation& rel, const BatchSink& sink);
  Relation EvalTableRef(const sql::TableRef& ref, ExecContext& ctx);
  Relation EvalJoin(const sql::TableRef& join, ExecContext& ctx);
  /// Evaluates one join input. When `pending` is non-null, WHERE conjuncts
  /// that resolve entirely against a base-table input are removed from it
  /// and evaluated during that input's scan (predicate pushdown); nested
  /// join inputs recurse and then materialize.
  Relation EvalJoinInput(const sql::TableRef& ref, ExecContext& ctx,
                         std::vector<const sql::Expr*>* pending);
  JoinState PrepareJoin(const sql::TableRef& join, ExecContext& ctx,
                        std::vector<const sql::Expr*>* pending);
  /// Streams the join's combined rows into `sink` (ownership passes to the
  /// sink). Strategy per engine profile, as before: index nested loop,
  /// hash, or plain nested loop, with LEFT JOIN NULL-padding.
  void RunJoin(JoinState& state, const OwnedRowSink& sink);
  Relation ScanTable(const Table& table, const std::string& alias);
  /// Relation form of ScanBatched (join inputs): the matching rows' views,
  /// with an index probe chosen from `pushed` when available.
  Relation ScanFiltered(const Table& table, const std::string& alias,
                        const std::vector<const sql::Expr*>& pushed);
  /// Collects the full FROM-tree output bindings without evaluating
  /// anything; returns false when they cannot be precomputed (views,
  /// subqueries), which disables join predicate pushdown for the core.
  bool TryCollectTreeBindings(const sql::TableRef& ref, ExecContext& ctx,
                              std::vector<ColumnBinding>& out) const;
  Relation ProjectCore(const sql::SelectCore& core,
                       const std::vector<ColumnBinding>& input_columns,
                       const BatchSource& input,
                       const std::vector<sql::OrderItem>* order_by,
                       std::vector<Row>* sort_keys);
  /// `schema`, when non-null, is the storage schema `input_columns` follow
  /// one for one (a single base-table scan). Without GROUP BY its column
  /// types let plain-column aggregates reduce span-wise per batch.
  Relation AggregateCore(const sql::SelectCore& core,
                         const std::vector<ColumnBinding>& input_columns,
                         const Schema* schema, const BatchSource& input,
                         const std::vector<sql::OrderItem>* order_by,
                         std::vector<Row>* sort_keys);

  // --- statements -------------------------------------------------------
  ResultSet ExecuteInternal(const sql::Statement& stmt, const LockPlan& plan,
                            Session* session);
  ResultSet ExecWith(const sql::Statement& stmt, ExecContext& ctx);
  ResultSet ExecCreateTable(const sql::Statement& stmt);
  /// Evaluates an INSERT's source SELECT to owned rows.
  std::vector<Row> SelectForInsert(const sql::Statement& stmt,
                                   ExecContext& ctx);
  /// `selected` / `evaluated_from`: the source already evaluated by the
  /// read phase of a phased lock plan (null = evaluate here).
  ResultSet ExecInsert(const sql::Statement& stmt, Session* session,
                       std::vector<Row>* selected = nullptr);
  ResultSet ExecUpdate(const sql::Statement& stmt, Session* session,
                       ExecContext& ctx, Relation* evaluated_from = nullptr);
  ResultSet ExecDelete(const sql::Statement& stmt, Session* session);
  ResultSet ExecTransaction(const sql::Statement& stmt, Session* session);

  void CheckDialect(const sql::Statement& stmt) const;
  void BackupForTransaction(Session* session, Table& table);

  // --- governor hot path -------------------------------------------------
  // GovTick compiles to a decrement and a predictable branch; GovSync and
  // GovFlush are the cold slow paths. GovCharge accumulates locally and
  // flushes every kChargeFlushBytes so the atomic tracker chain stays off
  // the per-row path.
  static constexpr int64_t kChargeFlushBytes = 32 * 1024;
  void GovTick() {
    if (--gov_countdown_ <= 0) GovSync();
  }
  /// Batched form of GovTick: one countdown update covers `rows` rows, so
  /// the governor still syncs every `cancel_check_rows` rows — i.e. every
  /// ⌈cancel_check_rows / batch_size⌉ batches in the batch engine.
  void GovTickRows(int64_t rows) {
    gov_countdown_ -= rows;
    if (gov_countdown_ <= 0) GovSync();
  }
  void GovCharge(int64_t bytes) {
    pending_bytes_ += bytes;
    if (pending_bytes_ >= kChargeFlushBytes) GovFlush();
  }
  void GovSync();
  void GovFlush();
  void GovBeginStatement() noexcept;
  void GovEndStatement() noexcept;

  /// Recomputes the bind layer (lock set, view expansion) of a stale plan
  /// under `version`; the parsed AST is shared, never re-parsed.
  std::shared_ptr<const CachedPlan> Rebind(const CachedPlan& stale,
                                           uint64_t version);

  Database& db_;
  // Connection-local plan map (L1 in front of the shared PlanCache),
  // keyed by raw statement text. Ad-hoc statements a connection repeats
  // (termination probes, service jobs' loop statements) are served from
  // here without touching the shared cache mutex. Capped: a long-lived
  // connection also runs one-off text — every job's setup DDL names its
  // own partition tables — which would otherwise grow it without bound.
  static constexpr size_t kLocalPlanCapacity = 256;
  std::unordered_map<std::string, std::shared_ptr<const CachedPlan>>
      local_plans_;
  // Keys this connection has compiled exactly once. Ad-hoc text only
  // enters the shared cache on its second compile, so single-use
  // statements never evict the pinned round-loop texts from the shared
  // LRU: a parallel job's setup runs a few hundred distinct DDL/DML texts
  // (more than the LRU holds alongside the task texts), and promoting
  // them on first sight doubled sssp-async's parses per job.
  std::unordered_set<std::string> first_misses_;
  bool last_prepare_parsed_ = false;
  // Scan-volume accounting for the statement currently executing (each
  // connection owns its Executor, so no synchronization is needed).
  size_t rows_examined_ = 0;
  EngineCounters counters_;
  // Scratch buffer for index probes, reused across probes and statements
  // so the steady-state batch engine allocates nothing per probe.
  std::vector<size_t> probe_ids_;
  // PruneRangeCores scratch: the lock mask it returns and a core's
  // conjuncts, reused across statements.
  std::vector<uint8_t> lock_needed_;
  std::vector<const sql::Expr*> conjunct_scratch_;
  // Batch-pipeline scratch (lanes, aggregate-feed buffers, per-lane
  // fallback bytemap), reused across batches and statements so the
  // steady-state batch engine allocates nothing per batch. Only one
  // producer fills batch_ at a time: a join's inputs are scanned before
  // it emits, and the reference relation is built before it is fed.
  RowBatch batch_;
  ColumnVector gather_;
  std::vector<uint8_t> lane_pass_;
  // Last-seen cumulative buffer-pool counters, so each statement flushes
  // its delta to telemetry (the pool's counters are pool-lifetime).
  struct PoolCounters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t pages_evicted = 0;
    uint64_t bytes_spilled = 0;
  };
  PoolCounters pool_last_;
  telemetry::Recorder* recorder_ = nullptr;
  // Governor state (see the public resource-governance section).
  const CancelToken* cancel_ = nullptr;
  MemoryTracker* memory_ = nullptr;
  int64_t check_rows_ = kDefaultCancelCheckRows;
  int64_t gov_countdown_ = kDefaultCancelCheckRows;
  int64_t pending_bytes_ = 0;    // charged locally, not yet in the tracker
  int64_t statement_bytes_ = 0;  // flushed total, released at statement end
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace sqloop::minidb
