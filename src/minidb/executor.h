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

// Push-pipeline callback types. Sinks and sources are lambdas passed down
// the call stack (FunctionRef is non-owning).
using RowSink = FunctionRef<void(const Row&)>;   // consumes borrowed rows
using OwnedRowSink = FunctionRef<void(Row&&)>;   // may take ownership
using RowSource = FunctionRef<void(const RowSink&)>;  // pushes rows once

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

class Executor {
 public:
  explicit Executor(Database& db) : db_(db) {}

  /// Executes one parsed statement. `session` carries transaction state
  /// and may be null for autocommit execution.
  ResultSet Execute(const sql::Statement& stmt, Session* session = nullptr);

  /// Executes a statement with a precomputed lock plan (from Prepare or a
  /// cached plan), skipping the per-statement table-collection walk.
  ResultSet ExecuteWithPlan(const sql::Statement& stmt, const LockPlan& plan,
                            Session* session = nullptr);

  /// Same, additionally supplying the cached per-core access paths so the
  /// fused pipeline skips its scan/index-probe analysis. `access` may be
  /// null (ad-hoc execution); cached paths are re-validated against the
  /// live catalog before use.
  ResultSet ExecuteWithPlan(const sql::Statement& stmt, const LockPlan& plan,
                            const AccessPlan* access, Session* session);

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

  /// Computes the per-core access paths (single-base-table detection and
  /// index-probe choice) for a statement under the current catalog. Cached
  /// alongside the lock plan; rebuilt on every re-bind.
  AccessPlan BuildAccessPlan(const sql::Statement& stmt) const;

  /// Scan/materialization accounting for the most recent statement this
  /// executor ran (reset per statement; also flushed to the recorder as
  /// `minidb.*` counters).
  struct EngineCounters {
    size_t rows_materialized = 0;  // rows deep-copied into intermediates
    size_t rows_borrowed = 0;      // rows served zero-copy from storage
    size_t index_scans = 0;        // scans narrowed by an index probe
    size_t full_scans = 0;         // scans that visited every live row
    size_t pushed_predicates = 0;  // WHERE conjuncts evaluated during scans
    size_t fused_cores = 0;        // SELECT cores run on the fused path
    size_t batches_produced = 0;   // RowBatches emitted by batched scans
    size_t vectorized_cores = 0;   // SELECT cores run on the batch plane
    size_t scalar_fallbacks = 0;   // conjuncts/aggregates/projection slots
                                   // evaluated per-lane instead of kernelized
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
    // Cores FindEmptyCores proved empty before the locks were taken:
    // answered without a scan, their tables never locked.
    std::unordered_set<const sql::SelectCore*> empty_cores;
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
  // Operator outputs (ProjectCore/AggregateCore) are always owned
  // relations; scans and CTE bindings flow through as borrowed row views
  // when the fused pipeline is enabled (see Relation).
  ResultSet EvalSelect(const sql::SelectStmt& stmt, ExecContext& ctx,
                       const std::vector<CoreAccessPath>* paths = nullptr);
  Relation EvalCore(const sql::SelectCore& core, ExecContext& ctx,
                    const std::vector<sql::OrderItem>* order_by = nullptr,
                    std::vector<Row>* sort_keys = nullptr,
                    const CoreAccessPath* path = nullptr);
  /// The materializing pipeline (pre-fusion behavior, kept verbatim): the
  /// fallback for shapes the fused path declines, and the whole pipeline
  /// when fusion is disabled. Error reporting for missing relations and
  /// unresolvable columns lives here.
  Relation EvalCoreReference(const sql::SelectCore& core, ExecContext& ctx,
                             bool aggregate_mode,
                             const std::vector<sql::OrderItem>* order_by,
                             std::vector<Row>* sort_keys);
  /// Fused path for cores whose FROM is a base table or a join tree:
  /// predicates push into the scans, and rows stream from scan/join
  /// straight into projection or aggregation with no intermediate
  /// Relation. Returns false (leaving `out` untouched) for shapes it does
  /// not cover — the caller falls back to the reference materializing
  /// path, which also owns error reporting for missing relations.
  bool TryFusedCore(const sql::SelectCore& core, ExecContext& ctx,
                    bool aggregate_mode,
                    const std::vector<sql::OrderItem>* order_by,
                    std::vector<Row>* sort_keys, const CoreAccessPath* path,
                    Relation* out);
  /// Vectorized counterpart to TryFusedCore for single-base-table cores:
  /// batched scans, compiled predicate kernels that shrink the selection
  /// vector, and typed aggregate reductions (see minidb/batch.h). Returns
  /// false (leaving `out` untouched) for shapes it does not cover, or when
  /// mixing batch-wise kernels with throw-capable per-lane work could
  /// surface a different first error than the row path — the caller falls
  /// through to the row-at-a-time fused path.
  /// True for a single-table, non-aggregate core whose WHERE bounds a
  /// column to an empty literal range (`c > 5 AND c <= 5`) and whose
  /// conjuncts are all total: it returns no rows, whatever its table holds.
  bool IsEmptyRangeCore(const sql::SelectCore& core,
                        const ExecContext& ctx) const;
  /// Collects every such core of `select`, nested FROM subqueries
  /// included, into ctx.empty_cores. A phased read (LockPlan::phased) runs
  /// it before locking, so a Gather's idle outbox arms neither scan nor
  /// lock their outboxes.
  void FindEmptyCores(const sql::SelectStmt& select, ExecContext& ctx) const;
  bool TryVectorizedCore(const sql::SelectCore& core, ExecContext& ctx,
                         bool aggregate_mode,
                         const std::vector<sql::OrderItem>* order_by,
                         std::vector<Row>* sort_keys,
                         const CoreAccessPath* path, Relation* out);
  /// Batched counterpart to ScanPush: identical visiting order, counters,
  /// rows_examined accounting, and governance cadence (GovTickRows per
  /// batch), pushing filtered RowBatches into `sink`. `kernels[i]` applies
  /// when `compiled[i]` is set; other conjuncts are evaluated per lane,
  /// row-major, over every visited lane — reproducing the row path's
  /// evaluation count and first error exactly.
  void ScanBatched(const Table& table,
                   const std::vector<ColumnBinding>& columns,
                   const std::vector<const sql::Expr*>& pushed,
                   const std::vector<PredicateKernel>& kernels,
                   const std::vector<uint8_t>& compiled, int probe_conjunct,
                   const std::string& probe_column, const BatchSink& sink);
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
  /// Streams `table`'s live rows matching all of `pushed` into `sink`
  /// without copying. `probe_conjunct` >= 0 selects pushed[probe_conjunct]
  /// as an equality index probe on `probe_column` (visiting only matching
  /// rows, in scan order); the probe conjunct is still re-evaluated like
  /// any other pushed predicate, preserving SQL `=` semantics.
  void ScanPush(const Table& table, const std::vector<ColumnBinding>& columns,
                const std::vector<const sql::Expr*>& pushed,
                int probe_conjunct, const std::string& probe_column,
                const RowSink& sink);
  /// Borrowed-relation form of ScanPush (join inputs): the matching rows'
  /// views, with an index probe chosen from `pushed` when available.
  Relation ScanFiltered(const Table& table, const std::string& alias,
                        const std::vector<const sql::Expr*>& pushed);
  /// Per-core access analysis shared by BuildAccessPlan (bind time) and
  /// the fused path (runtime, when no cached path applies).
  CoreAccessPath AnalyzeCore(const sql::SelectCore& core,
                             const std::unordered_set<std::string>& ctes)
      const;
  /// Collects the full FROM-tree output bindings without evaluating
  /// anything; returns false when they cannot be precomputed (views,
  /// subqueries), which disables join predicate pushdown for the core.
  bool TryCollectTreeBindings(const sql::TableRef& ref, ExecContext& ctx,
                              std::vector<ColumnBinding>& out) const;
  Relation ProjectCore(const sql::SelectCore& core,
                       const std::vector<ColumnBinding>& input_columns,
                       const RowSource& input,
                       const std::vector<sql::OrderItem>* order_by,
                       std::vector<Row>* sort_keys);
  Relation AggregateCore(const sql::SelectCore& core,
                         const std::vector<ColumnBinding>& input_columns,
                         const RowSource& input,
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
  /// ⌈cancel_check_rows / batch_size⌉ batches on the vectorized path.
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
  // Access paths of the statement currently executing (null for ad-hoc
  // execution); set by ExecuteWithPlan, read by the SELECT pipeline.
  const AccessPlan* access_ = nullptr;
  // Scratch buffer for index probes, reused across probes and statements
  // so the steady-state fused path allocates nothing per probe.
  std::vector<size_t> probe_ids_;
  // Batch-pipeline scratch (lanes, aggregate-feed buffers, per-lane
  // fallback bytemap), reused across batches and statements so the
  // steady-state vectorized path allocates nothing per batch.
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
