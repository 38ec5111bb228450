// dbc — the repo's JDBC stand-in (paper §IV-A).
//
// SQLoop talks to engines exclusively through this layer: URL-based
// connection establishment, statements, batching, transactions, and
// isolation levels. A configurable synthetic round-trip latency models the
// client/server hop that JDBC drivers pay over TCP; SQLoop's batching and
// connection-per-worker design only show their value because this cost
// exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/fault.h"
#include "common/fault_file.h"
#include "minidb/server.h"

namespace sqloop::dbc {

/// Parsed form of a connection URL:
///   minidb://<host>[:port]/<database>[?latency_us=N][&engine=<name>]
///       [&connect_timeout_ms=N][&fault_*=...]
/// Duplicate query parameters are rejected (ConnectionError) — silently
/// letting the last one win hid misconfigured benchmark URLs.
struct ConnectionConfig {
  std::string host = "localhost";
  int port = 5432;
  std::string database;
  /// Simulated one-way-and-back cost of a statement round trip, paid once
  /// per Execute* call (a whole batch pays it once).
  int64_t latency_us = 100;
  /// Simulated server-side processing cost per row examined. Models the
  /// paper's 32-core testbed on small machines: every connection's
  /// statements cost time proportional to the data they scan, and those
  /// costs overlap across connections exactly as they would on a server
  /// with ample cores (see DESIGN.md "Substitutions"). 0 disables.
  int64_t row_cost_ns = 0;
  /// Simulated server-side parse+plan cost per compiled statement. Paid
  /// only when the engine actually compiles text (cache miss, ablation);
  /// plan-cached and prepared executions skip it, exactly like a
  /// server-side PREPARE. Models a real engine's optimizer, which the
  /// embedded parser radically undercosts (see DESIGN.md
  /// "Substitutions"). 0 (the default) disables.
  int64_t compile_us = 0;
  /// Optional engine assertion: if non-empty, connecting fails unless the
  /// target database actually runs this engine profile.
  std::string expected_engine;
  /// Deadline for the connection handshake; 0 disables. The handshake pays
  /// one round trip, so a latency_us that cannot meet the deadline fails
  /// the open with TimeoutError.
  int64_t connect_timeout_ms = 0;
  /// Fault-injection parameters (fault_seed, fault_drop_rate,
  /// fault_transient_rate, fault_slow_rate, fault_slow_us,
  /// fault_connect_rate, fault_*_every, fault_max, fault_kill_at_round).
  /// All connections opened with the same host/database/fault configuration
  /// share one seeded FaultInjector so the fault schedule is deterministic.
  /// Contradictory combinations (fault_max=0 alongside configured triggers;
  /// fault_slow_us with no slow trigger) are rejected at parse time.
  FaultConfig fault;
  bool has_fault = false;

  /// Durability-shim crash plan (`fault_crash_at_write=N`,
  /// `fault_crash_at_fsync=N`, `fault_crash_at_rename=N`,
  /// `fault_torn_writes=1`, `fault_flip_bit=1`; the crash seed follows
  /// `fault_seed`). Installed process-wide on connect — every dump and
  /// manifest publish counts against it. Torn/flip modifiers without any
  /// crash point are rejected at parse time.
  CrashPlan crash;
  bool has_crash = false;

  /// Checkpoint defaults carried by the URL (`checkpoint_every=N`,
  /// `checkpoint_dir=<path>`): adopted by SqLoop when the per-call
  /// SqloopOptions leave them unset. 0 / empty = no URL default.
  int64_t checkpoint_every = 0;
  std::string checkpoint_dir;
  /// Checkpoint retention depth (`checkpoint_keep=N`, N >= 1); 0 = no URL
  /// default (SqLoop falls back to keeping 2).
  int64_t checkpoint_keep = 0;
  /// Post-commit checkpoint read-back (`verify_checkpoints=1`).
  bool verify_checkpoints = false;
  /// Scrub cadence default (`scrub_every=N` rounds); 0 = no URL default.
  int64_t scrub_every = 0;

  /// Memory budget for this connection's transient working sets
  /// (`memory_limit_bytes=N`): a statement whose materialized rows, join
  /// builds, or GROUP BY state would exceed it fails with
  /// QuotaExceededError at the next charge flush. Must be positive when
  /// given (a zero-byte budget could never run anything); 0 = unlimited.
  int64_t memory_limit_bytes = 0;
  /// Rows between the engine's mid-statement governor checks
  /// (`cancel_check_rows=N`): smaller values tighten cancellation and
  /// deadline latency inside scans and joins at slightly higher overhead.
  /// Must be positive when given; 0 = engine default (1024).
  int64_t cancel_check_rows = 0;

  /// Buffer-pool budget for the target database (`buffer_pool_bytes=N`):
  /// caps the bytes of table pages held resident; pages beyond the budget
  /// spill to per-table scratch files and fault back in on access. Must be
  /// positive when given; 0 = unbounded (pages never spill).
  int64_t buffer_pool_bytes = 0;

  static ConnectionConfig Parse(const std::string& url);
};

class Connection;

/// Entry point mirroring java.sql.DriverManager. Hosts map to Server
/// instances; "localhost" is pre-registered to Server::Default().
class DriverManager {
 public:
  /// Opens a connection, or throws ConnectionError (unknown host/database,
  /// engine mismatch, malformed URL).
  static std::unique_ptr<Connection> GetConnection(const std::string& url);

  /// Makes `server` reachable as minidb://<host>/... (used to model
  /// multiple remote database machines). Passing nullptr unregisters.
  static void RegisterHost(const std::string& host, minidb::Server* server);

  /// The server a host name resolves to, or nullptr. Lets callers (e.g.
  /// the shell's \faults command) reach the Server behind a URL to attach
  /// a fault injector to a live deployment.
  static minidb::Server* FindHost(const std::string& host);
};

}  // namespace sqloop::dbc
