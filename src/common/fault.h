// Deterministic fault injection for resilience testing.
//
// A FaultInjector decides, from a seeded PRNG and per-kind trigger counters,
// whether an operation should fail and how. The dbc layer consults it at two
// well-defined points:
//
//   * connection open / reopen  -> ShouldFailConnect()
//   * statement (or whole batch) submission -> NextStatementFault()
//
// Faults fire BEFORE the engine sees the statement — the injected failure is
// client-visible but the server state is untouched, which is exactly the
// failure model the resilience layer assumes when it retries a statement
// (see DESIGN.md "Failure model & resilience").
//
// Determinism: one injector holds one PRNG stream behind a mutex. All
// connections configured with the same fault parameters share one injector
// (DriverManager keys them by host + fault config), so a fixed seed yields
// the same fault schedule run-to-run as long as the *order* of draws is
// fixed — true for single-thread and for tests that pin worker counts.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/rng.h"

namespace sqloop {

/// What a statement-level injection decision came out as.
enum class FaultKind {
  kNone,       // proceed normally
  kDrop,       // connection drops before the statement is applied
  kTransient,  // engine reports a transient fault; connection stays up
  kSlow,       // statement is delayed by FaultConfig::slow_us
  kLostReply,  // statement applied, then the connection drops before the
               // reply arrives (only retry-safe prepared statements)
};

const char* FaultKindName(FaultKind kind) noexcept;

/// Probabilities / trigger counts for each fault kind. Rates are per
/// decision point in [0, 1]; `*_every` fires deterministically on every
/// N-th decision (0 = disabled) and takes precedence over the rate draw.
struct FaultConfig {
  uint64_t seed = 42;

  double connect_failure_rate = 0.0;  // per Open/Reopen
  uint64_t connect_every = 0;

  double drop_rate = 0.0;  // per statement/batch: connection drop
  uint64_t drop_every = 0;

  double transient_rate = 0.0;  // per statement/batch: transient error
  uint64_t transient_every = 0;

  double slow_rate = 0.0;  // per statement/batch: artificial slowness
  uint64_t slow_every = 0;
  int64_t slow_us = 1000;  // how slow a kSlow statement is

  /// Every N-th execution of a retry-safe prepared statement (see
  /// dbc::PreparedStatement::set_retry_safe) applies and then loses its
  /// reply: the connection drops after the engine ran the statement. The
  /// only fault that strikes after the engine; 0 = disabled.
  uint64_t lost_reply_every = 0;

  /// Total injected faults across all kinds; -1 = unlimited. Lets a test
  /// inject "the first 3 faults" and then run clean.
  int64_t max_faults = -1;

  /// Abort the whole job at the start of round N (0 = disabled) by making
  /// the runner throw JobKilledError — a deterministic stand-in for a
  /// process crash, used to test checkpoint recovery. Fires ONCE per
  /// injector, so a resumed run against the same URL does not die again.
  /// Not a statement fault: it does not count against max_faults and is
  /// not part of any().
  int64_t kill_at_round = 0;

  /// True when any fault can ever fire.
  bool any() const noexcept {
    return connect_failure_rate > 0 || connect_every > 0 || drop_rate > 0 ||
           drop_every > 0 || transient_rate > 0 || transient_every > 0 ||
           slow_rate > 0 || slow_every > 0 || lost_reply_every > 0;
  }
};

/// Thread-safe, seeded fault decision source. Shared by every connection
/// carved from the same fault-configured URL.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config);

  /// Decision for a connection Open/Reopen attempt.
  bool ShouldFailConnect();

  /// Decision for one statement (or one whole batch — the batch is a
  /// single client-visible submission). Precedence: drop > transient >
  /// slow, so a single draw sequence stays deterministic.
  FaultKind NextStatementFault();

  /// Decision after a retry-safe statement applied: true = drop the
  /// connection before the reply. Counted separately from statement
  /// decisions, so enabling it never shifts the other kinds' schedule.
  bool ShouldLoseReply();

  /// Latched kill-at-round trigger: true exactly once, on the first call
  /// with round >= kill_at_round (and kill_at_round > 0). The latch makes
  /// a resumed run that shares this injector (same URL) survive rounds past
  /// the kill point.
  bool ShouldKillAtRound(int64_t round);

  const FaultConfig& config() const noexcept { return config_; }
  int64_t slow_us() const noexcept { return config_.slow_us; }

  // --- observability (tests, \faults shell command) --------------------
  uint64_t injected_total() const;
  uint64_t injected(FaultKind kind) const;
  uint64_t injected_connect_failures() const;
  uint64_t decisions() const;

 private:
  /// One per-kind trigger check; assumes lock is held.
  bool FireLocked(double rate, uint64_t every, uint64_t counter);
  bool BudgetLeftLocked() const noexcept;

  const FaultConfig config_;
  mutable std::mutex mutex_;
  Rng rng_;
  uint64_t connect_decisions_ = 0;
  uint64_t statement_decisions_ = 0;
  uint64_t reply_decisions_ = 0;
  uint64_t injected_connect_ = 0;
  uint64_t injected_drop_ = 0;
  uint64_t injected_transient_ = 0;
  uint64_t injected_slow_ = 0;
  uint64_t injected_lost_reply_ = 0;
  bool kill_fired_ = false;
};

}  // namespace sqloop
