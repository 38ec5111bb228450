// Error types shared across all SQLoop modules.
//
// The library reports failures with exceptions (RAII everywhere makes this
// safe); each subsystem throws a subclass of `sqloop::Error` so callers can
// distinguish user mistakes (bad SQL) from engine-side faults.
//
// The hierarchy also encodes the resilience layer's transient-vs-fatal
// classification: everything under `TransientError` is retryable (the
// statement or connection attempt can be repeated without changing the
// query's result), everything else is fatal and aborts the run immediately.
// `IsTransientError` is the single classification point the retry machinery
// uses; tests/common/error_test.cpp pins the full table.
#pragma once

#include <stdexcept>
#include <string>

namespace sqloop {

/// Root of the SQLoop exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& message) : std::runtime_error(message) {}
};

/// The submitted SQL text could not be tokenized or parsed. Fatal.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& message)
      : Error("parse error: " + message) {}
};

/// The statement parsed but refers to unknown tables/columns, has a type
/// mismatch, or violates a semantic rule (e.g. aggregate misuse). Fatal.
class AnalysisError : public Error {
 public:
  explicit AnalysisError(const std::string& message)
      : Error("analysis error: " + message) {}
};

/// A fault raised while executing a statement inside the database engine.
/// Fatal: the engine deterministically rejects the statement, so retrying
/// it can never succeed.
class ExecutionError : public Error {
 public:
  explicit ExecutionError(const std::string& message)
      : Error("execution error: " + message) {}
};

/// Configuration-level connectivity fault: bad URL, unknown host or
/// database, engine-profile mismatch, use of a closed connection. Fatal —
/// reconnecting with the same configuration would fail the same way.
class ConnectionError : public Error {
 public:
  explicit ConnectionError(const std::string& message)
      : Error("connection error: " + message) {}
};

/// Misuse of a SQLoop API (precondition violation by the caller). Fatal.
class UsageError : public Error {
 public:
  explicit UsageError(const std::string& message)
      : Error("usage error: " + message) {}
};

/// A fault that is expected to clear on its own: the statement never
/// reached the engine, so re-issuing it (possibly on a fresh connection)
/// is safe and produces the same result as an undisturbed run.
class TransientError : public Error {
 public:
  explicit TransientError(const std::string& message)
      : Error("transient error: " + message) {}

 protected:
  /// Subclasses carry their own prefix instead of stacking "transient
  /// error:" in front of it.
  struct Raw {};
  TransientError(Raw, const std::string& message) : Error(message) {}
};

/// A statement (or connection attempt) exceeded its deadline before the
/// engine applied it. Transient: the work never happened, retry is safe.
class TimeoutError : public TransientError {
 public:
  explicit TimeoutError(const std::string& message)
      : TransientError(Raw{}, "timeout: " + message) {}
};

/// The connection to the engine dropped (or an open attempt was refused)
/// before the in-flight statement was applied. Transient: reopen and retry.
class ConnectionLostError : public TransientError {
 public:
  explicit ConnectionLostError(const std::string& message)
      : TransientError(Raw{}, "connection lost: " + message) {}
};

/// An injected whole-process crash (fault_kill_at_round): the job dies at a
/// round boundary exactly as if the driver process were killed. Fatal — the
/// run aborts; a later run with `resume` picks up from the newest valid
/// checkpoint.
class JobKilledError : public Error {
 public:
  explicit JobKilledError(const std::string& message)
      : Error("job killed: " + message) {}
};

/// The job was cancelled through its JobHandle (service API) — while
/// queued, at a round border, or mid-statement (the engine checks the
/// job's CancelToken every `cancel_check_rows` rows inside scans and
/// joins). Fatal — the run stops and its scratch state is cleaned up;
/// checkpoints (if any) survive, so a resubmission with `resume`
/// continues under the same job identity.
class JobCancelledError : public Error {
 public:
  explicit JobCancelledError(const std::string& message)
      : Error("job cancelled: " + message) {}
};

/// A memory budget was exceeded: the job's, its tenant's, or the server's
/// (the hard-watermark victim kill reports through this type too). Fatal —
/// re-running the same statement would allocate the same bytes and fail
/// the same way, so the offending job aborts at a clean statement boundary
/// while every other job keeps running.
class QuotaExceededError : public Error {
 public:
  explicit QuotaExceededError(const std::string& message)
      : Error("quota exceeded: " + message) {}
};

/// Stored or in-memory state failed verification: a dump/manifest CRC
/// mismatch, a table content-checksum mismatch found by `CHECK TABLE` or
/// the background scrub, or an access to a quarantined table. Fatal —
/// retrying the statement would re-read the same corrupt bytes. The repair
/// ladder in core/execute.cpp catches this type specifically and restarts
/// the job from the newest valid checkpoint instead of returning a wrong
/// answer; with repair disabled it surfaces to the caller unchanged.
class IntegrityError : public Error {
 public:
  explicit IntegrityError(const std::string& message)
      : Error("integrity violation: " + message) {}
};

/// An injected crash point fired inside the durability I/O shim
/// (fault_crash_at_write / _fsync / _rename): the process "dies" mid-write
/// exactly as a power loss would, leaving whatever torn bytes the crash
/// plan dictates on disk. Fatal — the run aborts; a later run with
/// `resume` recovers from the newest valid checkpoint.
class CrashPointError : public Error {
 public:
  explicit CrashPointError(const std::string& message)
      : Error("crash point: " + message) {}
};

/// The transient-vs-fatal classification table, in one place:
///   transient — TransientError, TimeoutError, ConnectionLostError
///   fatal     — ParseError, AnalysisError, ExecutionError,
///               ConnectionError, UsageError, JobKilledError,
///               JobCancelledError, QuotaExceededError,
///               IntegrityError, CrashPointError, plain Error,
///               anything else
inline bool IsTransientError(const std::exception& error) noexcept {
  return dynamic_cast<const TransientError*>(&error) != nullptr;
}

}  // namespace sqloop
