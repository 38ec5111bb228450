// Iteration-level checkpointing and crash recovery (DESIGN.md
// "Checkpointing & recovery").
//
// At a configurable round cadence the runners persist a *consistent job
// manifest*: the CTE state (whole table, or every partition table plus the
// message outboxes and their seq watermarks), the iteration number, the
// scheduler state AsyncP needs for bit-identical tie-breaking, and a
// content hash over all dump files. Table payloads go through the minidb DUMP TABLE
// fast path (tmp + atomic rename + CRC footer, see minidb/dump.h); the
// manifest itself is a CRC-sealed text file written the same way. A crash
// can therefore only ever leave (a) no new checkpoint, or (b) a complete,
// self-validating one — never a torn one under a committed name.
//
// Recovery scans the job's checkpoint directory newest-first and resumes
// from the first checkpoint that fully validates (manifest CRC, every dump
// CRC, content hash); corrupt or torn candidates are skipped, falling back
// to the previous checkpoint and ultimately to a fresh run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/options.h"

namespace sqloop::core {

/// Everything a checkpoint captured. File members hold paths relative to
/// the checkpoint directory on disk; RecoveryManager returns them resolved
/// to absolute-usable paths.
struct CheckpointManifest {
  int64_t round = 0;         // completed rounds at capture time
  std::string mode;          // ExecutionModeName, sanity-checked on resume
  int64_t partitions = 0;    // 0 for the single-thread runner

  // Single-thread runner: the CTE table dump.
  std::string table_file;

  // Parallel runner: one dump per partition table and one per message
  // outbox, index == partition id.
  std::vector<std::string> partition_files;
  std::vector<std::string> outbox_files;

  /// The message registry: per source, the highest published seq; per
  /// (target, source) pair — flattened [target * P + source] — the highest
  /// seq the target consumed and the highest seq addressed to it.
  std::vector<uint64_t> published;
  std::vector<uint64_t> watermarks;
  std::vector<uint64_t> addressed;

  // AsyncP scheduler state, needed for bit-identical dispatch tie-breaking.
  uint64_t dispatch_seq = 0;
  std::vector<uint64_t> last_dispatch;
  /// Per-partition priority, encoded tri-state: 'u' = never measured,
  /// 'n' = measured as "no work", otherwise the double's raw bits.
  std::vector<std::optional<double>> priorities;
  std::vector<char> priority_known;

  /// FNV-1a over the CRC footers of every dump file, in manifest order.
  /// Catches a valid dump swapped in from a *different* checkpoint.
  uint64_t content_hash = 0;
};

/// Writes checkpoints for one job. Layout:
///   <dir>/<job_id>/ckpt_<round>/{manifest, *.dump}
class CheckpointManager {
 public:
  /// `dir` empty means "sqloop_ckpt". `job_id` namespaces concurrent jobs;
  /// use JobId() so reruns of the same query find their own checkpoints.
  /// `keep` is the retention depth (`checkpoint_keep`): how many of the
  /// newest sealed checkpoints survive pruning (0 = the default of 2).
  /// `verify` re-reads and re-validates every committed checkpoint from
  /// disk immediately after sealing (`verify_checkpoints`).
  CheckpointManager(std::string dir, std::string job_id, int64_t keep = 0,
                    bool verify = false);

  /// Stable identity of a job: hash of the checkpoint layout version and
  /// the rendered query + mode + partition count. Two runs of the same job
  /// map to the same id — which is exactly what lets `resume` find the
  /// first run's checkpoints — while checkpoints written in an older
  /// layout are never even looked at.
  static std::string JobId(const std::string& identity);

  /// Creates (emptying any torn leftover) the staging directory for round
  /// N's checkpoint and returns its path.
  std::string BeginRound(int64_t round);

  /// Absolute path for a dump file inside round N's checkpoint directory.
  std::string FileFor(int64_t round, const std::string& stem) const;

  /// Seals the checkpoint: computes the content hash from the dump files
  /// on disk, writes the CRC-sealed manifest atomically, then prunes all
  /// but the `keep` newest sealed checkpoints (older ones are kept as
  /// fallbacks for a torn/corrupt newest). With `verify` on, the sealed
  /// checkpoint is read back and fully re-validated before returning.
  void Commit(CheckpointManifest manifest);

  /// Checkpoints that passed the post-commit read-back (verify mode only).
  uint64_t verified_count() const noexcept { return verified_; }

  /// Dump reuse for unchanged tables: when `checksum` (the table's
  /// maintained content checksum, probed with CHECKSUM TABLE — O(1))
  /// matches what the previous committed round sealed for `stem`, the
  /// sealed dump's bytes are republished into round N's staging directory
  /// through the durability shim — same file, same crash-point ordinals as
  /// a fresh dump, but no O(table) re-serialization. Returns true when the
  /// reuse happened and the fresh DUMP TABLE can be skipped; false (cache
  /// miss, checksum change, or unreadable previous file) means dump as
  /// usual. Callers must RecordDumpChecksum() after a fresh dump either
  /// way.
  bool TryReuseDump(int64_t round, const std::string& stem,
                    const std::string& checksum);

  /// Records `checksum` as what round N sealed for `stem`, arming reuse
  /// for the next round. Call after the dump statement succeeds (before or
  /// after Commit — a failed Commit aborts the job, so staleness cannot
  /// leak into a later round).
  void RecordDumpChecksum(int64_t round, const std::string& stem,
                          const std::string& checksum);

  const std::string& job_root() const noexcept { return root_; }

 private:
  std::string RoundDir(int64_t round) const;

  std::string root_;  // <dir>/<job_id>
  int64_t keep_;
  bool verify_;
  uint64_t verified_ = 0;

  struct SealedDump {
    int64_t round = 0;     // round whose directory holds the bytes
    std::string checksum;  // CHECKSUM TABLE text at seal time
  };
  std::unordered_map<std::string, SealedDump> sealed_;  // keyed by stem
};

/// Finds the newest fully-valid checkpoint of a job.
class RecoveryManager {
 public:
  RecoveryManager(std::string dir, std::string job_id);

  /// Scans newest-first; returns the first checkpoint whose manifest and
  /// every referenced dump validate (CRCs + content hash), with file paths
  /// resolved against the checkpoint directory. nullopt = start fresh.
  /// Never throws: any unreadable candidate is skipped.
  std::optional<CheckpointManifest> FindLatestValid() const;

  const std::string& job_root() const noexcept { return root_; }

 private:
  std::string root_;
};

/// Shared by both runners: the directory that `checkpoint_dir` resolves to.
std::string ResolveCheckpointDir(const SqloopOptions& options);

}  // namespace sqloop::core
