// sqloop_shell — an interactive psql-style client for SQLoop.
//
// Usage:
//   ./build/examples/sqloop_shell [url]
//   echo "SELECT 1;" | ./build/examples/sqloop_shell
//   ./build/examples/sqloop_shell -c "WITH ITERATIVE ...; SELECT ..."
//
// Without a URL it stands up a local postgres-profile database named
// "shell". Statements end with ';'. Meta commands start with '\':
//   \help                       this text
//   \q                          quit
//   \mode single|sync|async|asyncp   execution mode for iterative CTEs
//   \threads N                  worker threads
//   \partitions N               hash partitions
//   \priority <sql> | off       AsyncP priority query ($PARTITION token)
//   \asc | \desc                priority ordering
//   \timing on|off              print wall-clock per statement
//   \trace on|off               live per-round trace while a query runs
//   \stats                      statistics of the last iterative run
//                               (including the per-round telemetry table
//                               and the resilience counters)
//   \jobs                       the embedded job server's ledger: every
//                               statement this shell ran, with state,
//                               rounds, and wall time
//   \faults k=v ... | off       seeded fault injection on this shell's
//                               server: seed=N connect=R drop=R
//                               transient=R slow=R slow_us=N drop_every=N
//                               transient_every=N connect_every=N
//                               slow_every=N max=N kill_at=ROUND
//                               (R in [0,1]; kill_at aborts the job at
//                               round N, once — pair with \checkpoint)
//   \checkpoint [k=v ...]       iteration-level durability for iterative
//                               runs: every=N (0 = off) dir=PATH
//                               resume=on|off; bare \checkpoint shows the
//                               current settings, \checkpoint off resets
//                               them. A killed/crashed job rerun with
//                               resume=on continues from its newest valid
//                               checkpoint, bit-identically.
//   \tables                     list tables in the database
//   \scrub                      CHECK TABLE over every table: verify each
//                               table's maintained content checksum
//                               against a recomputation; corrupt tables
//                               are reported and quarantined
//   \load web N DEG SEED        generate+load a web graph into `edges`
//   \load ego C S P SEED        ... ego-net graph
//   \load host H P L SEED       ... host graph
#include <algorithm>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/fault.h"
#include "common/stopwatch.h"
#include "core/sqloop.h"
#include "dbc/driver.h"
#include "graph/generators.h"
#include "graph/loader.h"
#include "minidb/server.h"
#include "server/job_server.h"
#include "telemetry/exporters.h"

namespace {

using namespace sqloop;

constexpr size_t kMaxRowsShown = 40;

void PrintResult(const dbc::ResultSet& result) {
  if (result.columns.empty() && result.rows.empty()) {
    std::cout << "OK";
    if (result.affected_rows > 0) {
      std::cout << " (" << result.affected_rows << " rows affected)";
    }
    std::cout << "\n";
    return;
  }
  for (size_t c = 0; c < result.columns.size(); ++c) {
    if (c > 0) std::cout << " | ";
    std::cout << result.columns[c];
  }
  std::cout << "\n";
  const size_t shown = std::min(result.rows.size(), kMaxRowsShown);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < result.rows[r].size(); ++c) {
      if (c > 0) std::cout << " | ";
      std::cout << result.rows[r][c].ToString();
    }
    std::cout << "\n";
  }
  if (result.rows.size() > shown) {
    std::cout << "... (" << result.rows.size() - shown << " more rows)\n";
  }
  std::cout << "(" << result.rows.size() << " rows)\n";
}

void PrintStats(const core::RunStats& stats) {
  std::cout << "mode=" << core::ExecutionModeName(stats.mode_used)
            << " parallelized=" << (stats.parallelized ? "yes" : "no")
            << " iterations=" << stats.iterations
            << " updates=" << stats.total_updates
            << " compute_tasks=" << stats.compute_tasks
            << " gather_tasks=" << stats.gather_tasks
            << " messages=" << stats.message_tables
            << " skipped=" << stats.skipped_tasks << " time="
            << stats.seconds << "s\n";
  if (stats.retries + stats.reopened_connections + stats.timeouts +
          stats.degraded_rounds + stats.workers_retired >
      0) {
    std::cout << "resilience: retries=" << stats.retries
              << " reopened_connections=" << stats.reopened_connections
              << " timeouts=" << stats.timeouts
              << " degraded_rounds=" << stats.degraded_rounds
              << " workers_retired=" << stats.workers_retired
              << " partitions_rebalanced=" << stats.partitions_rebalanced
              << "\n";
  }
  if (stats.checkpoints_written > 0 || stats.resumed_from_round > 0) {
    std::cout << "durability: checkpoints_written=" << stats.checkpoints_written
              << " resumed_from_round=" << stats.resumed_from_round << "\n";
  }
  if (!stats.fallback_reason.empty()) {
    std::cout << "fallback: " << stats.fallback_reason << "\n";
  }
  if (stats.recorder) {
    const telemetry::Recorder& rec = *stats.recorder;
    const uint64_t parses = rec.counter("sql.parse_count");
    const uint64_t hits = rec.counter("minidb.plan_cache_hits");
    const uint64_t misses = rec.counter("minidb.plan_cache_misses");
    if (parses + hits + misses > 0) {
      std::cout << "prepare: handles=" << rec.counter("dbc.prepared_statements")
                << " prepared_execs=" << rec.counter("dbc.prepared_executions")
                << " parses=" << parses << " cache_hits=" << hits
                << " cache_misses=" << misses
                << " rebinds=" << rec.counter("minidb.plan_rebinds");
      if (hits + misses > 0) {
        std::cout << " hit_rate="
                  << 100.0 * static_cast<double>(hits) /
                         static_cast<double>(hits + misses)
                  << "%";
      }
      std::cout << " prepare_time=" << rec.timer_seconds("dbc.prepare_seconds")
                << "s execute_time="
                << rec.timer_seconds("dbc.execute_seconds") << "s\n";
    }
    const uint64_t index_scans = rec.counter("minidb.index_scans");
    const uint64_t full_scans = rec.counter("minidb.full_scans");
    const uint64_t borrowed = rec.counter("minidb.rows_borrowed");
    const uint64_t materialized = rec.counter("minidb.rows_materialized");
    if (index_scans + full_scans + borrowed + materialized > 0) {
      std::cout << "engine: index_scans=" << index_scans
                << " full_scans=" << full_scans
                << " rows_borrowed=" << borrowed
                << " rows_materialized=" << materialized
                << " pushed_predicates="
                << rec.counter("minidb.pushed_predicates")
                << " fused_cores=" << rec.counter("minidb.fused_cores")
                << " vectorized_cores="
                << rec.counter("minidb.vectorized_cores")
                << " batches=" << rec.counter("minidb.batches_produced")
                << " scalar_fallbacks="
                << rec.counter("minidb.scalar_fallbacks")
                << "\n";
    }
    const uint64_t gov_peak = rec.counter("governance.job_bytes_peak");
    const uint64_t gov_cancels =
        rec.counter("governance.mid_statement_cancels");
    if (gov_peak + gov_cancels > 0) {
      std::cout << "governance: bytes_peak=" << gov_peak
                << " mid_statement_cancels=" << gov_cancels << "\n";
    }
    const uint64_t pool_hits = rec.counter("minidb.pool_hits");
    const uint64_t pool_misses = rec.counter("minidb.pool_misses");
    if (pool_hits + pool_misses > 0) {
      std::cout << "buffer pool: hits=" << pool_hits
                << " misses=" << pool_misses;
      if (pool_hits + pool_misses > 0) {
        std::cout << " hit_rate="
                  << 100.0 * static_cast<double>(pool_hits) /
                         static_cast<double>(pool_hits + pool_misses)
                  << "%";
      }
      std::cout << " pages_evicted=" << rec.counter("minidb.pages_evicted")
                << " bytes_spilled=" << rec.counter("minidb.bytes_spilled")
                << " dumps_reused=" << rec.counter("checkpoint.dumps_reused")
                << "\n";
    }
    std::cout << telemetry::Summary(rec);
  }
}

/// Streams round progress to the terminal while a query executes.
class TraceObserver : public core::ExecutionObserver {
 public:
  /// Lets the trace read the live run's recorder (the Recorder is
  /// thread-safe, so sampling counters mid-run is fine).
  void set_recorder_source(
      std::function<const telemetry::Recorder*()> source) {
    recorder_source_ = std::move(source);
  }

  void OnRoundStart(int64_t round) override {
    // A new run means a fresh recorder: restart the per-round deltas.
    if (round == 1) {
      prev_hits_ = 0;
      prev_misses_ = 0;
    }
  }

  void OnRoundEnd(const telemetry::IterationStats& round) override {
    std::cout << "  round " << round.round << ": updates=" << round.updates
              << " compute=" << round.compute_tasks << "/"
              << round.compute_seconds << "s gather=" << round.gather_tasks
              << "/" << round.gather_seconds << "s";
    if (round.partitions_skipped > 0) {
      std::cout << " skipped=" << round.partitions_skipped;
    }
    if (recorder_source_) {
      if (const telemetry::Recorder* rec = recorder_source_()) {
        const uint64_t hits = rec->counter("minidb.plan_cache_hits");
        const uint64_t misses = rec->counter("minidb.plan_cache_misses");
        const uint64_t round_hits = hits - prev_hits_;
        const uint64_t round_misses = misses - prev_misses_;
        prev_hits_ = hits;
        prev_misses_ = misses;
        if (round_hits + round_misses > 0) {
          std::cout << " plan_cache="
                    << 100.0 * static_cast<double>(round_hits) /
                           static_cast<double>(round_hits + round_misses)
                    << "%";
        }
      }
    }
    std::cout << " wall=" << round.seconds << "s\n";
  }
  void OnFallback(const std::string& reason) override {
    std::cout << "  fallback: " << reason << "\n";
  }
  void OnRetry(const core::RetryEvent& event) override {
    std::cout << "  retry " << event.what << " pt" << event.partition
              << " attempt=" << event.attempt << " backoff=" << event.backoff_ms
              << "ms: " << event.error << "\n";
  }
  void OnDegrade(const core::DegradeEvent& event) override {
    std::cout << "  degrade: " << event.reason
              << " (live workers: " << event.remaining_workers << ")\n";
  }

 private:
  std::function<const telemetry::Recorder*()> recorder_source_;
  uint64_t prev_hits_ = 0;
  uint64_t prev_misses_ = 0;
};

class Shell {
 public:
  explicit Shell(const std::string& url) : loop_(url) {
    options_.partitions = 16;
    options_.threads = 4;
    tracer_.set_recorder_source([this]() -> const telemetry::Recorder* {
      return loop_.last_run().recorder.get();
    });
  }

  /// Returns false when the shell should exit.
  bool HandleMeta(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    // The shell keeps its own options and passes them per call — the
    // SqLoop instance defaults are never mutated.
    auto& options = options_;
    if (cmd == "\\q" || cmd == "\\quit") return false;
    if (cmd == "\\help") {
      std::cout << "statements end with ';' — \\q quits; see the header "
                   "comment of sqloop_shell.cpp for all meta commands\n";
    } else if (cmd == "\\mode") {
      std::string mode;
      in >> mode;
      if (mode == "single") {
        options.mode = core::ExecutionMode::kSingleThread;
      } else if (mode == "sync") {
        options.mode = core::ExecutionMode::kSync;
      } else if (mode == "async") {
        options.mode = core::ExecutionMode::kAsync;
      } else if (mode == "asyncp") {
        options.mode = core::ExecutionMode::kAsyncPriority;
      } else {
        std::cout << "unknown mode '" << mode << "'\n";
        return true;
      }
      std::cout << "mode = " << core::ExecutionModeName(options.mode)
                << "\n";
    } else if (cmd == "\\threads") {
      in >> options.threads;
      std::cout << "threads = " << options.ResolveThreads() << "\n";
    } else if (cmd == "\\partitions") {
      in >> options.partitions;
      std::cout << "partitions = " << options.partitions << "\n";
    } else if (cmd == "\\priority") {
      std::string rest;
      std::getline(in, rest);
      while (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      if (rest == "off") {
        options.priority_query.clear();
        std::cout << "priority query cleared\n";
      } else {
        options.priority_query = rest;
        std::cout << "priority query set\n";
      }
    } else if (cmd == "\\asc") {
      options.priority_descending = false;
    } else if (cmd == "\\desc") {
      options.priority_descending = true;
    } else if (cmd == "\\timing") {
      std::string flag;
      in >> flag;
      timing_ = flag != "off";
      std::cout << "timing " << (timing_ ? "on" : "off") << "\n";
    } else if (cmd == "\\trace") {
      std::string flag;
      in >> flag;
      const bool on = flag != "off";
      loop_.set_observer(on ? &tracer_ : nullptr);
      std::cout << "trace " << (on ? "on" : "off") << "\n";
    } else if (cmd == "\\stats") {
      PrintStats(loop_.last_run());
    } else if (cmd == "\\jobs") {
      PrintJobs();
    } else if (cmd == "\\faults") {
      ConfigureFaults(in);
    } else if (cmd == "\\checkpoint") {
      ConfigureCheckpoint(in);
    } else if (cmd == "\\tables") {
      for (const auto& name : loop_.connection().database().TableNames()) {
        std::cout << name << "\n";
      }
    } else if (cmd == "\\scrub") {
      ScrubTables();
    } else if (cmd == "\\load") {
      LoadGraph(in);
    } else {
      std::cout << "unknown meta command '" << cmd << "' (try \\help)\n";
    }
    return true;
  }

  /// \jobs: the embedded job server's ledger — every statement this shell
  /// ran is a job on it, so the history doubles as a query log.
  void PrintJobs() {
    const auto jobs = loop_.job_server().Jobs();
    if (jobs.empty()) {
      std::cout << "no jobs yet\n";
      return;
    }
    for (const auto& job : jobs) {
      std::string sql = job.sql;
      std::replace(sql.begin(), sql.end(), '\n', ' ');
      if (sql.size() > 48) sql = sql.substr(0, 45) + "...";
      std::cout << "#" << job.seq << "  " << server::JobStateName(job.state)
                << "  rounds=" << job.rounds << "  run="
                << static_cast<int64_t>(job.run_seconds * 1000) << "ms  "
                << sql;
      if (!job.error.empty()) std::cout << "  [" << job.error << "]";
      std::cout << "\n";
    }
  }

  void RunStatement(const std::string& sql) {
    try {
      const Stopwatch watch;
      const auto result = loop_.Execute(sql, options_);
      PrintResult(result);
      if (timing_) {
        std::cout << "Time: " << watch.ElapsedMillis() << " ms\n";
      }
    } catch (const Error& e) {
      std::cout << "ERROR: " << e.what() << "\n";
    }
  }

 private:
  /// \scrub: CHECK TABLE over every table in the shell's database — an
  /// on-demand integrity pass. Corrupt tables are reported (and left
  /// quarantined by the engine); the rest of the walk continues.
  void ScrubTables() {
    size_t ok = 0;
    size_t corrupt = 0;
    for (const auto& name : loop_.connection().database().TableNames()) {
      try {
        loop_.connection().Execute("CHECK TABLE \"" + name + "\"");
        ++ok;
      } catch (const Error& e) {
        ++corrupt;
        std::cout << name << ": " << e.what() << "\n";
      }
    }
    std::cout << "scrub: " << ok << " table(s) ok, " << corrupt
              << " corrupt\n";
  }

  /// \faults off, or \faults key=value...: installs a seeded FaultInjector
  /// on the shell's server (picked up by every connection, including the
  /// worker pool) and on the already-open master connection.
  void ConfigureFaults(std::istringstream& in) {
    const std::string& url = loop_.url();
    std::string host = "localhost";
    if (const auto scheme = url.find("://"); scheme != std::string::npos) {
      const auto start = scheme + 3;
      host = url.substr(start, url.find('/', start) - start);
    }
    minidb::Server* server = dbc::DriverManager::FindHost(host);
    if (server == nullptr) {
      std::cout << "no minidb server registered for host '" << host << "'\n";
      return;
    }
    FaultConfig config;
    std::string token;
    while (in >> token) {
      if (token == "off") {
        server->set_fault_injector(nullptr);
        loop_.connection().set_fault_injector(nullptr);
        std::cout << "fault injection off\n";
        return;
      }
      const auto eq = token.find('=');
      if (eq == std::string::npos) {
        std::cout << "expected key=value, got '" << token << "'\n";
        return;
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      try {
        if (key == "seed") {
          config.seed = std::stoull(value);
        } else if (key == "connect") {
          config.connect_failure_rate = std::stod(value);
        } else if (key == "connect_every") {
          config.connect_every = std::stoll(value);
        } else if (key == "drop") {
          config.drop_rate = std::stod(value);
        } else if (key == "drop_every") {
          config.drop_every = std::stoll(value);
        } else if (key == "transient") {
          config.transient_rate = std::stod(value);
        } else if (key == "transient_every") {
          config.transient_every = std::stoll(value);
        } else if (key == "slow") {
          config.slow_rate = std::stod(value);
        } else if (key == "slow_every") {
          config.slow_every = std::stoll(value);
        } else if (key == "slow_us") {
          config.slow_us = std::stoll(value);
        } else if (key == "max") {
          config.max_faults = std::stoll(value);
        } else if (key == "kill_at") {
          config.kill_at_round = std::stoll(value);
        } else {
          std::cout << "unknown fault key '" << key << "'\n";
          return;
        }
      } catch (const std::exception&) {
        std::cout << "bad value for '" << key << "': " << value << "\n";
        return;
      }
    }
    if (!config.any() && config.kill_at_round == 0) {
      std::cout << "no fault rates given (try \\help)\n";
      return;
    }
    auto injector = std::make_shared<FaultInjector>(config);
    server->set_fault_injector(injector);
    loop_.connection().set_fault_injector(injector);
    std::cout << "fault injection on (seed=" << config.seed << ")\n";
  }

  /// \checkpoint, \checkpoint off, or \checkpoint key=value...: adjusts
  /// the durability knobs carried into every subsequent iterative run.
  void ConfigureCheckpoint(std::istringstream& in) {
    std::string token;
    while (in >> token) {
      if (token == "off") {
        options_.checkpoint_every = 0;
        options_.resume = false;
        std::cout << "checkpointing off\n";
        return;
      }
      const auto eq = token.find('=');
      if (eq == std::string::npos) {
        std::cout << "expected key=value or 'off', got '" << token << "'\n";
        return;
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      try {
        if (key == "every") {
          options_.checkpoint_every = std::stoll(value);
        } else if (key == "dir") {
          options_.checkpoint_dir = value;
        } else if (key == "resume") {
          options_.resume = value != "off";
        } else {
          std::cout << "unknown checkpoint key '" << key << "'\n";
          return;
        }
      } catch (const std::exception&) {
        std::cout << "bad value for '" << key << "': " << value << "\n";
        return;
      }
    }
    std::cout << "checkpoint every=" << options_.checkpoint_every
              << (options_.checkpoint_every > 0 ? "" : " (off)") << " dir="
              << (options_.checkpoint_dir.empty() ? "sqloop_ckpt (default)"
                                                  : options_.checkpoint_dir)
              << " resume=" << (options_.resume ? "on" : "off") << "\n";
  }

  void LoadGraph(std::istringstream& in) {
    std::string kind;
    in >> kind;
    try {
      graph::Graph g;
      if (kind == "web") {
        int64_t n = 1000, deg = 4, seed = 1;
        in >> n >> deg >> seed;
        g = graph::MakeWebGraph(n, static_cast<int>(deg),
                                static_cast<uint64_t>(seed));
      } else if (kind == "ego") {
        int64_t c = 10, s = 20, seed = 1;
        double p = 0.2;
        in >> c >> s >> p >> seed;
        g = graph::MakeEgoNetGraph(c, s, p, static_cast<uint64_t>(seed));
      } else if (kind == "host") {
        int64_t h = 20, p = 8, l = 50, seed = 1;
        in >> h >> p >> l >> seed;
        g = graph::MakeHostGraph(h, p, l, static_cast<uint64_t>(seed));
      } else {
        std::cout << "unknown graph kind '" << kind
                  << "' (web | ego | host)\n";
        return;
      }
      auto conn = dbc::DriverManager::GetConnection(loop_.url());
      graph::LoadEdges(*conn, g);
      std::cout << "loaded " << g.edge_count() << " edges over "
                << g.NodeCount() << " nodes into `edges`\n";
    } catch (const Error& e) {
      std::cout << "ERROR: " << e.what() << "\n";
    }
  }

  core::SqLoop loop_;
  core::SqloopOptions options_;
  TraceObserver tracer_;
  bool timing_ = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::string url;
  std::string inline_sql;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-c" && i + 1 < argc) {
      inline_sql = argv[++i];
    } else {
      url = arg;
    }
  }
  if (url.empty()) {
    minidb::Server::Default().CreateDatabase(
        "shell", minidb::EngineProfile::Postgres());
    url = "minidb://localhost/shell";
  }

  try {
    Shell shell(url);
    if (!inline_sql.empty()) {
      std::string statement;
      std::istringstream in(inline_sql);
      std::string piece;
      while (std::getline(in, piece, ';')) {
        if (piece.find_first_not_of(" \t\r\n") == std::string::npos) continue;
        shell.RunStatement(piece);
      }
      return 0;
    }

    const auto is_blank = [](const std::string& text) {
      return text.find_first_not_of(" \t\r\n") == std::string::npos;
    };
    std::string buffer;
    std::string line;
    std::cout << "sqloop> " << std::flush;
    while (std::getline(std::cin, line)) {
      if (is_blank(buffer) && !line.empty() && line[0] == '\\') {
        if (!shell.HandleMeta(line)) break;
        std::cout << "sqloop> " << std::flush;
        continue;
      }
      buffer += line + "\n";
      size_t semi;
      while ((semi = buffer.find(';')) != std::string::npos) {
        const std::string sql = buffer.substr(0, semi);
        buffer = buffer.substr(semi + 1);
        if (!is_blank(sql)) shell.RunStatement(sql);
      }
      if (is_blank(buffer)) buffer.clear();
      std::cout << (buffer.empty() ? "sqloop> " : "   ...> ") << std::flush;
    }
    return 0;
  } catch (const sqloop::Error& e) {
    std::cerr << "fatal: " << e.what() << "\n";
    return 1;
  }
}
