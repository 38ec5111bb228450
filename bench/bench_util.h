// Shared plumbing for the figure-reproduction benchmarks: per-engine
// databases, dataset loading, timed SQLoop runs, and the convergence
// sampler of §VI-A ("we sampled the entire dataset using a separate
// thread every 5 seconds" — scaled down to our run times).
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/stopwatch.h"
#include "core/sqloop.h"
#include "core/workloads.h"
#include "dbc/driver.h"
#include "graph/graph.h"
#include "graph/loader.h"
#include "minidb/server.h"
#include "telemetry/exporters.h"

namespace sqloop::bench {

inline const std::vector<std::string>& Engines() {
  static const std::vector<std::string> kEngines = {"postgres", "mysql",
                                                    "mariadb"};
  return kEngines;
}

/// Reads an integer knob from the environment (SQLOOP_BENCH_<NAME>),
/// falling back to the laptop-scale default. Export larger values to
/// approach paper scale.
inline int64_t Knob(const char* name, int64_t fallback) {
  const std::string var = std::string("SQLOOP_BENCH_") + name;
  if (const char* value = std::getenv(var.c_str())) {
    return std::atoll(value);
  }
  return fallback;
}

/// The median of `values` (mean of the middle two for an even count).
inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// One sqlplot-tools style result line: `RESULT key=value key=value ...`.
/// Emitted alongside the BENCH_*.json baselines so plots can be driven
/// straight from captured stdout (sqlplot-tools IMPORT-DATA greps for the
/// RESULT prefix and treats each line as one measurement row).
class ResultLine {
 public:
  explicit ResultLine(const std::string& benchmark) {
    Add("bench", benchmark);
  }
  ResultLine& Add(const std::string& key, const std::string& value) {
    line_ += " " + key + "=" + value;
    return *this;
  }
  ResultLine& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  ResultLine& Add(const std::string& key, int64_t value) {
    return Add(key, std::to_string(value));
  }
  ResultLine& Add(const std::string& key, uint64_t value) {
    return Add(key, std::to_string(value));
  }
  ResultLine& Add(const std::string& key, int value) {
    return Add(key, std::to_string(value));
  }
  ResultLine& Add(const std::string& key, bool value) {
    return Add(key, std::string(value ? "1" : "0"));
  }
  ResultLine& Add(const std::string& key, double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6f", value);
    return Add(key, std::string(buffer));
  }
  /// Prints the accumulated line; the object stays usable, so a loop can
  /// clone a template line per row via copy construction.
  void Print(std::ostream& os = std::cout) const {
    os << "RESULT" << line_ << "\n";
  }

 private:
  std::string line_;
};

/// The process's peak resident set in bytes (getrusage; ru_maxrss is
/// KiB on Linux). Every BENCH_*.json records it alongside the timings so
/// baseline diffs catch memory regressions, not just slowdowns.
inline int64_t PeakRssBytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;
}

/// One registered host holding a database per engine profile, with the
/// same dataset loaded into each. `select_engine` picks every database's
/// SELECT pipeline (micro_scan builds a second, reference fleet).
class EngineFleet {
 public:
  explicit EngineFleet(
      const std::string& tag, const graph::Graph& graph,
      int64_t latency_us = -1, int64_t row_cost_ns = -1,
      minidb::SelectEngine select_engine = minidb::SelectEngine::kBatch) {
    host_ = "bench_" + tag;
    // Defaults model the paper's testbed: a ~100us JDBC round trip and
    // ~2us of server work per row examined, overlapped across connections
    // (see DESIGN.md "Substitutions"). Override via env knobs.
    latency_us_ = latency_us >= 0 ? latency_us : Knob("LATENCY_US", 100);
    row_cost_ns_ = row_cost_ns >= 0 ? row_cost_ns : Knob("ROW_COST_NS", 3000);
    // ~150us of server-side parse+plan per compiled statement (a real
    // optimizer's cost, which the embedded parser radically undercosts).
    // Plan-cached and prepared executions skip it, like server PREPARE.
    compile_us_ = Knob("COMPILE_US", 150);
    dbc::DriverManager::RegisterHost(host_, &server_);
    // NO_PLAN_CACHE=1 ablates the iteration-aware plan cache fleet-wide,
    // so any benchmark can be A/B'd against the parse-per-statement world.
    const bool no_plan_cache = Knob("NO_PLAN_CACHE", 0) != 0;
    // NO_GOVERNANCE=1 detaches memory accounting fleet-wide, for A/B'ing
    // the per-row charge hooks (bench/micro_governance does this per arm).
    const bool no_governance = Knob("NO_GOVERNANCE", 0) != 0;
    for (const auto& engine : Engines()) {
      auto db = server_.CreateDatabase(
          engine, minidb::EngineProfile::ByName(engine), select_engine);
      if (no_plan_cache) db->plan_cache().set_enabled(false);
      if (no_governance) db->set_governance_enabled(false);
      auto conn = dbc::DriverManager::GetConnection(Url(engine));
      graph::LoadEdges(*conn, graph);
    }
  }
  ~EngineFleet() { dbc::DriverManager::RegisterHost(host_, nullptr); }

  /// The fleet's embedded server, for benchmarks that flip per-database
  /// toggles (e.g. governance on/off A/B runs) between measurements.
  minidb::Server& server() noexcept { return server_; }

  /// `compile_us_override` >= 0 replaces the fleet's modeled compile cost
  /// (e.g. 0 for a pure-CPU micro measurement).
  std::string Url(const std::string& engine,
                  int64_t compile_us_override = -1) const {
    const int64_t compile_us =
        compile_us_override >= 0 ? compile_us_override : compile_us_;
    return "minidb://" + host_ + "/" + engine +
           "?latency_us=" + std::to_string(latency_us_) +
           "&row_cost_ns=" + std::to_string(row_cost_ns_) +
           "&compile_us=" + std::to_string(compile_us);
  }

 private:
  minidb::Server server_;
  std::string host_;
  int64_t latency_us_ = 0;
  int64_t row_cost_ns_ = 0;
  int64_t compile_us_ = 0;
};

struct TimedRun {
  double seconds = 0;
  core::RunStats stats;
  dbc::ResultSet result;
};

inline core::SqloopOptions ModeOptions(core::ExecutionMode mode, int threads,
                                       int partitions,
                                       const std::string& workload) {
  core::SqloopOptions options;
  options.mode = mode;
  options.threads = threads;
  options.partitions = partitions;
  if (mode == core::ExecutionMode::kAsyncPriority) {
    if (workload == "pr") {
      options.priority_query = core::workloads::PageRankPriorityQuery();
      options.priority_descending = true;
    } else if (workload == "dq") {
      options.priority_query = core::workloads::DqPriorityQuery();
      options.priority_descending = false;
    } else {  // sssp
      options.priority_query = core::workloads::SsspPriorityQuery();
      options.priority_descending = false;
    }
  }
  return options;
}

/// Exports a run's telemetry when SQLOOP_BENCH_TELEMETRY asks for it:
///   summary       — human-readable per-round table on stderr
///   jsonl:<path>  — append the JSONL event stream to <path>
///   prom:<path>   — overwrite <path> with a Prometheus text snapshot
/// Unset (the default) costs nothing beyond one getenv per run.
inline void MaybeExportTelemetry(const core::RunStats& stats,
                                 const std::string& label) {
  const char* spec = std::getenv("SQLOOP_BENCH_TELEMETRY");
  if (spec == nullptr || stats.recorder == nullptr) return;
  const std::string value(spec);
  if (value == "summary") {
    std::cerr << "-- telemetry: " << label << "\n"
              << telemetry::Summary(*stats.recorder);
  } else if (value.starts_with("jsonl:")) {
    std::ofstream out(value.substr(6), std::ios::app);
    out << telemetry::JsonLines(*stats.recorder);
  } else if (value.starts_with("prom:")) {
    std::ofstream out(value.substr(5));
    out << telemetry::PrometheusSnapshot(*stats.recorder);
  } else {
    std::cerr << "SQLOOP_BENCH_TELEMETRY: unknown spec '" << value << "'\n";
  }
}

inline TimedRun RunQuery(const std::string& url,
                         const core::SqloopOptions& options,
                         const std::string& query) {
  core::SqLoop loop(url);
  Stopwatch watch;
  TimedRun run;
  run.result = loop.Execute(query, options);
  run.seconds = watch.ElapsedSeconds();
  run.stats = loop.last_run();
  MaybeExportTelemetry(run.stats, core::ExecutionModeName(options.mode));
  return run;
}

/// Convergence sample: (elapsed seconds, SUM(Rank) over the live view).
struct ConvergencePoint {
  double seconds;
  double sum_of_rank;
};

/// Runs the query on a worker thread while the caller's thread samples
/// SUM(rank) from the union view every `period_ms` (the paper's Fig. 4
/// methodology).
inline std::vector<ConvergencePoint> RunWithConvergenceSampling(
    const std::string& url, core::SqloopOptions options,
    const std::string& query, const std::string& view_name,
    int period_ms, double* total_seconds) {
  options.keep_result_tables = true;  // keep the view alive for sampling
  std::vector<ConvergencePoint> samples;
  std::atomic<bool> done{false};
  Stopwatch watch;

  std::thread runner([&] {
    core::SqLoop loop(url);
    loop.Execute(query, options);
    done.store(true);
  });

  auto sampler_conn = dbc::DriverManager::GetConnection(url);
  const std::string probe = "SELECT SUM(Rank) FROM " + view_name;
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(period_ms));
    try {
      const auto result = sampler_conn->ExecuteQuery(probe);
      if (!result.rows.empty() && result.rows[0][0].is_numeric()) {
        samples.push_back(
            {watch.ElapsedSeconds(), result.rows[0][0].NumericAsDouble()});
      }
    } catch (const Error&) {
      // View not created yet (or being torn down) — skip this sample.
    }
  }
  runner.join();
  if (total_seconds != nullptr) *total_seconds = watch.ElapsedSeconds();
  // Final sample after completion.
  try {
    const auto result = sampler_conn->ExecuteQuery(probe);
    if (!result.rows.empty() && result.rows[0][0].is_numeric()) {
      samples.push_back(
          {watch.ElapsedSeconds(), result.rows[0][0].NumericAsDouble()});
    }
  } catch (const Error&) {
  }
  return samples;
}

inline const char* ModeLabel(core::ExecutionMode mode) {
  switch (mode) {
    case core::ExecutionMode::kSingleThread:
      return "SingleThread";
    case core::ExecutionMode::kSync:
      return "Sync";
    case core::ExecutionMode::kAsync:
      return "Async";
    case core::ExecutionMode::kAsyncPriority:
      return "AsyncP";
  }
  return "?";
}

}  // namespace sqloop::bench
