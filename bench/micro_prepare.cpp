// micro_prepare — the prepared-statement / plan-cache benchmark.
//
// Two measurements:
//   1. Statement level: the same query executed `PREP_REPS` times raw
//      (plan cache off, one parse per execution) vs through a prepared
//      handle (parse once, bind + execute per round). The probe is a fat
//      expression over a tiny table so compile cost is the variable —
//      the shape of a termination probe or delta-update statement, not a
//      full-table join.
//   2. End to end: PageRank for PR_ITERS iterations in all four execution
//      modes, cache on vs cache off. SingleThread and Sync must be
//      bit-identical cache-on vs cache-off (both are deterministic: Sync's
//      Gathers fold every source's messages in a fixed order, whatever
//      the pool width); Async and AsyncP, whose summation order depends
//      on timing, must agree within 1e-9. Latency and per-row cost are
//      zeroed so the compile cost is what's being compared.
//
// Writes a JSON baseline (default BENCH_prepare.json; --json <path> to
// move it). `--no-plan-cache` runs only the ablated arm, mirroring the
// SQLOOP_BENCH_NO_PLAN_CACHE fleet knob.
//
// Knobs: SQLOOP_BENCH_{PR_NODES,PR_DEG,PR_ITERS,PREP_REPS,THREADS,
// PARTITIONS}.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "dbc/prepared_statement.h"
#include "graph/generators.h"

namespace {

using namespace sqloop;
using bench::Knob;

std::string Canonical(const dbc::ResultSet& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::string flat;
    for (const auto& value : row) flat += value.ToString() + "|";
    rows.push_back(std::move(flat));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const auto& row : rows) out += row + "\n";
  return out;
}

struct ModeResult {
  const char* mode;
  double on_seconds = 0;
  double off_seconds = 0;
  uint64_t on_parses = 0;
  uint64_t off_parses = 0;
  std::string on_rows;
  std::string off_rows;
  dbc::ResultSet on_result;
  dbc::ResultSet off_result;
};

/// Row-set equality within the repo's 1e-9 numeric tolerance (the same
/// tolerance the equivalence tests use for parallel modes, whose FP
/// summation order is timing-dependent run to run).
bool Equivalent(const dbc::ResultSet& a, const dbc::ResultSet& b) {
  if (a.rows.size() != b.rows.size()) return false;
  const auto sorted = [](const dbc::ResultSet& rs) {
    auto rows = rs.rows;
    std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
      return x.empty() || y.empty() ? x.size() < y.size()
                                    : x[0].ToString() < y[0].ToString();
    });
    return rows;
  };
  const auto lhs = sorted(a);
  const auto rhs = sorted(b);
  for (size_t i = 0; i < lhs.size(); ++i) {
    if (lhs[i].size() != rhs[i].size()) return false;
    for (size_t j = 0; j < lhs[i].size(); ++j) {
      const Value& x = lhs[i][j];
      const Value& y = rhs[i][j];
      if (x.is_numeric() && y.is_numeric()) {
        if (std::fabs(x.NumericAsDouble() - y.NumericAsDouble()) > 1e-9) {
          return false;
        }
      } else if (x.ToString() != y.ToString()) {
        return false;
      }
    }
  }
  return true;
}

// A statement whose text is long (a flat sum of CASE terms — parser cost
// scales with text size) but whose execution touches only the handful of
// rows in `prep_probe`. This is the cost shape of SQLoop's per-round
// statements: nontrivial text, small working set.
std::string FatProbeSql(int terms) {
  std::string sql = "SELECT id, val";
  for (int i = 0; i < terms; ++i) {
    const std::string level = std::to_string(i + 2);
    sql += " + CASE WHEN id % " + level + " = 0 THEN val * 1.0" + level +
           " ELSE 0." + level + " END";
  }
  sql += " AS score FROM prep_probe WHERE id >= 0 ORDER BY id";
  return sql;
}

minidb::PlanCache& CacheOf(const std::string& url) {
  return dbc::DriverManager::GetConnection(url)->database().plan_cache();
}

}  // namespace

int main(int argc, char** argv) {
  bool only_ablation = false;
  std::string json_path = "BENCH_prepare.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-plan-cache") {
      only_ablation = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: micro_prepare [--no-plan-cache] [--json <path>]\n";
      return 2;
    }
  }

  const int64_t nodes = Knob("PR_NODES", 300);
  const int64_t deg = Knob("PR_DEG", 3);
  const int64_t iters = Knob("PR_ITERS", 50);
  const int64_t reps = Knob("PREP_REPS", 2000);
  const int threads = static_cast<int>(Knob("THREADS", 4));
  const int partitions = static_cast<int>(Knob("PARTITIONS", 8));

  const auto graph = graph::MakeWebGraph(nodes, static_cast<int>(deg), 1);
  // Zero latency / zero row cost: the compile path is the variable here.
  bench::EngineFleet fleet("prepare", graph, /*latency_us=*/0,
                           /*row_cost_ns=*/0);
  const std::string url = fleet.Url("postgres");

  // --- 1. statement-level: raw re-parse vs prepared handle ---------------
  const std::string probe = FatProbeSql(static_cast<int>(Knob("TERMS", 24)));
  double raw_seconds = 0;
  double prepared_seconds = 0;
  {
    // Pure-CPU measurement: the micro connection zeroes the modeled
    // compile cost, so the speedup below is real parse work saved.
    auto conn = dbc::DriverManager::GetConnection(
        fleet.Url("postgres", /*compile_us_override=*/0));
    conn->Execute("CREATE TABLE prep_probe (id BIGINT, val DOUBLE PRECISION)");
    conn->Execute(
        "INSERT INTO prep_probe VALUES (0, 0.25), (1, 0.5), (2, 0.75), "
        "(3, 1.0), (4, 1.25), (5, 1.5), (6, 1.75), (7, 2.0)");
    auto& cache = conn->database().plan_cache();
    cache.set_enabled(false);
    conn->ExecuteQuery(probe);  // warm both paths before timing
    {
      const Stopwatch watch;
      for (int64_t i = 0; i < reps; ++i) conn->ExecuteQuery(probe);
      raw_seconds = watch.ElapsedSeconds();
    }
    cache.set_enabled(true);
    {
      auto stmt = conn->Prepare(probe);
      stmt.ExecuteQuery();
      const Stopwatch watch;
      for (int64_t i = 0; i < reps; ++i) stmt.ExecuteQuery();
      prepared_seconds = watch.ElapsedSeconds();
    }
    conn->Execute("DROP TABLE prep_probe");
  }
  const double micro_speedup =
      prepared_seconds > 0 ? raw_seconds / prepared_seconds : 0;
  std::cout << "statement micro (" << reps << " executions):\n"
            << "  raw        " << std::fixed << std::setprecision(4)
            << raw_seconds << " s\n"
            << "  prepared   " << prepared_seconds << " s\n"
            << "  speedup    " << std::setprecision(2) << micro_speedup
            << "x\n\n";

  // --- 2. end-to-end PageRank, 4 modes, cache on vs off ------------------
  const std::string query = core::workloads::PageRankQuery(iters);
  const core::ExecutionMode modes[] = {
      core::ExecutionMode::kSingleThread, core::ExecutionMode::kSync,
      core::ExecutionMode::kAsync, core::ExecutionMode::kAsyncPriority};

  std::vector<ModeResult> results;
  bool bit_identical = true;
  std::cout << "PageRank " << iters << " iterations, " << nodes
            << " nodes:\n"
            << std::left << std::setw(14) << "mode" << std::right
            << std::setw(12) << "cache_on" << std::setw(12) << "cache_off"
            << std::setw(10) << "speedup" << std::setw(10) << "parses_on"
            << std::setw(11) << "parses_off" << std::setw(11) << "identical"
            << "\n";
  for (const auto mode : modes) {
    ModeResult row;
    row.mode = bench::ModeLabel(mode);
    const auto options = bench::ModeOptions(mode, threads, partitions, "pr");
    for (const bool cache_on : {true, false}) {
      if (only_ablation && cache_on) continue;
      CacheOf(url).set_enabled(cache_on);
      const auto run = bench::RunQuery(url, options, query);
      const uint64_t parses =
          run.stats.recorder ? run.stats.recorder->counter("sql.parse_count")
                             : 0;
      (cache_on ? row.on_seconds : row.off_seconds) = run.seconds;
      (cache_on ? row.on_parses : row.off_parses) = parses;
      (cache_on ? row.on_rows : row.off_rows) = Canonical(run.result);
      (cache_on ? row.on_result : row.off_result) = run.result;
    }
    // The cache must be invisible to results. SingleThread and Sync
    // execute deterministically (SingleThread ≡ Sync bit for bit), so
    // cache on/off must match bit for bit. Async and AsyncP sum in an
    // order that depends on timing (with or without the cache — their own
    // tests use 1e-9 tolerance), so they are held to 1e-9 equivalence.
    if (!only_ablation) {
      const bool deterministic = mode == core::ExecutionMode::kSingleThread ||
                                 mode == core::ExecutionMode::kSync;
      if (deterministic && row.on_rows != row.off_rows) bit_identical = false;
      if (!Equivalent(row.on_result, row.off_result)) bit_identical = false;
    }
    const double speedup =
        row.on_seconds > 0 ? row.off_seconds / row.on_seconds : 0;
    std::cout << std::left << std::setw(14) << row.mode << std::right
              << std::fixed << std::setprecision(4) << std::setw(12)
              << row.on_seconds << std::setw(12) << row.off_seconds
              << std::setprecision(2) << std::setw(9) << speedup << "x"
              << std::setw(10) << row.on_parses << std::setw(11)
              << row.off_parses << std::setw(11)
              << (only_ablation ? "-" : row.on_rows == row.off_rows ? "yes" : "NO")
              << "\n";
    results.push_back(row);
  }
  CacheOf(url).set_enabled(true);
  std::cout << "results cache-invisible (SingleThread and Sync "
               "bit-identical, Async/AsyncP within 1e-9): "
            << (bit_identical ? "yes" : "NO") << "\n";

  std::ofstream json(json_path);
  json << std::setprecision(6) << std::fixed;
  json << "{\n"
       << "  \"micro\": {\"reps\": " << reps << ", \"raw_seconds\": "
       << raw_seconds << ", \"prepared_seconds\": " << prepared_seconds
       << ", \"speedup\": " << micro_speedup << "},\n"
       << "  \"pagerank\": {\"nodes\": " << nodes << ", \"iterations\": "
       << iters << ", \"threads\": " << threads << ", \"partitions\": "
       << partitions << ", \"modes\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& r = results[i];
    json << "    {\"mode\": \"" << r.mode << "\", \"cache_on_seconds\": "
         << r.on_seconds << ", \"cache_off_seconds\": " << r.off_seconds
         << ", \"speedup\": "
         << (r.on_seconds > 0 ? r.off_seconds / r.on_seconds : 0)
         << ", \"parse_count_on\": " << r.on_parses
         << ", \"parse_count_off\": " << r.off_parses
         << ", \"bit_identical\": "
         << (r.on_rows == r.off_rows ? "true" : "false") << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]},\n"
       << "  \"peak_rss_bytes\": " << bench::PeakRssBytes() << ",\n"
       << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
       << "\n}\n";
  std::cout << "wrote " << json_path << "\n";
  return bit_identical ? 0 : 1;
}
