// micro_checkpoint — the cost of durability.
//
// PageRank runs to convergence with checkpointing off, at cadence 5, and
// at cadence 1 (every round), in the single-thread and Sync modes. The
// arms take turns, one run each per round (the order rotating every
// round), so each round yields a paired overhead over the same stretch of
// host time; each arm reports its median wall time, checkpoints written,
// and the median of its rounds' overheads relative to the
// checkpoint-free run. The acceptance bar is <10% median overhead at
// cadence 5 under the modeled testbed latencies. The checkpointed arms'
// results must match the checkpoint-free arm — durability must never
// perturb the fixpoint. Exits nonzero when either bar fails.
//
// Writes a JSON baseline (default BENCH_checkpoint.json; --json <path>
// to move it). Knobs: SQLOOP_BENCH_{PR_NODES,PR_DEG,PR_ITERS,REPS (the
// rounds),THREADS,PARTITIONS,LATENCY_US,ROW_COST_NS,COMPILE_US}.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "graph/generators.h"

namespace {

using namespace sqloop;
using bench::Knob;
using bench::Median;

namespace fs = std::filesystem;

/// Sorted rows with a 1e-9 numeric tolerance for the parallel arms (bit
/// equality is demanded of the single-thread mode). Sync's gather order
/// is deterministic these days, but the checkpoint bench keeps the
/// repo-standard tolerance rather than re-pinning that invariant here.
bool Equivalent(const dbc::ResultSet& a, const dbc::ResultSet& b,
                double tolerance) {
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
        if (std::fabs(x.NumericAsDouble() - y.NumericAsDouble()) > tolerance) {
          return false;
        }
      } else if (x.ToString() != y.ToString()) {
        return false;
      }
    }
  }
  return true;
}

struct Arm {
  int64_t cadence = 0;         // 0 = checkpointing off
  std::vector<double> rounds;  // seconds per round
  double seconds = 0;          // median over the rounds
  double overhead_pct = 0;     // median paired overhead vs the off arm
  uint64_t checkpoints = 0;
  dbc::ResultSet result;
};

struct ModeReport {
  const char* mode;
  std::vector<Arm> arms;  // off, cadence 5, cadence 1
  bool results_match = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_checkpoint.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: micro_checkpoint [--json <path>]\n";
      return 2;
    }
  }

  const int64_t nodes = Knob("PR_NODES", 800);
  const int64_t deg = Knob("PR_DEG", 3);
  const int64_t iters = Knob("PR_ITERS", 20);
  const int64_t rounds = std::max<int64_t>(Knob("REPS", 9), 1);
  const int threads = static_cast<int>(Knob("THREADS", 4));
  const int partitions = static_cast<int>(Knob("PARTITIONS", 8));

  const auto graph = graph::MakeWebGraph(nodes, static_cast<int>(deg), 1);
  bench::EngineFleet fleet("checkpoint", graph);
  const std::string url = fleet.Url("postgres");
  const std::string query = core::workloads::PageRankQuery(iters);

  const std::string ckpt_root =
      (fs::temp_directory_path() /
       ("sqloop_bench_ckpt_" + std::to_string(::getpid())))
          .string();

  const core::ExecutionMode modes[] = {core::ExecutionMode::kSingleThread,
                                       core::ExecutionMode::kSync};
  const int64_t cadences[] = {0, 5, 1};

  std::vector<ModeReport> reports;
  const size_t arm_count = std::size(cadences);
  for (const auto mode : modes) {
    ModeReport report{core::ExecutionModeName(mode), {}, true};
    for (const int64_t cadence : cadences) {
      report.arms.emplace_back();
      report.arms.back().cadence = cadence;
    }
    for (int64_t r = 0; r < rounds; ++r) {
      for (size_t turn = 0; turn < arm_count; ++turn) {
        Arm& arm = report.arms[(turn + static_cast<size_t>(r)) % arm_count];
        core::SqloopOptions options;
        options.mode = mode;
        options.threads = threads;
        options.partitions = partitions;
        options.checkpoint_every = arm.cadence;
        if (arm.cadence > 0) {
          // A fresh directory per run: each run measures writing its own
          // checkpoints, never pruning a predecessor's.
          options.checkpoint_dir = ckpt_root + "/" +
                                   std::string(report.mode) + "_c" +
                                   std::to_string(arm.cadence) + "_r" +
                                   std::to_string(r);
        }
        core::SqLoop loop(url, options);
        const Stopwatch watch;
        auto result = loop.Execute(query);
        arm.rounds.push_back(watch.ElapsedSeconds());
        arm.checkpoints = loop.last_run().checkpoints_written;
        arm.result = std::move(result);
      }
    }
    const std::vector<double>& off_rounds = report.arms[0].rounds;
    for (Arm& arm : report.arms) {
      arm.seconds = Median(arm.rounds);
      arm.overhead_pct = bench::MedianPairedOverheadPct(off_rounds, arm.rounds);
    }
    // Durability must not change the answer (exact for single-thread,
    // the repo-standard 1e-9 for Sync).
    const double tolerance =
        mode == core::ExecutionMode::kSingleThread ? 0.0 : 1e-9;
    for (size_t i = 1; i < report.arms.size(); ++i) {
      if (!Equivalent(report.arms[0].result, report.arms[i].result,
                      tolerance)) {
        report.results_match = false;
      }
    }
    reports.push_back(std::move(report));
  }
  std::error_code ec;
  fs::remove_all(ckpt_root, ec);

  bool pass = true;
  std::cout << "PageRank " << iters << " iterations, " << nodes
            << " nodes (median of " << rounds << " paired rounds):\n"
            << std::left << std::setw(14) << "mode" << std::right
            << std::setw(10) << "off" << std::setw(12) << "cadence5"
            << std::setw(12) << "cadence1" << std::setw(10) << "ovh5%"
            << std::setw(10) << "ovh1%" << "\n";
  std::ofstream json(json_path);
  json << "{\n  \"benchmark\": \"micro_checkpoint\",\n  \"workload\": "
       << "\"pagerank\",\n  \"nodes\": " << nodes
       << ",\n  \"iterations\": " << iters << ",\n  \"modes\": [\n";
  for (size_t m = 0; m < reports.size(); ++m) {
    const ModeReport& r = reports[m];
    const double off = r.arms[0].seconds;
    const double ovh5 = r.arms[1].overhead_pct;
    const double ovh1 = r.arms[2].overhead_pct;
    if (ovh5 >= 10.0) pass = false;
    if (!r.results_match) pass = false;
    std::cout << std::left << std::setw(14) << r.mode << std::right
              << std::fixed << std::setprecision(3) << std::setw(10) << off
              << std::setw(12) << r.arms[1].seconds << std::setw(12)
              << r.arms[2].seconds << std::setprecision(1) << std::setw(9)
              << ovh5 << "%" << std::setw(9) << ovh1 << "%"
              << (r.results_match ? "" : "  RESULTS DIVERGED") << "\n";
    json << "    {\"mode\": \"" << r.mode << "\", \"off_seconds\": "
         << std::setprecision(6) << off
         << ", \"cadence5_seconds\": " << r.arms[1].seconds
         << ", \"cadence1_seconds\": " << r.arms[2].seconds
         << ", \"checkpoints_cadence5\": " << r.arms[1].checkpoints
         << ", \"checkpoints_cadence1\": " << r.arms[2].checkpoints
         << ", \"overhead_cadence5_pct\": " << std::setprecision(2) << ovh5
         << ", \"overhead_cadence1_pct\": " << ovh1
         << ", \"results_match\": " << (r.results_match ? "true" : "false")
         << "}" << (m + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"peak_rss_bytes\": " << bench::PeakRssBytes()
       << ",\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::cout << "\nacceptance (<10% median paired overhead at cadence 5, "
               "results intact): "
            << (pass ? "PASS" : "FAIL") << "\nwrote " << json_path << "\n";
  return pass ? 0 : 1;
}
