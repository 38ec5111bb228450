// micro_integrity — the cost of end-to-end integrity.
//
// PageRank runs to convergence three ways, in the single-thread and Sync
// modes: with per-table content checksums disabled (the A arm), with
// checksums maintained at every mutation (the default, the B arm), and
// with checksums plus a scrub pass every round (the worst-case C arm).
// The arms take turns, one run each per round (the order rotating every
// round), so each round yields a paired overhead over the same stretch of
// host time; each arm reports its median wall time and the median of its
// rounds' overheads relative to the checksum-free run. The acceptance bar
// is <5% median overhead for checksum maintenance under the modeled
// testbed latencies. All arms must produce identical results — integrity
// bookkeeping must never perturb the fixpoint.
//
// Writes a JSON baseline (default BENCH_integrity.json; --json <path>
// to move it). Knobs: SQLOOP_BENCH_{PR_NODES,PR_DEG,PR_ITERS,REPS (the
// rounds), THREADS,PARTITIONS,LATENCY_US,ROW_COST_NS,COMPILE_US}.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "graph/generators.h"
#include "minidb/database.h"

namespace {

using namespace sqloop;
using bench::Knob;
using bench::Median;

/// Sorted rows with a 1e-9 numeric tolerance for the parallel arms (bit
/// equality is demanded of the single-thread mode; the durability test
/// suite pins exact equality with threads=1 separately).
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
  const char* label;
  std::vector<double> rounds;  // seconds per round
  double seconds = 0;          // median over the rounds
  double overhead_pct = 0;     // median paired overhead vs the off arm
  uint64_t scrub_passes = 0;
  dbc::ResultSet result;
};

struct ModeReport {
  const char* mode;
  std::vector<Arm> arms;  // off, checksums, checksums+scrub
  bool results_match = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_integrity.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: micro_integrity [--json <path>]\n";
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
  bench::EngineFleet fleet("integrity", graph);
  const std::string url = fleet.Url("postgres");
  const std::string query = core::workloads::PageRankQuery(iters);
  const std::shared_ptr<minidb::Database> db =
      fleet.server().FindDatabase("postgres");

  // Arm descriptor: (label, integrity toggle, scrub cadence).
  struct ArmSpec {
    const char* label;
    bool integrity;
    int64_t scrub_every;
  };
  const ArmSpec specs[] = {
      {"off", false, 0},
      {"checksums", true, 0},
      {"checksums+scrub", true, 1},
  };

  const core::ExecutionMode modes[] = {core::ExecutionMode::kSingleThread,
                                       core::ExecutionMode::kSync};

  std::vector<ModeReport> reports;
  const size_t arm_count = std::size(specs);
  for (const auto mode : modes) {
    ModeReport report{core::ExecutionModeName(mode), {}, true};
    for (const ArmSpec& spec : specs) {
      report.arms.emplace_back();
      report.arms.back().label = spec.label;
    }
    for (int64_t r = 0; r < rounds; ++r) {
      for (size_t turn = 0; turn < arm_count; ++turn) {
        const size_t a = (turn + static_cast<size_t>(r)) % arm_count;
        const ArmSpec& spec = specs[a];
        Arm& arm = report.arms[a];
        db->set_integrity_enabled(spec.integrity);
        core::SqloopOptions options;
        options.mode = mode;
        options.threads = threads;
        options.partitions = partitions;
        options.scrub_every = spec.scrub_every;
        core::SqLoop loop(url, options);
        const Stopwatch watch;
        auto result = loop.Execute(query);
        arm.rounds.push_back(watch.ElapsedSeconds());
        arm.scrub_passes = loop.last_run().scrub_passes;
        arm.result = std::move(result);
      }
    }
    db->set_integrity_enabled(true);
    const std::vector<double>& off_rounds = report.arms[0].rounds;
    for (Arm& arm : report.arms) {
      arm.seconds = Median(arm.rounds);
      arm.overhead_pct = bench::MedianPairedOverheadPct(off_rounds, arm.rounds);
    }
    // Integrity bookkeeping must not change the answer (exact for
    // single-thread, the repo-standard 1e-9 for Sync).
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

  bool pass = true;
  std::cout << "PageRank " << iters << " iterations, " << nodes
            << " nodes (median of " << rounds << " paired rounds):\n"
            << std::left << std::setw(14) << "mode" << std::right
            << std::setw(10) << "off" << std::setw(12) << "checksums"
            << std::setw(12) << "ck+scrub" << std::setw(10) << "ovh%"
            << std::setw(10) << "scrub%" << "\n";
  std::ofstream json(json_path);
  json << "{\n  \"benchmark\": \"micro_integrity\",\n  \"workload\": "
       << "\"pagerank\",\n  \"nodes\": " << nodes
       << ",\n  \"iterations\": " << iters << ",\n  \"modes\": [\n";
  for (size_t m = 0; m < reports.size(); ++m) {
    const ModeReport& r = reports[m];
    const double off = r.arms[0].seconds;
    const double ovh_ck = r.arms[1].overhead_pct;
    const double ovh_scrub = r.arms[2].overhead_pct;
    // The acceptance bar covers checksum maintenance only; the
    // every-round scrub arm is reported for context, not gated (a scrub
    // pass re-reads every live row, so its cost scales with table size).
    if (ovh_ck >= 5.0) pass = false;
    if (!r.results_match) pass = false;
    std::cout << std::left << std::setw(14) << r.mode << std::right
              << std::fixed << std::setprecision(3) << std::setw(10) << off
              << std::setw(12) << r.arms[1].seconds << std::setw(12)
              << r.arms[2].seconds << std::setprecision(1) << std::setw(9)
              << ovh_ck << "%" << std::setw(9) << ovh_scrub << "%"
              << (r.results_match ? "" : "  RESULTS DIVERGED") << "\n";
    json << "    {\"mode\": \"" << r.mode << "\", \"off_seconds\": "
         << std::setprecision(6) << off
         << ", \"checksums_seconds\": " << r.arms[1].seconds
         << ", \"scrub_seconds\": " << r.arms[2].seconds
         << ", \"scrub_passes\": " << r.arms[2].scrub_passes
         << ", \"overhead_pct\": " << std::setprecision(2) << ovh_ck
         << ", \"overhead_scrub_pct\": " << ovh_scrub
         << ", \"results_match\": " << (r.results_match ? "true" : "false")
         << "}" << (m + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"peak_rss_bytes\": " << bench::PeakRssBytes()
       << ",\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::cout << "\nacceptance (<5% checksum overhead, results intact): "
            << (pass ? "PASS" : "FAIL") << "\nwrote " << json_path << "\n";
  return pass ? 0 : 1;
}
