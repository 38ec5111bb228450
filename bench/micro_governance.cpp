// micro_governance — what resource governance costs when nothing goes
// wrong, and how fast the server says "no" when something would.
//
// Two measurements:
//   1. Accounting overhead: the same materializing statement (a three-way
//      cross join, whose inner join charges every intermediate row to the
//      memory hierarchy) timed with accounting attached vs detached
//      (Database::set_governance_enabled(false) — the same ablation the
//      SQLOOP_BENCH_NO_GOVERNANCE fleet knob flips). The arms alternate
//      statement by statement within each of GOV_ROUNDS rounds of
//      GOV_REPS statements; each round yields one paired overhead (on vs
//      off over the same stretch of host time), and the bar is <3% on the
//      median of the rounds' overheads, with results bit-identical across
//      arms.
//   2. Shed-mode admission latency: a JobServer pinned over its soft
//      memory watermark must reject new submissions in microseconds, not
//      after queueing work it cannot run — reported as p50/p99 over
//      GOV_SHED_TRIES Submit() attempts, each ending in AdmissionError.
//
// Writes a JSON baseline (default BENCH_governance.json; --json <path>).
// Knobs: SQLOOP_BENCH_{GOV_NODES,GOV_DEG,GOV_REPS,GOV_ROUNDS,
// GOV_SHED_TRIES}.
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "graph/generators.h"
#include "server/job_server.h"

namespace {

using namespace sqloop;
using bench::Knob;
using bench::Median;

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t index = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size() - 1)));
  return sorted[index];
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_governance.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: micro_governance [--json <path>]\n";
      return 2;
    }
  }

  const int64_t nodes = Knob("GOV_NODES", 60);
  const int64_t deg = Knob("GOV_DEG", 3);
  const int64_t reps = std::max<int64_t>(Knob("GOV_REPS", 3), 1);
  const int64_t rounds = std::max<int64_t>(Knob("GOV_ROUNDS", 9), 1);
  const int64_t shed_tries = std::max<int64_t>(Knob("GOV_SHED_TRIES", 200), 1);

  const auto graph = graph::MakeWebGraph(nodes, static_cast<int>(deg), 7);
  // Pure-CPU measurement: the accounting hooks are the variable, not the
  // modeled network latency or per-row server cost.
  bench::EngineFleet fleet("governance", graph, /*latency_us=*/0,
                           /*row_cost_ns=*/0);
  const std::string url = fleet.Url("postgres", /*compile_us_override=*/0);

  // --- 1. accounting overhead A/B ----------------------------------------
  // The inner a×b join materializes |edges|^2 rows, every one charged in
  // 32 KiB flushes through connection → database → server scopes; the
  // batched outer COUNT streams |edges|^3 rows through the governor tick.
  const std::string join3 =
      "SELECT COUNT(*) FROM edges AS a, edges AS b, edges AS c";
  auto& db = *fleet.server().FindDatabase("postgres");
  // The toggle binds at connection open, so each arm opens its connection
  // up front. Within every round the arms then alternate statement by
  // statement, flipping which goes first each round, so host drift lands
  // on both arms' round totals alike and each round's ratio is a paired
  // sample; the median over rounds discards the rounds a burst of host
  // noise hit.
  struct Arm {
    std::unique_ptr<dbc::Connection> conn;
    double round_seconds = 0;
    std::vector<double> rounds;  // seconds per round
    int64_t checksum = 0;
  };
  const auto open_arm = [&](bool governance_on) {
    db.set_governance_enabled(governance_on);
    Arm arm;
    arm.conn = dbc::DriverManager::GetConnection(url);
    arm.checksum += arm.conn->ExecuteQuery(join3).rows[0][0].as_int();  // warm
    return arm;
  };
  Arm off = open_arm(false);
  Arm on = open_arm(true);
  for (int64_t r = 0; r < rounds; ++r) {
    Arm* const order[2] = {r % 2 == 0 ? &off : &on, r % 2 == 0 ? &on : &off};
    off.round_seconds = on.round_seconds = 0;
    for (int64_t i = 0; i < reps; ++i) {
      for (Arm* arm : order) {
        const Stopwatch watch;
        arm->checksum += arm->conn->ExecuteQuery(join3).rows[0][0].as_int();
        arm->round_seconds += watch.ElapsedSeconds();
      }
    }
    for (Arm* arm : order) arm->rounds.push_back(arm->round_seconds);
  }
  std::vector<double> round_overheads;
  for (int64_t r = 0; r < rounds; ++r) {
    const double base = off.rounds[static_cast<size_t>(r)];
    round_overheads.push_back(
        base > 0 ? (on.rounds[static_cast<size_t>(r)] - base) / base * 100.0
                 : 0);
  }
  const double off_seconds = Median(off.rounds);
  const double on_seconds = Median(on.rounds);
  const bool bit_identical = on.checksum == off.checksum;
  const double overhead_pct = Median(round_overheads);
  std::cout << "accounting A/B (" << reps << " reps, median of " << rounds
            << " paired rounds):\n"
            << std::fixed << std::setprecision(4)              //
            << "  accounting off  " << off_seconds << " s\n"  //
            << "  accounting on   " << on_seconds << " s\n"
            << "  overhead        " << std::setprecision(2) << overhead_pct
            << " %\n\n";

  // --- 2. shed-mode admission latency ------------------------------------
  // A 1-byte soft watermark keeps the server permanently shedding (the
  // loaded edge table alone crosses it); every Submit must bounce with
  // AdmissionError, and fast — shedding exists to protect an overloaded
  // server, so the rejection path must not queue, plan, or block.
  server::JobServerConfig config;
  config.url = url;
  config.worker_threads = 2;
  config.soft_memory_limit_bytes = 1;
  config.retry_after_ms = 50;
  server::JobServer server(config);
  server::Session session = server.OpenSession("tenant");
  std::vector<double> shed_ms;
  shed_ms.reserve(static_cast<size_t>(shed_tries));
  int64_t admitted = 0;
  for (int64_t i = 0; i < shed_tries; ++i) {
    const Stopwatch watch;
    try {
      session.Submit("SELECT COUNT(*) FROM edges", core::SqloopOptions{});
      ++admitted;
    } catch (const server::AdmissionError&) {
    }
    shed_ms.push_back(watch.ElapsedSeconds() * 1000.0);
  }
  std::sort(shed_ms.begin(), shed_ms.end());
  const double shed_p50 = Percentile(shed_ms, 0.50);
  const double shed_p99 = Percentile(shed_ms, 0.99);
  std::cout << "shed-mode admission (" << shed_tries << " tries):\n"
            << "  p50  " << std::setprecision(4) << shed_p50 << " ms\n"
            << "  p99  " << shed_p99 << " ms\n"
            << "  admitted (must be 0)  " << admitted << "\n\n";

  // Bars: accounting costs <3%, never changes an answer, and shed mode
  // rejects everything it sees without meaningful latency.
  const bool pass =
      overhead_pct < 3.0 && bit_identical && admitted == 0 && shed_p99 < 5.0;

  std::ofstream json(json_path);
  json << std::setprecision(6) << std::fixed;
  json << "{\n  \"accounting\": {\"reps\": " << reps
       << ", \"rounds\": " << rounds
       << ", \"on_seconds\": " << on_seconds
       << ", \"off_seconds\": " << off_seconds
       << ", \"overhead_pct\": " << std::setprecision(3) << overhead_pct
       << ", \"round_overheads_pct\": [";
  for (size_t r = 0; r < round_overheads.size(); ++r) {
    json << (r > 0 ? ", " : "") << round_overheads[r];
  }
  json << "], \"bit_identical\": " << (bit_identical ? "true" : "false")
       << "},\n"
       << "  \"shed\": {\"tries\": " << shed_tries
       << ", \"p50_ms\": " << shed_p50 << ", \"p99_ms\": " << shed_p99
       << ", \"admitted\": " << admitted << "},\n"
       << "  \"peak_rss_bytes\": " << bench::PeakRssBytes() << ",\n"
       << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::cout << "acceptance (<3% overhead, bit-identical, shed p99 < 5ms): "
            << (pass ? "PASS" : "FAIL") << "\nwrote " << json_path << "\n";
  return pass ? 0 : 1;
}
