// Figure 4 reproduction — "SQLoop using a single thread".
//
// Three panels per the paper:
//   (a) SSSP execution time bars: Sync / Async / AsyncP per engine.
//   (b) PR convergence (sum of rank) over time, per engine.
//   (c) DQ execution time vs number of nodes explored, per engine.
//
// Laptop-scale defaults; export SQLOOP_BENCH_* to scale up (see README).
//   SQLOOP_BENCH_PR_NODES, SQLOOP_BENCH_PR_ITERS, SQLOOP_BENCH_PARTITIONS,
//   SQLOOP_BENCH_SSSP_CIRCLES, SQLOOP_BENCH_DQ_HOSTS, ...
#include <iomanip>

#include "bench/bench_util.h"
#include "graph/generators.h"

using namespace sqloop;
using namespace sqloop::bench;

namespace {

constexpr core::ExecutionMode kModes[] = {core::ExecutionMode::kSync,
                                          core::ExecutionMode::kAsync,
                                          core::ExecutionMode::kAsyncPriority};

void RunSssp(int unused_default) {
  // The traversal panels pick partition counts proportional to their
  // dataset sizes (the paper's fixed 256 partitions on multi-million-edge
  // graphs corresponds to hundreds of rows per partition).
  const int partitions = static_cast<int>(Knob("SSSP_PARTITIONS", 48));
  (void)unused_default;
  // Sparse, long-path ego-net: SSSP touches a small frontier at a time,
  // which is where prioritized scheduling shines (paper §VI-B).
  // Directed ego-net (Twitter follower edges are directed): traversal
  // moves forward only, so the frontier stays sparse — the regime where
  // prioritized scheduling pays (paper §VI-B).
  const int64_t circles = Knob("SSSP_CIRCLES", 60);
  const int64_t circle_size = Knob("SSSP_CIRCLE_SIZE", 10);
  const graph::Graph g = graph::MakeEgoNetGraph(circles, circle_size, 0.35,
                                                42, /*bidirectional=*/false);
  const int64_t source = 1;
  const int64_t dest = (circles - 1) * circle_size + 1;
  EngineFleet fleet("fig4_sssp", g);

  std::cout << "--- Fig 4 (top-left): SSSP execution time, 1 SQLoop thread\n";
  std::cout << "dataset: ego-net stand-in for Twitter, " << g.NodeCount()
            << " nodes, " << g.edge_count() << " edges; source=" << source
            << " dest=" << dest << "\n";
  std::cout << "engine      mode    exec_time_s  rounds  updates  "
               "skipped_tasks\n";
  for (const auto& engine : Engines()) {
    for (const auto mode : kModes) {
      const auto run = RunQuery(
          fleet.Url(engine), ModeOptions(mode, 1, partitions, "sssp"),
          core::workloads::SsspQuery(source, dest));
      std::cout << std::left << std::setw(12) << engine << std::setw(8)
                << ModeLabel(mode) << std::fixed << std::setprecision(3)
                << std::setw(13) << run.seconds << std::setw(8)
                << run.stats.iterations << std::setw(9)
                << run.stats.total_updates << run.stats.skipped_tasks << "\n";
      ResultLine("fig4_sssp")
          .Add("engine", engine)
          .Add("mode", ModeLabel(mode))
          .Add("seconds", run.seconds)
          .Add("rounds", run.stats.iterations)
          .Add("updates", static_cast<int64_t>(run.stats.total_updates))
          .Add("skipped_tasks",
               static_cast<int64_t>(run.stats.skipped_tasks))
          .Print();
    }
  }
  std::cout << "\n";
}

void RunPageRank(int unused_default) {
  const int partitions = static_cast<int>(Knob("PR_PARTITIONS", 16));
  (void)unused_default;
  const int64_t nodes = Knob("PR_NODES", 6000);
  const int64_t iters = Knob("PR_ITERS", 10);
  const graph::Graph g =
      graph::MakeWebGraph(nodes, 4, /*seed=*/7);
  EngineFleet fleet("fig4_pr", g);

  std::cout << "--- Fig 4 (top row): PR convergence (sum of rank) vs time, "
               "1 SQLoop thread, " << iters << " iterations\n";
  std::cout << "dataset: web-graph stand-in for web-Google, "
            << g.NodeCount() << " nodes, " << g.edge_count() << " edges\n";
  for (const auto& engine : Engines()) {
    std::cout << "[PR with " << engine << "]\n";
    for (const auto mode : kModes) {
      double total = 0;
      const auto samples = RunWithConvergenceSampling(
          fleet.Url(engine), ModeOptions(mode, 1, partitions, "pr"),
          core::workloads::PageRankQuery(iters), "PageRank",
          /*period_ms=*/50, &total);
      std::cout << "  " << std::left << std::setw(8) << ModeLabel(mode)
                << "total=" << std::fixed << std::setprecision(3) << total
                << "s  convergence:";
      for (const auto& p : samples) {
        std::cout << " (" << std::setprecision(2) << p.seconds << "s,"
                  << std::setprecision(1) << p.sum_of_rank << ")";
      }
      std::cout << "\n";
      ResultLine("fig4_pr")
          .Add("engine", engine)
          .Add("mode", ModeLabel(mode))
          .Add("seconds", total)
          .Add("samples", static_cast<int64_t>(samples.size()))
          .Print();
    }
  }
  std::cout << "\n";
}

void RunDescendant(int unused_default) {
  const int partitions = static_cast<int>(Knob("DQ_PARTITIONS", 8));
  (void)unused_default;
  const int64_t hosts = Knob("DQ_HOSTS", 60);
  const int64_t backbone = Knob("DQ_BACKBONE", 80);
  const graph::Graph g = graph::MakeHostGraph(hosts, 8, backbone, 11);
  EngineFleet fleet("fig4_dq", g);

  std::cout << "--- Fig 4 (bottom row): DQ execution time vs nodes "
               "explored, 1 SQLoop thread\n";
  std::cout << "dataset: host-graph stand-in for web-BerkStan, "
            << g.NodeCount() << " nodes, " << g.edge_count() << " edges\n";
  for (const auto& engine : Engines()) {
    std::cout << "[DQ with " << engine << "]\n";
    std::cout << "  mode    hops  nodes_explored  exec_time_s\n";
    for (const auto mode : kModes) {
      for (const int64_t hops :
           {int64_t{4}, int64_t{8}, int64_t{16}, int64_t{32}, backbone}) {
        const auto run = RunQuery(
            fleet.Url(engine), ModeOptions(mode, 1, partitions, "dq"),
            core::workloads::DescendantQueryBounded(0, hops));
        std::cout << "  " << std::left << std::setw(8) << ModeLabel(mode)
                  << std::setw(6) << hops << std::setw(16)
                  << run.result.rows.size() << std::fixed
                  << std::setprecision(3) << run.seconds << "\n";
        ResultLine("fig4_dq")
            .Add("engine", engine)
            .Add("mode", ModeLabel(mode))
            .Add("hops", hops)
            .Add("nodes_explored",
                 static_cast<int64_t>(run.result.rows.size()))
            .Add("seconds", run.seconds)
            .Print();
      }
    }
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << "========================================================\n";
  std::cout << "Figure 4: Sync vs Async vs AsyncP with one SQLoop thread\n";
  std::cout << "(per-panel partition counts; see EXPERIMENTS.md)\n";
  std::cout << "========================================================\n\n";
  RunSssp(0);
  RunPageRank(0);
  RunDescendant(0);
  return 0;
}
