// Figure 5 reproduction — scaling with the number of SQLoop worker
// threads (each thread owns one connection; the engine answers each
// connection independently, §V-B/§VI-C).
//
//   row 1: PR convergence time vs threads, per engine
//   row 2: SSSP execution time vs threads, per engine
//
// The paper sweeps 1..16 threads on 32 cores; default here is 1..8
// (override with SQLOOP_BENCH_MAX_THREADS).
#include <iomanip>

#include "bench/bench_util.h"
#include "graph/generators.h"

using namespace sqloop;
using namespace sqloop::bench;

namespace {

constexpr core::ExecutionMode kModes[] = {core::ExecutionMode::kSync,
                                          core::ExecutionMode::kAsync,
                                          core::ExecutionMode::kAsyncPriority};

std::vector<int> ThreadCounts() {
  const int max_threads = static_cast<int>(Knob("MAX_THREADS", 8));
  std::vector<int> counts;
  for (int t = 1; t <= max_threads; t *= 2) counts.push_back(t);
  return counts;
}

void Sweep(const std::string& label, const EngineFleet& fleet,
           const std::string& workload, const std::string& query,
           int partitions) {
  std::cout << "[" << label << "]\n";
  std::cout << "engine      mode    threads  exec_time_s  rounds  updates\n";
  for (const auto& engine : Engines()) {
    for (const auto mode : kModes) {
      for (const int threads : ThreadCounts()) {
        const auto run =
            RunQuery(fleet.Url(engine),
                     ModeOptions(mode, threads, partitions, workload), query);
        std::cout << std::left << std::setw(12) << engine << std::setw(8)
                  << ModeLabel(mode) << std::setw(9) << threads << std::fixed
                  << std::setprecision(3) << std::setw(13) << run.seconds
                  << std::setw(8) << run.stats.iterations
                  << run.stats.total_updates << "\n";
        ResultLine("fig5")
            .Add("panel", label)
            .Add("engine", engine)
            .Add("mode", ModeLabel(mode))
            .Add("threads", threads)
            .Add("seconds", run.seconds)
            .Add("rounds", run.stats.iterations)
            .Add("updates", static_cast<int64_t>(run.stats.total_updates))
            .Print();
      }
    }
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  const int partitions = static_cast<int>(Knob("PARTITIONS", 16));
  std::cout << "========================================================\n";
  std::cout << "Figure 5: scaling with SQLoop worker threads "
               "(execution seconds)\n";
  std::cout << "========================================================\n\n";

  {
    const int64_t nodes = Knob("PR_NODES", 6000);
    const int64_t iters = Knob("PR_ITERS", 8);
    const graph::Graph g = graph::MakeWebGraph(nodes, 4, 7);
    EngineFleet fleet("fig5_pr", g);
    std::cout << "--- Fig 5 (row 1): PageRank, " << g.NodeCount()
              << " nodes, " << g.edge_count() << " edges, " << iters
              << " iterations\n";
    Sweep("PR", fleet, "pr", core::workloads::PageRankQuery(iters),
          partitions);
  }
  {
    const int64_t circles = Knob("SSSP_CIRCLES", 40);
    const int64_t circle_size = Knob("SSSP_CIRCLE_SIZE", 12);
    const graph::Graph g =
        graph::MakeEgoNetGraph(circles, circle_size, 0.3, 3);
    EngineFleet fleet("fig5_sssp", g);
    const int64_t dest = (circles - 1) * circle_size + 1;
    std::cout << "--- Fig 5 (row 2): SSSP, " << g.NodeCount() << " nodes, "
              << g.edge_count() << " edges\n";
    Sweep("SSSP", fleet, "sssp", core::workloads::SsspQuery(1, dest),
          partitions);
  }
  return 0;
}
