// micro_storage — the buffer-pool benchmark.
//
// The same web graph is loaded twice: once into a database whose pool is
// unbounded (the oracle — the same slotted pages, but nothing is ever
// evicted, pinned, or copied out), once into a database with
// `buffer_pool_bytes` set to a quarter of the table's tracked bytes. Then
// PageRank runs in all four execution modes on both. Results must match
// mode for mode (bit-identical single-threaded, 1e-9-equivalent in the
// parallel modes whose FP summation order is scheduling-dependent),
// CHECKSUM TABLE must agree across the two databases, the bounded run
// must actually evict, and the pool's resident peak must stay near its
// budget. At paper scale (`SQLOOP_BENCH_PR_NODES` sized so edges >= 7.6M,
// the SNAP soc-LiveJournal row count) this is the fig4/fig5 setting with
// the working set forced through the spill files.
//
// Latency, per-row cost, and compile cost are zeroed so storage CPU is
// what is being compared.
//
// Writes a JSON baseline (default BENCH_storage.json; --json <path> to
// move it) and sqlplot-tools `RESULT key=value ...` lines on stdout.
// Exit code is nonzero if any bounded/unbounded result pair diverges, the
// bounded run never evicts, or the pool's resident peak exceeds twice its
// budget.
//
// Knobs: SQLOOP_BENCH_{POOL_BYTES,PR_NODES,PR_DEG,PR_ITERS,THREADS,
// PARTITIONS}.
#include <algorithm>
#include <cmath>
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

/// Row-set equality within the repo's 1e-9 numeric tolerance (parallel
/// modes only; single-threaded comparisons go through Dump below).
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

/// Order-preserving row dump (%.17g doubles — bit-faithful).
std::string Dump(const dbc::ResultSet& result) {
  std::string out;
  for (const auto& row : result.rows) {
    for (const auto& value : row) out += value.ToString() + "|";
    out += "\n";
  }
  return out;
}

struct ModeRun {
  const char* mode;
  double unbounded_seconds = 0;
  double bounded_seconds = 0;
  bool match = true;
  double overhead() const {
    return unbounded_seconds > 0 ? bounded_seconds / unbounded_seconds : 0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_storage.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: micro_storage [--json <path>]\n";
      return 2;
    }
  }

  // Defaults run PageRank to convergence: the async modes' intermediate
  // states are scheduling-dependent, so only converged ranks are
  // comparable within the 1e-9 tolerance (micro_scan sizes likewise).
  const int64_t nodes = Knob("PR_NODES", 600);
  const int64_t deg = Knob("PR_DEG", 4);
  const int64_t iters = Knob("PR_ITERS", 50);
  const int threads = static_cast<int>(Knob("THREADS", 4));
  const int partitions = static_cast<int>(Knob("PARTITIONS", 8));

  // A private host: the bounded database needs its budget fixed *before*
  // its tables exist (tables latch eviction participation at creation),
  // which EngineFleet's load-at-construction can't express.
  minidb::Server server;
  dbc::DriverManager::RegisterHost("bench_storage", &server);
  auto unbounded_db = server.CreateDatabase(
      "unbounded", minidb::EngineProfile::ByName("postgres"));
  auto bounded_db = server.CreateDatabase(
      "bounded", minidb::EngineProfile::ByName("postgres"));
  const auto url = [](const std::string& db) {
    return "minidb://bench_storage/" + db +
           "?latency_us=0&row_cost_ns=0&compile_us=0";
  };
  auto unbounded_conn = dbc::DriverManager::GetConnection(url("unbounded"));
  auto bounded_conn = dbc::DriverManager::GetConnection(url("bounded"));

  const auto graph = graph::MakeWebGraph(nodes, static_cast<int>(deg), 7);
  graph::LoadEdges(*unbounded_conn, graph);
  const int64_t table_bytes =
      static_cast<int64_t>(unbounded_db->FindTable("edges")->tracked_bytes());
  // A quarter of the dataset: small enough that the working set cannot be
  // resident, large enough that the clock hand isn't thrashing one page.
  const int64_t pool_bytes =
      Knob("POOL_BYTES", std::max<int64_t>(table_bytes / 4, 64 << 10));
  bounded_db->set_buffer_pool_bytes(pool_bytes);
  graph::LoadEdges(*bounded_conn, graph);

  const std::string pr_query = core::workloads::PageRankQuery(iters);
  const std::vector<std::pair<const char*, core::ExecutionMode>> modes = {
      {"SingleThread", core::ExecutionMode::kSingleThread},
      {"Sync", core::ExecutionMode::kSync},
      {"Async", core::ExecutionMode::kAsync},
      {"AsyncP", core::ExecutionMode::kAsyncPriority},
  };

  std::vector<ModeRun> runs;
  std::cout << "bounded pool (" << graph.edges().size() << " edges, "
            << table_bytes << " table bytes, " << pool_bytes
            << " pool budget, PageRank " << iters << " iterations):\n"
            << std::left << std::setw(14) << "mode" << std::right
            << std::setw(12) << "unbounded" << std::setw(12) << "bounded"
            << std::setw(11) << "overhead" << std::setw(8) << "match"
            << "\n";
  for (const auto& [label, mode] : modes) {
    ModeRun run;
    run.mode = label;
    const auto options = bench::ModeOptions(mode, threads, partitions, "pr");
    dbc::ResultSet results[2];
    const std::string urls[2] = {url("unbounded"), url("bounded")};
    double* seconds[2] = {&run.unbounded_seconds, &run.bounded_seconds};
    for (int arm = 0; arm < 2; ++arm) {
      double best = 0;
      for (int trial = 0; trial < 3; ++trial) {
        const auto timed = bench::RunQuery(urls[arm], options, pr_query);
        if (trial == 0 || timed.seconds < best) best = timed.seconds;
        results[arm] = timed.result;
      }
      *seconds[arm] = best;
    }
    // Single-threaded execution is deterministic: demand bit-identical
    // dumps. The parallel modes sum FP in scheduling order, so they get
    // the same 1e-9 tolerance the equivalence tests use.
    run.match = mode == core::ExecutionMode::kSingleThread
                    ? Dump(results[0]) == Dump(results[1])
                    : Equivalent(results[0], results[1]);
    std::cout << std::left << std::setw(14) << run.mode << std::right
              << std::fixed << std::setprecision(4) << std::setw(12)
              << run.unbounded_seconds << std::setw(12) << run.bounded_seconds
              << std::setprecision(2) << std::setw(10) << run.overhead()
              << "x" << std::setw(8) << (run.match ? "yes" : "NO") << "\n";
    bench::ResultLine line("micro_storage");
    line.Add("arm", "bounded_pool")
        .Add("mode", run.mode)
        .Add("edges", static_cast<int64_t>(graph.edges().size()))
        .Add("pool_bytes", pool_bytes)
        .Add("unbounded_seconds", run.unbounded_seconds)
        .Add("bounded_seconds", run.bounded_seconds)
        .Add("overhead", run.overhead())
        .Add("match", run.match);
    line.Print();
    runs.push_back(run);
  }

  // The maintained content checksums must agree across pool budgets.
  const auto checksum = [](dbc::Connection& conn) {
    return conn.ExecuteQuery("CHECKSUM TABLE edges").rows[0][1].as_text();
  };
  const bool checksums_match =
      checksum(*unbounded_conn) == checksum(*bounded_conn);

  const auto pool = bounded_db->buffer_pool().stats();
  const bool evicted = pool.pages_evicted > 0 && pool.bytes_spilled > 0;
  // FaultIn evicts right after each residency increase, so the peak can
  // legitimately overshoot by in-flight pinned pages — but a peak past
  // 2x budget means the pool is not actually bounding the working set.
  const bool peak_bounded = pool.resident_peak <= 2 * pool_bytes;

  std::cout << "\npool: hits " << pool.hits << "  misses " << pool.misses
            << "  evicted " << pool.pages_evicted << "  spilled "
            << pool.bytes_spilled << " bytes  resident_peak "
            << pool.resident_peak << " (budget " << pool_bytes << ")\n";
  {
    bench::ResultLine line("micro_storage");
    line.Add("arm", "pool_stats")
        .Add("hits", pool.hits)
        .Add("misses", pool.misses)
        .Add("pages_evicted", pool.pages_evicted)
        .Add("bytes_spilled", pool.bytes_spilled)
        .Add("resident_peak", pool.resident_peak)
        .Add("pool_bytes", pool_bytes)
        .Add("peak_rss_bytes", bench::PeakRssBytes());
    line.Print();
  }

  bool results_match = checksums_match;
  for (const auto& run : runs) results_match &= run.match;
  std::cout << "\nall bounded/unbounded results match: "
            << (results_match ? "yes" : "NO")
            << "\nbounded run evicted and spilled: "
            << (evicted ? "yes" : "NO")
            << "\nresident peak within 2x budget: "
            << (peak_bounded ? "yes" : "NO") << "\n";

  std::ofstream json(json_path);
  json << std::setprecision(6) << std::fixed;
  json << "{\n  \"bounded\": {\"edges\": " << graph.edges().size()
       << ", \"table_bytes\": " << table_bytes
       << ", \"pool_bytes\": " << pool_bytes
       << ", \"iterations\": " << iters << ", \"threads\": " << threads
       << ", \"partitions\": " << partitions << ", \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const ModeRun& r = runs[i];
    json << "    {\"mode\": \"" << r.mode
         << "\", \"unbounded_seconds\": " << r.unbounded_seconds
         << ", \"bounded_seconds\": " << r.bounded_seconds
         << ", \"overhead\": " << r.overhead()
         << ", \"match\": " << (r.match ? "true" : "false") << "}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ]},\n  \"pool\": {\"hits\": " << pool.hits
       << ", \"misses\": " << pool.misses
       << ", \"pages_evicted\": " << pool.pages_evicted
       << ", \"bytes_spilled\": " << pool.bytes_spilled
       << ", \"resident_peak\": " << pool.resident_peak << "}"
       << ",\n  \"checksums_match\": " << (checksums_match ? "true" : "false")
       << ",\n  \"peak_rss_bytes\": " << bench::PeakRssBytes()
       << ",\n  \"results_match\": " << (results_match ? "true" : "false")
       << "\n}\n";
  std::cout << "wrote " << json_path << "\n";

  dbc::DriverManager::RegisterHost("bench_storage", nullptr);
  return results_match && evicted && peak_bounded ? 0 : 1;
}
