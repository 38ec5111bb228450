// sqloop_perfbench — one end-to-end benchmark of SQLoop jobs, split by
// layer. README.md beside this file documents the workloads and metrics.
//
//   sqloop_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--scale full|tiny] [--corrupt-every <k>]
//                    [--trace-out <path>]
//
// Every workload is a closed loop against the embedded minidb with the
// modeled costs off (latency_us=0&row_cost_ns=0&compile_us=0): a client
// submits its next job as soon as the previous answer is back, and every
// answer is checked against graph/reference. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
//
// Per-layer numbers are measured from outside the program: the benchmark
// times its own calls into each module and reads the counters, timers and
// spans the program already exposes (RunStats::recorder, per_iteration(),
// JobServer). In a traced run every other job is traced, so the traced and
// untraced latencies of one run give the tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/sqloop.h"
#include "core/workloads.h"
#include "dbc/driver.h"
#include "graph/generators.h"
#include "graph/loader.h"
#include "graph/reference.h"
#include "minidb/server.h"
#include "server/job_server.h"

extern char** environ;

namespace {

using namespace sqloop;

// Setup runs this many times per process and setup_s is their median, so
// one slow repetition (first page faults, allocator growth) does not move
// it. The last repetition's deployment is the one measured.
constexpr int kSetupRepeats = 9;
// Warm-up jobs per job kind, run during setup and checked like the rest:
// plan cache, pooled connections and the allocator are warm when timing
// starts.
constexpr int kWarmupJobsPerKind = 2;
// The closed loop runs this long before timing starts. Its jobs are
// checked but not measured: in the first two seconds of a fresh process,
// service-mix jobs ran 1.6x slower than later in the run. It is not part
// of setup_s, which would otherwise be mostly this constant.
constexpr double kRampSeconds = 2;
// A run goes on past --seconds until this many jobs are answered correctly,
// so at least ten lie beyond the nearest-rank job_p90_s. It stops at
// kMaxRunSeconds regardless, well inside the caller's time limit.
constexpr size_t kMinCorrectJobs = 100;
constexpr double kMaxRunSeconds = 120;

// The paper's cost model, with the fleet defaults of bench/bench_util.h:
// 100us per round trip, 3000ns per examined row, 150us per compiled
// statement. dbc.modeled_s applies them to exact counters instead of
// sleeping them.
constexpr double kModeledRoundTripS = 100e-6;
constexpr double kModeledRowS = 3000e-9;
constexpr double kModeledCompileS = 150e-6;

constexpr int64_t kPageRankIterations = 10;

// service-mix's host graph (the web-BerkStan stand-in): hosts of
// kPagesPerHost pages hang off a navigation backbone of kBackbone clicks.
constexpr int64_t kHosts = 40;
constexpr int64_t kPagesPerHost = 16;
constexpr int64_t kBackbone = 10;

// sssp-async's graph: this many directed ego-nets under one root.
constexpr int64_t kEgoNets = 8;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class QueryKind { kPageRank, kSssp, kDq };
enum class GraphKind { kWeb, kEgoNet, kHost };

struct Spec {
  std::string name;
  bool service = false;     // JobServer + tenant sessions, else SqLoop facade
  GraphKind graph = GraphKind::kWeb;
  int64_t graph_size = 0;   // web: nodes; ego-net: circles; host: hosts
  core::ExecutionMode mode = core::ExecutionMode::kSync;
  int threads = 1;
  int partitions = 1;
  int64_t buffer_pool_bytes = 0;  // 0 = unbounded pool
  std::vector<QueryKind> queries;
};

/// The four workloads. Sizes are fixed here, never read from the
/// environment; `tiny` is the self-test scale. The parallel workloads use
/// 2 worker threads: on a 4-vCPU machine that sustains about two CPUs,
/// 3 busy workers lost a third of their CPU time to the hypervisor.
Spec MakeSpec(const std::string& name, bool tiny) {
  Spec spec;
  spec.name = name;
  if (name == "pagerank-sync" || name == "pagerank-spill") {
    spec.graph_size = tiny ? 300 : 1500;
    spec.mode = core::ExecutionMode::kSync;
    spec.threads = 2;
    spec.partitions = 16;
    spec.queries = {QueryKind::kPageRank};
    if (name == "pagerank-spill") {
      // Well below the bytes of the edges table plus the PageRank state.
      spec.buffer_pool_bytes = tiny ? 16 * 1024 : 1024 * 1024;
    }
  } else if (name == "sssp-async") {
    spec.graph = GraphKind::kEgoNet;
    spec.graph_size = tiny ? 2 : 4;
    spec.mode = core::ExecutionMode::kAsync;
    spec.threads = 2;
    spec.partitions = tiny ? 8 : 48;
    spec.queries = {QueryKind::kSssp};
  } else if (name == "service-mix") {
    spec.service = true;
    spec.graph = GraphKind::kHost;
    spec.graph_size = tiny ? 6 : kHosts;
    spec.mode = core::ExecutionMode::kSingleThread;
    spec.threads = 1;
    spec.partitions = 1;
    spec.queries = {QueryKind::kPageRank, QueryKind::kSssp, QueryKind::kDq};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

// service-mix: four tenants, each keeping one job outstanding.
const std::vector<double> kTenantWeights = {1, 1, 2, 4};

std::string TenantName(size_t t) { return "tenant" + std::to_string(t); }

/// Derives an independent stream from the workload seed (splitmix64 step),
/// so every generated input follows from --seed alone.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// sssp-async's graph: kEgoNets directed ego-nets of `circles` circles of
/// 10, each hanging off root node 1. SSSP work sums over independent
/// ego-nets, so it varies less between seeds than one long chain does.
graph::Graph MakeEgoNetForest(int64_t circles, uint64_t seed) {
  graph::Graph forest;
  const int64_t nodes_per_net = circles * 10;
  for (int64_t net = 0; net < kEgoNets; ++net) {
    const graph::Graph part = graph::MakeEgoNetGraph(
        circles, 10, 0.35, DeriveSeed(seed, static_cast<uint64_t>(net)),
        /*bidirectional=*/false);
    const int64_t offset = 1 + net * nodes_per_net;  // ids start at 2
    forest.AddEdge(1, offset + 1);
    for (const graph::Edge& edge : part.edges()) {
      forest.AddEdge(edge.src + offset, edge.dst + offset);
    }
  }
  forest.AssignOutDegreeWeights();
  return forest;
}

// ---------------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------------

/// The answer a job must return: node -> value, exact unless `tolerance`.
struct Expected {
  std::unordered_map<int64_t, double> values;
  double tolerance = 0;
};

struct JobKind {
  std::string label;
  std::string sql;
  Expected expected;
};

bool Matches(const dbc::ResultSet& result, const Expected& expected) {
  if (result.rows.size() != expected.values.size()) return false;
  std::unordered_set<int64_t> seen;
  for (const auto& row : result.rows) {
    if (row.size() != 2 || !row[0].is_int() || !row[1].is_numeric()) {
      return false;
    }
    const int64_t node = row[0].as_int();
    const auto it = expected.values.find(node);
    if (it == expected.values.end() || !seen.insert(node).second) return false;
    const double diff = std::fabs(row[1].NumericAsDouble() - it->second);
    if (expected.tolerance == 0 ? diff != 0 : !(diff <= expected.tolerance)) {
      return false;
    }
  }
  return true;
}

/// Self-test hook: makes a correct answer wrong.
void Corrupt(dbc::ResultSet& result) {
  if (result.rows.empty() || result.rows[0].size() < 2) {
    result.rows.push_back({Value(int64_t{-1}), Value(0.0)});
    return;
  }
  result.rows[0][1] = Value(result.rows[0][1].NumericAsDouble() + 1.0);
}

// ---------------------------------------------------------------------------
// Trace: the benchmark's own spans, kept in memory, written at the end
// ---------------------------------------------------------------------------

struct Span {
  uint64_t job = 0;      // spans of one job share it; 0 = setup
  std::string name;
  std::string parent;    // name of the enclosing span ("" = root)
  double start = 0;      // seconds since process start of the benchmark
  double seconds = 0;
  double self = 0;       // seconds not covered by child spans
  int64_t round = -1;
  int64_t partition = -1;
  uint64_t thread = 0;
};

using Trace = std::vector<Span>;

const Stopwatch& BenchClock() {
  static const Stopwatch clock;
  return clock;
}

double Now() { return BenchClock().ElapsedSeconds(); }

/// Length of [lo, hi) covered by the union of `intervals`.
double Covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

std::string SpanName(telemetry::SpanKind kind) {
  return std::string("core.") + telemetry::SpanKindName(kind);
}

// ---------------------------------------------------------------------------
// Deployment: one minidb server with the workload's graph loaded
// ---------------------------------------------------------------------------

struct SetupTimes {
  double generate = 0;
  double load = 0;
  double reference = 0;  // the benchmark's answer oracle, not in total()
  double warmup = 0;
  double total() const { return generate + load + warmup; }
};

class Deployment {
 public:
  Deployment(const Spec& spec, uint64_t seed, int repeat, Trace* trace,
             SetupTimes* times)
      : spec_(spec), host_("perfbench" + std::to_string(repeat)) {
    dbc::DriverManager::RegisterHost(host_, &server_);
    server_.CreateDatabase("postgres", minidb::EngineProfile::Postgres());
    url_ = "minidb://" + host_ +
           "/postgres?latency_us=0&row_cost_ns=0&compile_us=0";
    if (spec.buffer_pool_bytes > 0) {
      url_ += "&buffer_pool_bytes=" + std::to_string(spec.buffer_pool_bytes);
    }

    const auto timed = [&](const std::string& name, auto&& body) {
      const double start = Now();
      body();
      const double seconds = Now() - start;
      trace->push_back({0, name, "setup", start, seconds, seconds});
      return seconds;
    };

    graph::Graph graph;
    times->generate = timed("graph.generate", [&] {
      const uint64_t graph_seed = DeriveSeed(seed, 1);
      switch (spec.graph) {
        case GraphKind::kWeb:
          graph = graph::MakeWebGraph(spec.graph_size, 4, graph_seed);
          break;
        case GraphKind::kEgoNet:
          graph = MakeEgoNetForest(spec.graph_size, graph_seed);
          break;
        case GraphKind::kHost:
          graph = graph::MakeHostGraph(spec.graph_size, kPagesPerHost,
                                       kBackbone, graph_seed);
          break;
      }
    });
    times->load = timed("graph.load", [&] {
      // The program receives only the generated edges.
      auto conn = dbc::DriverManager::GetConnection(url_);
      graph::LoadEdges(*conn, graph);
    });
    // SSSP on the directed ego-net starts at node 1, in the first circle,
    // so the whole chain is reachable. On the host graph node 0 heads the
    // navigation backbone: every page is reachable from it, at a depth the
    // generator fixes, so the work of a job does not swing with the seed.
    const int64_t source = spec.graph == GraphKind::kEgoNet ? 1 : 0;
    times->reference = timed("graph.reference", [&] {
      for (const QueryKind query : spec.queries) {
        JobKind kind;
        switch (query) {
          case QueryKind::kPageRank: {
            kind.label = "pagerank";
            kind.sql = core::workloads::PageRankQuery(kPageRankIterations);
            const auto ranks = graph::PageRankReference(
                graph, static_cast<int>(kPageRankIterations));
            kind.expected.values.insert(ranks.rank.begin(), ranks.rank.end());
            kind.expected.tolerance = 1e-9;
            break;
          }
          case QueryKind::kSssp: {
            kind.label = "sssp";
            kind.sql = core::workloads::SsspAllQuery(source);
            const auto distances = graph::Dijkstra(graph, source);
            kind.expected.values.insert(distances.begin(), distances.end());
            break;
          }
          case QueryKind::kDq: {
            kind.label = "dq";
            kind.sql = core::workloads::DescendantQuery(source);
            for (const auto& [node, hops] : graph::BfsHops(graph, source)) {
              kind.expected.values[node] = static_cast<double>(hops);
            }
            break;
          }
        }
        kinds_.push_back(std::move(kind));
      }
    });

    if (spec.service) {
      server::JobServerConfig config;
      config.url = url_;
      config.worker_threads = 2;
      config.max_running_jobs = 4;
      // One round in flight per shared worker: the weighted scheduler
      // decides which tenant's job runs its next round.
      config.max_active_rounds = 2;
      config.queue_capacity = 16;
      config.max_inflight_per_tenant = 2;
      config.history_limit = 16;
      config.seed = DeriveSeed(seed, 2);
      job_server_ = std::make_unique<server::JobServer>(std::move(config));
      for (size_t t = 0; t < kTenantWeights.size(); ++t) {
        server::SessionOptions options;
        options.weight = kTenantWeights[t];
        sessions_.push_back(job_server_->OpenSession(TenantName(t), options));
      }
    } else {
      loop_ = std::make_unique<core::SqLoop>(url_);
    }

    times->warmup = timed("warmup", [&] {
      for (int i = 0; i < kWarmupJobsPerKind; ++i) {
        for (const auto& kind : kinds_) {
          const dbc::ResultSet result =
              spec.service ? job_server_->OpenSession("warmup")
                                 .Submit(kind.sql, Options())
                                 .Wait()
                           : loop_->Execute(kind.sql, Options());
          if (!Matches(result, kind.expected)) {
            throw std::runtime_error("warm-up " + kind.label +
                                     " job returned a wrong answer");
          }
        }
      }
    });
  }

  ~Deployment() {
    loop_.reset();
    job_server_.reset();
    dbc::DriverManager::RegisterHost(host_, nullptr);
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  core::SqloopOptions Options() const {
    core::SqloopOptions options;
    options.mode = spec_.mode;
    options.threads = spec_.threads;
    options.partitions = spec_.partitions;
    return options;
  }

  const std::vector<JobKind>& kinds() const { return kinds_; }
  core::SqLoop& loop() { return *loop_; }
  server::JobServer& job_server() { return *job_server_; }
  const server::Session& session(size_t t) const { return sessions_[t]; }

 private:
  const Spec spec_;
  minidb::Server server_;
  std::string host_;
  std::string url_;
  std::vector<JobKind> kinds_;
  std::unique_ptr<core::SqLoop> loop_;
  std::unique_ptr<server::JobServer> job_server_;
  std::vector<server::Session> sessions_;
};

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

struct JobSample {
  uint64_t id = 0;
  size_t kind = 0;
  double start = 0;    // Now() at submit
  double latency = 0;  // submit until the answer is back
  bool ok = false;
  bool measured = false;  // started after the ramp
  bool traced = false;
  // Traced jobs only.
  double check_seconds = 0;
  double queue_seconds = 0;
  double run_seconds = 0;
  core::RunStats stats;
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool tiny = false;
  int64_t corrupt_every = 0;
  std::string trace_out;
};

/// When the clients stop: at the deadline once kMinCorrectJobs measured
/// jobs were answered correctly (over all clients), or at the hard limit.
/// Jobs that start before `ramp_end` are not measured.
struct StopRule {
  double ramp_end = 0;
  double deadline = 0;
  double hard_limit = 0;
  std::atomic<size_t> correct{0};

  bool Done() const {
    const double now = Now();
    return now >= hard_limit ||
           (now >= deadline && correct.load() >= kMinCorrectJobs);
  }
};

/// One client's loop: submits jobs back to back until `stop` says done.
/// Job ids are client * 2^32 + sequence, so they are unique across
/// clients.
template <typename Submit>
void ClientLoop(size_t client, const Deployment& deployment,
                const Args& args, StopRule& stop, Submit&& submit,
                std::vector<JobSample>* samples) {
  const auto& kinds = deployment.kinds();
  // Each block of kinds.size() jobs runs every kind once, in a seeded
  // random order per client: the mix is exact, and tenants do not lock
  // into a phase where the same pair of jobs always collides.
  Rng rng(DeriveSeed(args.seed, 100 + client));
  std::vector<size_t> block(kinds.size());
  for (uint64_t i = 0; !stop.Done(); ++i) {
    if (i % kinds.size() == 0) {
      for (size_t k = 0; k < block.size(); ++k) block[k] = k;
      for (size_t k = block.size(); k > 1; --k) {
        std::swap(block[k - 1], block[rng.NextBelow(k)]);
      }
    }
    JobSample sample;
    sample.id = (static_cast<uint64_t>(client) << 32) + i + 1;
    sample.kind = block[i % kinds.size()];
    sample.traced = args.trace && i % 2 == 0;
    const JobKind& kind = kinds[sample.kind];
    try {
      sample.start = Now();
      sample.measured = sample.start >= stop.ramp_end;
      dbc::ResultSet result = submit(kind, sample);
      sample.latency = Now() - sample.start;
      if (args.corrupt_every > 0 &&
          (samples->size() + 1) % static_cast<size_t>(args.corrupt_every) ==
              0) {
        Corrupt(result);
      }
      const double check_start = Now();
      sample.ok = Matches(result, kind.expected);
      sample.check_seconds = Now() - check_start;
      if (sample.ok && sample.measured) stop.correct.fetch_add(1);
      if (!sample.ok) {
        std::cerr << "wrong answer: " << kind.label << " job " << sample.id
                  << "\n";
      }
    } catch (const std::exception& e) {
      sample.latency = Now() - sample.start;
      sample.ok = false;
      std::cerr << "job failed: " << kind.label << " job " << sample.id
                << ": " << e.what() << "\n";
    }
    samples->push_back(std::move(sample));
  }
}

/// Runs the closed loop. `*wall` is the measured time: from the end of the
/// ramp until the last client is done.
std::vector<JobSample> RunWorkload(const Spec& spec, Deployment& deployment,
                                   const Args& args, double* wall) {
  StopRule stop;
  stop.ramp_end = Now() + kRampSeconds;
  stop.deadline = stop.ramp_end + args.seconds;
  stop.hard_limit = stop.ramp_end + std::max(args.seconds, kMaxRunSeconds);
  std::vector<JobSample> samples;
  if (!spec.service) {
    core::SqLoop& loop = deployment.loop();
    const core::SqloopOptions options = deployment.Options();
    ClientLoop(
        0, deployment, args, stop,
        [&](const JobKind& kind, JobSample& sample) {
          dbc::ResultSet result = loop.Execute(kind.sql, options);
          if (sample.traced) {
            sample.stats = loop.last_run();
            const auto jobs = loop.job_server().Jobs();
            if (!jobs.empty()) {
              sample.queue_seconds = jobs.back().queue_seconds;
              sample.run_seconds = jobs.back().run_seconds;
            }
          }
          return result;
        },
        &samples);
  } else {
    const core::SqloopOptions options = deployment.Options();
    std::vector<std::vector<JobSample>> per_client(kTenantWeights.size());
    std::vector<std::thread> clients;
    for (size_t t = 0; t < kTenantWeights.size(); ++t) {
      clients.emplace_back([&, t] {
        const server::Session& session = deployment.session(t);
        ClientLoop(
            t, deployment, args, stop,
            [&](const JobKind& kind, JobSample& sample) {
              const server::JobHandle handle =
                  session.Submit(kind.sql, options);
              dbc::ResultSet result = handle.Wait();
              if (sample.traced) {
                sample.stats = handle.Stats();
                sample.queue_seconds = handle.queue_seconds();
                sample.run_seconds = handle.run_seconds();
              }
              return result;
            },
            &per_client[t]);
      });
    }
    for (auto& client : clients) client.join();
    for (auto& client_samples : per_client) {
      for (auto& sample : client_samples) samples.push_back(std::move(sample));
    }
  }
  *wall = Now() - stop.ramp_end;
  return samples;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;  // what a ratio is taken over, for the human summary
};

double PeakRssMib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-layer metrics of the traced jobs. Per-job values are medians over
/// the traced jobs; ratios are taken over the run's totals.
std::vector<Metric> LayerMetrics(const Spec& spec, Deployment& deployment,
                                 const std::vector<JobSample>& samples,
                                 const SetupTimes& setup, Trace* trace) {
  std::map<std::string, std::vector<double>> per_job;
  std::map<std::string, double> totals;
  std::vector<double> traced_latency;
  std::vector<double> untraced_latency;

  for (const JobSample& sample : samples) {
    if (!sample.measured) continue;
    (sample.traced ? traced_latency : untraced_latency)
        .push_back(sample.latency);
    if (!sample.traced) continue;
    const core::RunStats& stats = sample.stats;
    const telemetry::Recorder empty;
    const telemetry::Recorder& rec = stats.recorder ? *stats.recorder : empty;
    const auto count = [&](const char* name) {
      return static_cast<double>(rec.counter(name));
    };
    const auto push = [&](const std::string& name, double value) {
      per_job[name].push_back(value);
    };

    push("sql.parse_s", rec.timer_seconds("sql.parse_seconds"));
    push("sql.parses_per_job", count("sql.parse_count"));
    push("core.rounds_per_job", static_cast<double>(stats.iterations));
    double compute = 0, gather = 0, barrier = 0;
    for (const auto& round : stats.per_iteration()) {
      compute += round.compute_seconds;
      gather += round.gather_seconds;
      barrier += round.barrier_wait_seconds;
    }
    push("core.compute_s", compute);
    push("core.gather_s", gather);
    push("core.barrier_wait_s", barrier);
    push("core.message_tables_per_job",
         static_cast<double>(stats.message_tables));
    push("dbc.statements_per_job", count("dbc.statements"));
    push("dbc.round_trips_per_job", count("dbc.round_trips"));
    push("dbc.batches_per_job", count("dbc.batches"));
    push("dbc.modeled_s", count("dbc.round_trips") * kModeledRoundTripS +
                              count("minidb.rows_examined") * kModeledRowS +
                              count("sql.parse_count") * kModeledCompileS);
    push("minidb.rows_examined_per_job", count("minidb.rows_examined"));
    push("minidb.rows_materialized_per_job", count("minidb.rows_materialized"));
    push("minidb.plan_rebinds_per_job", count("minidb.plan_rebinds"));
    push("minidb.lock_wait_s", rec.timer_seconds("minidb.lock_wait_seconds"));
    push("minidb.pages_evicted_per_job", count("minidb.pages_evicted"));
    push("minidb.bytes_spilled_per_job", count("minidb.bytes_spilled"));
    push("server.queue_wait_s", sample.queue_seconds);
    push("server.run_s", sample.run_seconds);
    push("server.target_wait_s",
         rec.timer_seconds("service.target_wait_seconds"));
    push("trace.check_s", sample.check_seconds);

    totals["vectorized"] += count("minidb.vectorized_cores");
    totals["scalar"] += count("minidb.scalar_fallbacks");
    totals["plan_hits"] += count("minidb.plan_cache_hits");
    totals["plan_misses"] += count("minidb.plan_cache_misses");
    totals["pool_hits"] += count("minidb.pool_hits");
    totals["pool_misses"] += count("minidb.pool_misses");

    // Merge the recorder's task spans under the job span. Their times are
    // offsets from the start of the run, which begins at dispatch.
    const double job_start = sample.start;
    const double job_end = sample.start + sample.latency;
    const double run_start = job_start + sample.queue_seconds;
    std::vector<std::pair<double, double>> children;
    for (const auto& task : rec.SpansSnapshot()) {
      if (task.kind == telemetry::SpanKind::kCompute ||
          task.kind == telemetry::SpanKind::kMerge) {
        totals["tasks"] += 1;
        if (task.updates > 0) totals["useful_tasks"] += 1;
      }
      Span span;
      span.job = sample.id;
      span.name = SpanName(task.kind);
      span.parent = "job";
      span.start = run_start + task.start_seconds;
      span.seconds = task.duration_seconds;
      span.self = task.duration_seconds;
      span.round = task.round;
      span.partition = task.partition;
      span.thread = task.thread_id;
      children.emplace_back(span.start, span.start + span.seconds);
      trace->push_back(std::move(span));
    }
    const double self =
        sample.latency - Covered(std::move(children), job_start, job_end);
    push("trace.job_self_s", self);
    trace->push_back({sample.id, "job", "", job_start, sample.latency, self});
    trace->push_back({sample.id, "check", "", job_end, sample.check_seconds,
                      sample.check_seconds});
  }

  double fairness = 1;  // one client is trivially fair
  double pool_hits = 0;
  double pool_misses = 0;
  if (spec.service) {
    server::JobServer& server = deployment.job_server();
    double lo = 0, hi = 0;
    for (size_t t = 0; t < kTenantWeights.size(); ++t) {
      const double per_weight =
          static_cast<double>(server.rounds_granted(TenantName(t))) /
          kTenantWeights[t];
      lo = t == 0 ? per_weight : std::min(lo, per_weight);
      hi = t == 0 ? per_weight : std::max(hi, per_weight);
    }
    fairness = Ratio(lo, hi);
    pool_hits = static_cast<double>(server.pool_hits());
    pool_misses = static_cast<double>(server.pool_misses());
  } else {
    pool_hits = static_cast<double>(deployment.loop().job_server().pool_hits());
    pool_misses =
        static_cast<double>(deployment.loop().job_server().pool_misses());
  }

  const auto med = [&](const std::string& name) {
    return Median(per_job[name]);
  };
  const double untraced_p50 = Median(untraced_latency);
  std::vector<Metric> metrics = {
      {"graph.generate_s", setup.generate, "s", ""},
      {"graph.load_s", setup.load, "s", ""},
      {"sql.parse_s", med("sql.parse_s"), "s", ""},
      {"sql.parses_per_job", med("sql.parses_per_job"), "count", ""},
      {"core.rounds_per_job", med("core.rounds_per_job"), "count", ""},
      {"core.compute_s", med("core.compute_s"), "s", ""},
      {"core.gather_s", med("core.gather_s"), "s", ""},
      {"core.barrier_wait_s", med("core.barrier_wait_s"), "s", ""},
      {"core.message_tables_per_job", med("core.message_tables_per_job"),
       "count", ""},
      {"core.useful_task_ratio",
       Ratio(totals["useful_tasks"], totals["tasks"]), "ratio",
       "of " + std::to_string(static_cast<int64_t>(totals["tasks"])) +
           " compute tasks"},
      {"dbc.statements_per_job", med("dbc.statements_per_job"), "count", ""},
      {"dbc.round_trips_per_job", med("dbc.round_trips_per_job"), "count",
       ""},
      {"dbc.batches_per_job", med("dbc.batches_per_job"), "count", ""},
      {"dbc.modeled_s", med("dbc.modeled_s"), "s", ""},
      {"minidb.rows_examined_per_job", med("minidb.rows_examined_per_job"),
       "count", ""},
      {"minidb.rows_materialized_per_job",
       med("minidb.rows_materialized_per_job"), "count", ""},
      {"minidb.vectorized_ratio",
       Ratio(totals["vectorized"], totals["vectorized"] + totals["scalar"]),
       "ratio",
       "of " +
           std::to_string(
               static_cast<int64_t>(totals["vectorized"] + totals["scalar"])) +
           " SELECT cores"},
      {"minidb.plan_cache_hit_ratio",
       Ratio(totals["plan_hits"], totals["plan_hits"] + totals["plan_misses"]),
       "ratio",
       "of " +
           std::to_string(static_cast<int64_t>(totals["plan_hits"] +
                                               totals["plan_misses"])) +
           " lookups"},
      {"minidb.plan_rebinds_per_job", med("minidb.plan_rebinds_per_job"),
       "count", ""},
      {"minidb.lock_wait_s", med("minidb.lock_wait_s"), "s", ""},
      {"minidb.pool_miss_ratio",
       Ratio(totals["pool_misses"], totals["pool_hits"] + totals["pool_misses"]),
       "ratio",
       "of " +
           std::to_string(static_cast<int64_t>(totals["pool_hits"] +
                                               totals["pool_misses"])) +
           " page accesses"},
      {"minidb.pages_evicted_per_job", med("minidb.pages_evicted_per_job"),
       "count", ""},
      {"minidb.bytes_spilled_per_job", med("minidb.bytes_spilled_per_job"),
       "bytes", ""},
      {"server.queue_wait_s", med("server.queue_wait_s"), "s", ""},
      {"server.run_s", med("server.run_s"), "s", ""},
      {"server.target_wait_s", med("server.target_wait_s"), "s", ""},
      {"server.conn_pool_hit_ratio", Ratio(pool_hits, pool_hits + pool_misses),
       "ratio",
       "of " + std::to_string(static_cast<int64_t>(pool_hits + pool_misses)) +
           " master acquisitions"},
      {"server.fairness", fairness, "ratio",
       "min/max rounds per weight over " +
           std::to_string(spec.service ? kTenantWeights.size() : 1) +
           " tenant(s)"},
      {"trace.job_self_s", med("trace.job_self_s"), "s", ""},
      {"trace.check_s", med("trace.check_s"), "s", ""},
      {"trace.overhead_ratio", Ratio(Median(traced_latency), untraced_p50),
       "ratio",
       "traced p50 over untraced p50, " +
           std::to_string(traced_latency.size()) + " vs " +
           std::to_string(untraced_latency.size()) + " jobs"},
  };
  return metrics;
}

/// Each layer's self time summed over the trace, for the human summary.
std::map<std::string, double> SelfTimes(const std::vector<Span>& spans) {
  std::map<std::string, double> self;
  for (const Span& span : spans) self[span.name] += span.self;
  return self;
}

void WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace to " + path);
  char line[512];
  for (const Span& span : spans) {
    std::snprintf(line, sizeof(line),
                  "{\"job\":%llu,\"name\":\"%s\",\"parent\":\"%s\","
                  "\"start\":%.9f,\"seconds\":%.9f,\"self\":%.9f,"
                  "\"round\":%lld,\"partition\":%lld,\"thread\":%llu}\n",
                  static_cast<unsigned long long>(span.job), span.name.c_str(),
                  span.parent.c_str(), span.start, span.seconds, span.self,
                  static_cast<long long>(span.round),
                  static_cast<long long>(span.partition),
                  static_cast<unsigned long long>(span.thread));
    out << line;
  }
}

std::string Number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") {
        throw std::invalid_argument("--scale takes full or tiny");
      }
      args.tiny = value == "tiny";
    } else if (flag == "--corrupt-every") {
      args.corrupt_every = std::stoll(value);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !(args.seconds > 0)) {
    throw std::invalid_argument(
        "usage: sqloop_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--scale full|tiny] [--corrupt-every <k>] "
        "[--trace-out <path>]");
  }
  return args;
}

/// Every size and engine switch is fixed by the benchmark; a stray
/// SQLOOP_BENCH_* export must not change what is measured.
void RefuseBenchEnvironment() {
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (std::strncmp(*entry, "SQLOOP_BENCH_", 13) == 0) {
      throw std::invalid_argument(
          std::string("refusing to run with ") + *entry +
          " set: the benchmark fixes every knob itself");
    }
  }
}

int Run(const Args& args) {
  RefuseBenchEnvironment();
  const Spec spec = MakeSpec(args.workload, args.tiny);
  Trace trace;

  std::vector<SetupTimes> setups(kSetupRepeats);
  std::unique_ptr<Deployment> deployment;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    deployment.reset();
    deployment = std::make_unique<Deployment>(spec, args.seed, repeat, &trace,
                                              &setups[repeat]);
  }
  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const auto& times : setups) values.push_back(times.*field);
    return Median(values);
  };
  std::vector<double> setup_totals;
  for (const auto& times : setups) setup_totals.push_back(times.total());
  SetupTimes setup;
  setup.generate = median_of(&SetupTimes::generate);
  setup.load = median_of(&SetupTimes::load);

  double wall = 0;
  const std::vector<JobSample> samples =
      RunWorkload(spec, *deployment, args, &wall);

  std::vector<double> latencies;
  int64_t failed = 0;
  for (const JobSample& sample : samples) {
    if (!sample.ok) {
      ++failed;
    } else if (sample.measured) {
      latencies.push_back(sample.latency);
    }
  }
  const auto attempted = static_cast<int64_t>(samples.size());
  const auto correct_jobs = static_cast<double>(latencies.size());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"job_p50_s", Median(latencies), "s", ""},
        {"job_p90_s", Percentile(latencies, 0.9), "s",
         std::to_string(latencies.size()) + " jobs"},
        {"jobs_per_s", Ratio(correct_jobs, wall), "1/s",
         "over " + Number(wall) + " s"},
        {"setup_s", Median(setup_totals), "s",
         "median of " + std::to_string(kSetupRepeats)},
        {"peak_rss_mb", PeakRssMib(), "MiB", ""},
    };
  } else {
    metrics = LayerMetrics(spec, *deployment, samples, setup, &trace);
  }
  std::vector<std::vector<double>> kind_latencies(deployment->kinds().size());
  for (const JobSample& sample : samples) {
    if (!sample.measured) continue;
    kind_latencies[sample.kind].push_back(sample.latency);
  }

  // Human summary, then the result line.
  std::cout << "workload=" << spec.name << " seed=" << args.seed
            << " seconds=" << Number(args.seconds)
            << " trace=" << (args.trace ? 1 : 0) << " jobs=" << attempted
            << " failed=" << failed << " failed_ratio="
            << Number(Ratio(static_cast<double>(failed),
                            static_cast<double>(attempted)))
            << " (of " << attempted << " attempted)\n";
  for (size_t k = 0; k < kind_latencies.size(); ++k) {
    std::cout << "  " << deployment->kinds()[k].label << ": "
              << kind_latencies[k].size() << " jobs, p50 "
              << Number(Median(kind_latencies[k])) << " s\n";
  }
  deployment.reset();
  for (const Metric& metric : metrics) {
    std::cout << "  " << metric.name << " = " << Number(metric.value) << " "
              << metric.unit;
    if (!metric.base.empty()) std::cout << "  (" << metric.base << ")";
    std::cout << "\n";
  }
  if (args.trace) {
    const std::vector<Span>& spans = trace;
    std::cout << "  self time by layer (s, summed over the run):\n";
    for (const auto& [name, seconds] : SelfTimes(spans)) {
      std::cout << "    " << name << " " << Number(seconds) << "\n";
    }
    if (!args.trace_out.empty()) {
      WriteTrace(args.trace_out, spans);
      std::cout << "  trace: " << spans.size() << " spans in "
                << args.trace_out << "\n";
    }
  }

  const bool correct = failed == 0 && attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << Number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    BenchClock();
    return Run(ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "sqloop_perfbench: " << e.what() << "\n";
    return 2;
  }
}
