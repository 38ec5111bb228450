#include "dbc/connection.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/error.h"
#include "common/fault.h"
#include "dbc/driver.h"
#include "minidb/server.h"
#include "telemetry/recorder.h"

namespace sqloop::dbc {
namespace {

using minidb::EngineProfile;
using minidb::Server;

/// Each test gets a private server registered under a unique host name.
class DbcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    host_ = "host_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
    for (auto& c : host_) c = std::tolower(static_cast<unsigned char>(c));
    DriverManager::RegisterHost(host_, &server_);
    server_.CreateDatabase("db", EngineProfile::Postgres());
  }
  void TearDown() override { DriverManager::RegisterHost(host_, nullptr); }

  std::unique_ptr<Connection> Connect(const std::string& params = {}) {
    return DriverManager::GetConnection("minidb://" + host_ +
                                        "/db?latency_us=0" + params);
  }

  Server server_;
  std::string host_;
};

TEST_F(DbcTest, BasicQueryRoundTrip) {
  auto conn = Connect();
  conn->Execute("CREATE UNLOGGED TABLE t (id BIGINT PRIMARY KEY, v DOUBLE "
                "PRECISION)");
  EXPECT_EQ(conn->ExecuteUpdate("INSERT INTO t VALUES (1, 0.5), (2, 1.5)"),
            2u);
  const auto result = conn->ExecuteQuery("SELECT SUM(v) FROM t");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.rows[0][0].as_double(), 2.0);
}

TEST_F(DbcTest, UrlParsing) {
  const auto config = ConnectionConfig::Parse(
      "minidb://db.example.com:5433/analytics?latency_us=250&engine=mysql");
  EXPECT_EQ(config.host, "db.example.com");
  EXPECT_EQ(config.port, 5433);
  EXPECT_EQ(config.database, "analytics");
  EXPECT_EQ(config.latency_us, 250);
  EXPECT_EQ(config.expected_engine, "mysql");
}

TEST_F(DbcTest, MalformedUrlsThrow) {
  EXPECT_THROW(ConnectionConfig::Parse("http://x/db"), ConnectionError);
  EXPECT_THROW(ConnectionConfig::Parse("minidb://hostonly"), ConnectionError);
  EXPECT_THROW(ConnectionConfig::Parse("minidb:///db"), ConnectionError);
  EXPECT_THROW(ConnectionConfig::Parse("minidb://h/db?latency_us=abc"),
               ConnectionError);
  EXPECT_THROW(ConnectionConfig::Parse("minidb://h/db?nope=1"),
               ConnectionError);
  // Every table is paged, so `paged` is not a knob: reject it rather than
  // silently ignore it.
  EXPECT_THROW(ConnectionConfig::Parse("minidb://h/db?paged=0"),
               ConnectionError);
  EXPECT_THROW(ConnectionConfig::Parse("minidb://h:notaport/db"),
               ConnectionError);
}

TEST_F(DbcTest, UnknownHostAndDatabaseThrow) {
  EXPECT_THROW(DriverManager::GetConnection("minidb://no_such_host/db"),
               ConnectionError);
  EXPECT_THROW(
      DriverManager::GetConnection("minidb://" + host_ + "/missing"),
      ConnectionError);
}

TEST_F(DbcTest, EngineAssertionChecksProfile) {
  EXPECT_NO_THROW(Connect("&engine=postgres"));
  EXPECT_THROW(Connect("&engine=mysql"), ConnectionError);
}

TEST_F(DbcTest, ProfileIntrospection) {
  auto conn = Connect();
  EXPECT_EQ(conn->profile().name, "postgres");
  EXPECT_EQ(conn->dialect(), Dialect::kPostgres);
  EXPECT_EQ(conn->database_name(), "db");
}

TEST_F(DbcTest, BatchPaysOneRoundTrip) {
  auto conn = Connect();
  conn->Execute("CREATE UNLOGGED TABLE t (id BIGINT PRIMARY KEY)");
  const uint64_t before = conn->stats().round_trips;
  for (int i = 0; i < 10; ++i) {
    conn->AddBatch("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  EXPECT_EQ(conn->batch_size(), 10u);
  const auto affected = conn->ExecuteBatch();
  EXPECT_EQ(conn->batch_size(), 0u);
  ASSERT_EQ(affected.size(), 10u);
  EXPECT_EQ(conn->stats().round_trips, before + 1);
  EXPECT_EQ(conn->ExecuteQuery("SELECT COUNT(*) FROM t").rows[0][0].as_int(),
            10);
}

TEST_F(DbcTest, StatsCountStatements) {
  auto conn = Connect();
  conn->Execute("CREATE UNLOGGED TABLE t (id BIGINT PRIMARY KEY)");
  conn->Execute("INSERT INTO t VALUES (1)");
  EXPECT_EQ(conn->stats().statements, 2u);
  EXPECT_EQ(conn->stats().round_trips, 2u);
}

TEST_F(DbcTest, ResetStatsZeroesCounters) {
  auto conn = Connect();
  conn->Execute("CREATE UNLOGGED TABLE t (id BIGINT PRIMARY KEY)");
  conn->Execute("INSERT INTO t VALUES (1)");
  ASSERT_GT(conn->stats().statements, 0u);
  conn->ResetStats();
  EXPECT_EQ(conn->stats().statements, 0u);
  EXPECT_EQ(conn->stats().round_trips, 0u);
  // Counting resumes from zero, e.g. between benchmark phases.
  conn->Execute("SELECT COUNT(*) FROM t");
  EXPECT_EQ(conn->stats().statements, 1u);
  EXPECT_EQ(conn->stats().round_trips, 1u);
}

TEST_F(DbcTest, RecorderAttributesStatementsAndBatches) {
  auto conn = Connect();
  EXPECT_EQ(conn->recorder(), nullptr);
  telemetry::Recorder rec;
  conn->set_recorder(&rec);
  EXPECT_EQ(conn->recorder(), &rec);

  conn->Execute("CREATE UNLOGGED TABLE t (id BIGINT PRIMARY KEY)");
  conn->AddBatch("INSERT INTO t VALUES (1)");
  conn->AddBatch("INSERT INTO t VALUES (2)");
  conn->ExecuteBatch();
  conn->ExecuteQuery("SELECT COUNT(*) FROM t");

  EXPECT_EQ(rec.counter("dbc.round_trips"), 3u);  // 2 Executes + 1 batch
  EXPECT_EQ(rec.counter("dbc.statements"), 4u);
  EXPECT_EQ(rec.counter("dbc.batches"), 1u);
  EXPECT_EQ(rec.counter("dbc.batch_statements"), 2u);
  // The engine attributed its scan volume to the same recorder.
  EXPECT_GT(rec.counter("minidb.rows_examined"), 0u);

  // Detached: no further attribution.
  conn->set_recorder(nullptr);
  const uint64_t trips = rec.counter("dbc.round_trips");
  conn->Execute("SELECT COUNT(*) FROM t");
  EXPECT_EQ(rec.counter("dbc.round_trips"), trips);
}

TEST_F(DbcTest, AutoCommitOffRollsBackOnExplicitRollback) {
  auto conn = Connect();
  conn->Execute("CREATE UNLOGGED TABLE t (id BIGINT PRIMARY KEY)");
  conn->Execute("INSERT INTO t VALUES (1)");
  conn->SetAutoCommit(false);
  conn->Execute("INSERT INTO t VALUES (2)");
  conn->Execute("INSERT INTO t VALUES (3)");
  conn->Rollback();
  EXPECT_EQ(conn->ExecuteQuery("SELECT COUNT(*) FROM t").rows[0][0].as_int(),
            1);
  conn->Execute("INSERT INTO t VALUES (4)");
  conn->Commit();
  EXPECT_EQ(conn->ExecuteQuery("SELECT COUNT(*) FROM t").rows[0][0].as_int(),
            2);
}

TEST_F(DbcTest, CloseRollsBackOpenTransaction) {
  auto conn = Connect();
  conn->Execute("CREATE UNLOGGED TABLE t (id BIGINT PRIMARY KEY)");
  {
    auto writer = Connect();
    writer->SetAutoCommit(false);
    writer->Execute("INSERT INTO t VALUES (1)");
    writer->Close();
  }
  EXPECT_EQ(conn->ExecuteQuery("SELECT COUNT(*) FROM t").rows[0][0].as_int(),
            0);
}

TEST_F(DbcTest, ClosedConnectionRejectsWork) {
  auto conn = Connect();
  conn->Close();
  EXPECT_TRUE(conn->closed());
  EXPECT_THROW(conn->Execute("SELECT 1"), ConnectionError);
  EXPECT_THROW(conn->AddBatch("SELECT 1"), ConnectionError);
}

TEST_F(DbcTest, IsolationLevelIsRecorded) {
  auto conn = Connect();
  EXPECT_EQ(conn->transaction_isolation(), IsolationLevel::kReadCommitted);
  conn->SetTransactionIsolation(IsolationLevel::kSerializable);
  EXPECT_EQ(conn->transaction_isolation(), IsolationLevel::kSerializable);
}

TEST_F(DbcTest, TwoConnectionsShareState) {
  auto a = Connect();
  auto b = Connect();
  a->Execute("CREATE UNLOGGED TABLE t (id BIGINT PRIMARY KEY)");
  a->Execute("INSERT INTO t VALUES (1)");
  EXPECT_EQ(b->ExecuteQuery("SELECT COUNT(*) FROM t").rows[0][0].as_int(), 1);
}

TEST_F(DbcTest, MultipleHostsModelRemoteServers) {
  Server other;
  other.CreateDatabase("remote_db", EngineProfile::MariaDb());
  DriverManager::RegisterHost("db2.example.com", &other);
  auto conn = DriverManager::GetConnection(
      "minidb://db2.example.com/remote_db?latency_us=0");
  EXPECT_EQ(conn->profile().name, "mariadb");
  conn->Execute("CREATE TABLE t (id BIGINT PRIMARY KEY) ENGINE = MyISAM");
  DriverManager::RegisterHost("db2.example.com", nullptr);
  EXPECT_THROW(
      DriverManager::GetConnection("minidb://db2.example.com/remote_db"),
      ConnectionError);
}

TEST_F(DbcTest, RowCostModelsServerWork) {
  auto conn = Connect();
  conn->Execute("CREATE UNLOGGED TABLE big (id BIGINT PRIMARY KEY)");
  for (int i = 0; i < 200; ++i) {
    conn->AddBatch("INSERT INTO big VALUES (" + std::to_string(i) + ")");
  }
  conn->ExecuteBatch();

  auto costed = DriverManager::GetConnection(
      "minidb://" + host_ + "/db?latency_us=0&row_cost_ns=20000");
  const auto start = std::chrono::steady_clock::now();
  const auto result = costed->ExecuteQuery("SELECT COUNT(*) FROM big");
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(result.rows[0][0].as_int(), 200);
  EXPECT_EQ(result.rows_examined, 200u);
  // 200 rows x 20us = 4ms of modeled server work.
  EXPECT_GE(elapsed, 4000);
}

TEST_F(DbcTest, RowCostRejectsNegative) {
  EXPECT_THROW(
      ConnectionConfig::Parse("minidb://h/db?row_cost_ns=-5"),
      ConnectionError);
}

TEST_F(DbcTest, LatencyIsPaidPerRoundTrip) {
  auto slow = DriverManager::GetConnection("minidb://" + host_ +
                                           "/db?latency_us=2000");
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) slow->Execute("SELECT 1");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            5 * 2000);
}

// --- URL hardening & connect timeouts (see driver.h) -----------------------

TEST_F(DbcTest, DuplicateUrlParametersAreRejected) {
  EXPECT_THROW(ConnectionConfig::Parse(
                   "minidb://h/db?latency_us=10&latency_us=20"),
               ConnectionError);
  EXPECT_THROW(ConnectionConfig::Parse(
                   "minidb://h/db?engine=mysql&latency_us=5&engine=mysql"),
               ConnectionError);
  // Distinct keys stay fine.
  EXPECT_NO_THROW(
      ConnectionConfig::Parse("minidb://h/db?latency_us=5&engine=mysql"));
}

TEST_F(DbcTest, ConnectTimeoutIsValidatedAndParsed) {
  const auto config =
      ConnectionConfig::Parse("minidb://h/db?connect_timeout_ms=250");
  EXPECT_EQ(config.connect_timeout_ms, 250);
  EXPECT_THROW(ConnectionConfig::Parse("minidb://h/db?connect_timeout_ms=-1"),
               ConnectionError);
  EXPECT_THROW(ConnectionConfig::Parse("minidb://h/db?connect_timeout_ms=x"),
               ConnectionError);
}

TEST_F(DbcTest, ConnectTimeoutFiresAgainstModeledLatency) {
  // 5ms of modeled handshake latency blows a 1ms connect deadline...
  EXPECT_THROW(DriverManager::GetConnection(
                   "minidb://" + host_ + "/db?latency_us=5000&" +
                   "connect_timeout_ms=1"),
               TimeoutError);
  // ...and fits comfortably in a 1s one.
  EXPECT_NO_THROW(DriverManager::GetConnection(
      "minidb://" + host_ + "/db?latency_us=5000&connect_timeout_ms=1000"));
}

TEST_F(DbcTest, FaultRatesAreValidated) {
  EXPECT_THROW(ConnectionConfig::Parse("minidb://h/db?fault_drop_rate=1.5"),
               ConnectionError);
  EXPECT_THROW(ConnectionConfig::Parse("minidb://h/db?fault_drop_rate=-0.1"),
               ConnectionError);
  const auto config = ConnectionConfig::Parse(
      "minidb://h/db?fault_seed=7&fault_drop_rate=0.25&fault_slow_us=500");
  EXPECT_TRUE(config.has_fault);
  EXPECT_EQ(config.fault.seed, 7u);
  EXPECT_DOUBLE_EQ(config.fault.drop_rate, 0.25);
  EXPECT_EQ(config.fault.slow_us, 500);
}

TEST_F(DbcTest, InjectedDropClosesConnectionAndReopenRearmsIt) {
  auto conn = Connect();
  conn->Execute("CREATE UNLOGGED TABLE t (id BIGINT PRIMARY KEY)");

  FaultConfig config;
  config.drop_every = 1;  // every statement drops...
  config.max_faults = 1;  // ...but only once
  conn->set_fault_injector(std::make_shared<FaultInjector>(config));

  EXPECT_THROW(conn->Execute("INSERT INTO t VALUES (1)"), ConnectionLostError);
  EXPECT_TRUE(conn->closed());
  // The failed INSERT never reached the engine.
  conn->Reopen();
  EXPECT_FALSE(conn->closed());
  EXPECT_EQ(conn->ExecuteUpdate("INSERT INTO t VALUES (1)"), 1u);
  const auto result = conn->ExecuteQuery("SELECT COUNT(*) FROM t");
  EXPECT_EQ(result.rows[0][0].as_int(), 1);
}

TEST_F(DbcTest, InjectedDropRollsBackOpenTransaction) {
  auto conn = Connect();
  conn->Execute("CREATE UNLOGGED TABLE t (id BIGINT PRIMARY KEY)");
  conn->Execute("BEGIN");
  conn->Execute("INSERT INTO t VALUES (1)");

  FaultConfig config;
  config.drop_every = 1;
  config.max_faults = 1;
  conn->set_fault_injector(std::make_shared<FaultInjector>(config));
  EXPECT_THROW(conn->Execute("INSERT INTO t VALUES (2)"), ConnectionLostError);

  conn->Reopen();
  // The drop rolled back the uncommitted transaction, like a real server
  // losing its session.
  const auto result = conn->ExecuteQuery("SELECT COUNT(*) FROM t");
  EXPECT_EQ(result.rows[0][0].as_int(), 0);
}

TEST_F(DbcTest, ReopenOnOpenConnectionIsANoOp) {
  auto conn = Connect();
  conn->Execute("CREATE UNLOGGED TABLE t (id BIGINT PRIMARY KEY)");
  conn->Reopen();
  EXPECT_NO_THROW(conn->Execute("INSERT INTO t VALUES (1)"));
}

TEST_F(DbcTest, TransientFaultLeavesConnectionUsable) {
  auto conn = Connect();
  FaultConfig config;
  config.transient_every = 2;  // the 2nd, 4th, ... statements fail
  conn->set_fault_injector(std::make_shared<FaultInjector>(config));

  conn->Execute("CREATE UNLOGGED TABLE t (id BIGINT PRIMARY KEY)");
  EXPECT_THROW(conn->Execute("INSERT INTO t VALUES (1)"), TransientError);
  EXPECT_FALSE(conn->closed());
  // Immediate retry succeeds on the same connection, exactly once.
  EXPECT_EQ(conn->ExecuteUpdate("INSERT INTO t VALUES (1)"), 1u);
}

TEST_F(DbcTest, SlowFaultPastDeadlineRaisesTimeoutBeforeExecution) {
  auto conn = Connect();
  conn->Execute("CREATE UNLOGGED TABLE t (id BIGINT PRIMARY KEY)");
  conn->set_statement_timeout_ms(1);
  FaultConfig config;
  config.slow_every = 1;
  config.slow_us = 50000;  // 50ms >> the 1ms deadline
  config.max_faults = 1;
  conn->set_fault_injector(std::make_shared<FaultInjector>(config));

  EXPECT_THROW(conn->Execute("INSERT INTO t VALUES (1)"), TimeoutError);
  // The statement was never applied; the retry lands exactly once.
  EXPECT_EQ(conn->ExecuteUpdate("INSERT INTO t VALUES (1)"), 1u);
  EXPECT_EQ(conn->ExecuteQuery("SELECT COUNT(*) FROM t").rows[0][0].as_int(),
            1);
}

TEST_F(DbcTest, FaultUrlParametersShareOneInjectorPerConfig) {
  // Two connections from the same faulted URL share one decision stream:
  // with drop_every=3, the third statement overall drops, regardless of
  // which connection issues it.
  const std::string params = "&fault_seed=5&fault_drop_every=3&fault_max=1";
  auto a = Connect(params);
  auto b = Connect(params);
  a->Execute("SELECT 1");
  b->Execute("SELECT 1");
  EXPECT_THROW(a->Execute("SELECT 1"), ConnectionLostError);
  EXPECT_TRUE(a->closed());
  EXPECT_FALSE(b->closed());
}

TEST_F(DbcTest, GovernanceUrlKnobsParseAndValidate) {
  // Well-formed values land in the config.
  const auto config = ConnectionConfig::Parse(
      "minidb://h/db?memory_limit_bytes=1048576&cancel_check_rows=256");
  EXPECT_EQ(config.memory_limit_bytes, 1048576);
  EXPECT_EQ(config.cancel_check_rows, 256);
  // Omitted knobs default to "off" (unlimited / engine default).
  const auto defaults = ConnectionConfig::Parse("minidb://h/db");
  EXPECT_EQ(defaults.memory_limit_bytes, 0);
  EXPECT_EQ(defaults.cancel_check_rows, 0);

  // Zero is meaningless for both (a zero-byte budget runs nothing; a check
  // every zero rows is not a cadence) — reject rather than guess.
  EXPECT_THROW(ConnectionConfig::Parse("minidb://h/db?memory_limit_bytes=0"),
               ConnectionError);
  EXPECT_THROW(ConnectionConfig::Parse("minidb://h/db?cancel_check_rows=0"),
               ConnectionError);
  // Negative and malformed values are configuration bugs.
  EXPECT_THROW(
      ConnectionConfig::Parse("minidb://h/db?memory_limit_bytes=-1"),
      ConnectionError);
  EXPECT_THROW(ConnectionConfig::Parse("minidb://h/db?cancel_check_rows=-8"),
               ConnectionError);
  EXPECT_THROW(
      ConnectionConfig::Parse("minidb://h/db?memory_limit_bytes=lots"),
      ConnectionError);
  // Duplicates are rejected like every other URL parameter.
  EXPECT_THROW(ConnectionConfig::Parse("minidb://h/db?memory_limit_bytes=1"
                                       "&memory_limit_bytes=2"),
               ConnectionError);
  EXPECT_THROW(ConnectionConfig::Parse("minidb://h/db?cancel_check_rows=1"
                                       "&cancel_check_rows=2"),
               ConnectionError);
}

TEST_F(DbcTest, ConnectionMemoryLimitAbortsOversizedStatements) {
  auto conn = Connect();
  conn->Execute("CREATE UNLOGGED TABLE nums (id BIGINT PRIMARY KEY)");
  for (int i = 0; i < 64; ++i) {
    conn->AddBatch("INSERT INTO nums VALUES (" + std::to_string(i) + ")");
  }
  conn->ExecuteBatch();

  // A 64x64x64 cross join materializes far more than 64 KiB of transient
  // rows; the budgeted connection must abort it with the quota error while
  // an unbudgeted one computes it fine.
  const std::string big =
      "SELECT COUNT(*) FROM nums AS a, nums AS b, nums AS c";
  auto budgeted = DriverManager::GetConnection(
      "minidb://" + host_ + "/db?latency_us=0&memory_limit_bytes=65536");
  EXPECT_THROW(budgeted->ExecuteQuery(big), QuotaExceededError);
  // The failed statement released its partial reservation; small work
  // still fits under the same budget.
  const auto small = budgeted->ExecuteQuery("SELECT COUNT(*) FROM nums");
  EXPECT_EQ(small.rows[0][0].as_int(), 64);
  EXPECT_EQ(conn->ExecuteQuery(big).rows[0][0].as_int(), 64 * 64 * 64);
}

TEST_F(DbcTest, OpenConnectionsAreCounted) {
  auto& db = *server_.FindDatabase("db");
  const int base = db.open_connections();
  {
    auto a = Connect();
    auto b = Connect();
    EXPECT_EQ(db.open_connections(), base + 2);
    a->Close();
    EXPECT_EQ(db.open_connections(), base + 1);
  }  // b's destructor closes it
  EXPECT_EQ(db.open_connections(), base);
}

}  // namespace
}  // namespace sqloop::dbc
