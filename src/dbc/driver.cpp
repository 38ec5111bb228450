#include "dbc/driver.h"

#include <charconv>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"
#include "common/strings.h"
#include "dbc/connection.h"

namespace sqloop::dbc {
namespace {

std::mutex& HostMutex() {
  static std::mutex mutex;
  return mutex;
}

std::unordered_map<std::string, minidb::Server*>& HostMap() {
  static std::unordered_map<std::string, minidb::Server*> hosts = {
      {"localhost", &minidb::Server::Default()},
      {"127.0.0.1", &minidb::Server::Default()},
  };
  return hosts;
}

int64_t ParseInt(const std::string& text, const std::string& what) {
  int64_t value = 0;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (result.ec != std::errc{} || result.ptr != text.data() + text.size()) {
    throw ConnectionError("malformed " + what + " '" + text + "' in URL");
  }
  return value;
}

int64_t ParseNonNegative(const std::string& text, const std::string& what) {
  const int64_t value = ParseInt(text, what);
  if (value < 0) throw ConnectionError(what + " must be non-negative");
  return value;
}

int64_t ParsePositive(const std::string& text, const std::string& what) {
  const int64_t value = ParseInt(text, what);
  if (value < 1) throw ConnectionError(what + " must be positive");
  return value;
}

double ParseRate(const std::string& text, const std::string& what) {
  double value = 0;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (result.ec != std::errc{} || result.ptr != text.data() + text.size()) {
    throw ConnectionError("malformed " + what + " '" + text + "' in URL");
  }
  if (value < 0.0 || value > 1.0) {
    throw ConnectionError(what + " must be within [0, 1]");
  }
  return value;
}

std::mutex& InjectorMutex() {
  static std::mutex mutex;
  return mutex;
}

/// Connections opened with identical host/database/fault configuration
/// share one injector, so a fixed fault_seed produces one deterministic
/// fault schedule across the master and every (re)opened worker
/// connection of a run.
std::unordered_map<std::string, std::shared_ptr<FaultInjector>>&
InjectorMap() {
  static std::unordered_map<std::string, std::shared_ptr<FaultInjector>> map;
  return map;
}

std::string InjectorKey(const ConnectionConfig& config) {
  std::ostringstream key;
  const FaultConfig& f = config.fault;
  key << strings::ToLower(config.host) << '/' << config.database << '?'
      << f.seed << '|' << f.connect_failure_rate << '|' << f.connect_every
      << '|' << f.drop_rate << '|' << f.drop_every << '|' << f.transient_rate
      << '|' << f.transient_every << '|' << f.slow_rate << '|' << f.slow_every
      << '|' << f.slow_us << '|' << f.max_faults << '|' << f.kill_at_round;
  return key.str();
}

std::shared_ptr<FaultInjector> SharedInjectorFor(
    const ConnectionConfig& config) {
  const std::scoped_lock lock(InjectorMutex());
  auto& slot = InjectorMap()[InjectorKey(config)];
  if (!slot) slot = std::make_shared<FaultInjector>(config.fault);
  return slot;
}

}  // namespace

ConnectionConfig ConnectionConfig::Parse(const std::string& url) {
  static constexpr std::string_view kScheme = "minidb://";
  if (!strings::StartsWith(url, kScheme)) {
    throw ConnectionError("URL '" + url + "' must start with minidb://");
  }
  ConnectionConfig config;
  std::string rest = url.substr(kScheme.size());

  const size_t query_pos = rest.find('?');
  std::string query;
  if (query_pos != std::string::npos) {
    query = rest.substr(query_pos + 1);
    rest = rest.substr(0, query_pos);
  }

  const size_t slash = rest.find('/');
  if (slash == std::string::npos || slash + 1 >= rest.size()) {
    throw ConnectionError("URL '" + url + "' is missing a database name");
  }
  std::string authority = rest.substr(0, slash);
  config.database = rest.substr(slash + 1);

  const size_t colon = authority.find(':');
  if (colon != std::string::npos) {
    config.port =
        static_cast<int>(ParseInt(authority.substr(colon + 1), "port"));
    authority = authority.substr(0, colon);
  }
  if (authority.empty()) {
    throw ConnectionError("URL '" + url + "' is missing a host");
  }
  config.host = authority;

  bool slow_us_given = false;
  bool slow_trigger_zeroed = false;  // fault_slow_rate=0 / fault_slow_every=0
  if (!query.empty()) {
    std::unordered_set<std::string> seen;
    for (const std::string& pair : strings::Split(query, '&')) {
      if (pair.empty()) continue;
      const size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        throw ConnectionError("malformed URL parameter '" + pair + "'");
      }
      const std::string key = strings::ToLower(pair.substr(0, eq));
      const std::string value = pair.substr(eq + 1);
      if (!seen.insert(key).second) {
        throw ConnectionError("duplicate URL parameter '" + key + "'");
      }
      if (key == "latency_us") {
        config.latency_us = ParseNonNegative(value, "latency_us");
      } else if (key == "compile_us") {
        config.compile_us = ParseNonNegative(value, "compile_us");
      } else if (key == "row_cost_ns") {
        config.row_cost_ns = ParseNonNegative(value, "row_cost_ns");
      } else if (key == "engine") {
        config.expected_engine = value;
      } else if (key == "connect_timeout_ms") {
        config.connect_timeout_ms = ParseNonNegative(value, key);
      } else if (key == "fault_seed") {
        config.fault.seed = static_cast<uint64_t>(ParseNonNegative(value, key));
        config.has_fault = true;
      } else if (key == "fault_connect_rate") {
        config.fault.connect_failure_rate = ParseRate(value, key);
        config.has_fault = true;
      } else if (key == "fault_connect_every") {
        config.fault.connect_every =
            static_cast<uint64_t>(ParseNonNegative(value, key));
        config.has_fault = true;
      } else if (key == "fault_drop_rate") {
        config.fault.drop_rate = ParseRate(value, key);
        config.has_fault = true;
      } else if (key == "fault_drop_every") {
        config.fault.drop_every =
            static_cast<uint64_t>(ParseNonNegative(value, key));
        config.has_fault = true;
      } else if (key == "fault_transient_rate") {
        config.fault.transient_rate = ParseRate(value, key);
        config.has_fault = true;
      } else if (key == "fault_transient_every") {
        config.fault.transient_every =
            static_cast<uint64_t>(ParseNonNegative(value, key));
        config.has_fault = true;
      } else if (key == "fault_slow_rate") {
        config.fault.slow_rate = ParseRate(value, key);
        if (config.fault.slow_rate == 0) slow_trigger_zeroed = true;
        config.has_fault = true;
      } else if (key == "fault_slow_every") {
        config.fault.slow_every =
            static_cast<uint64_t>(ParseNonNegative(value, key));
        if (config.fault.slow_every == 0) slow_trigger_zeroed = true;
        config.has_fault = true;
      } else if (key == "fault_slow_us") {
        config.fault.slow_us = ParseNonNegative(value, key);
        config.has_fault = true;
        slow_us_given = true;
      } else if (key == "fault_max") {
        config.fault.max_faults = ParseInt(value, key);
        config.has_fault = true;
      } else if (key == "fault_kill_at_round") {
        config.fault.kill_at_round = ParseNonNegative(value, key);
        config.has_fault = true;
      } else if (key == "fault_crash_at_write") {
        // Crash points are 1-based ordinals; "never" is expressed by
        // omitting the parameter, so zero is rejected.
        config.crash.crash_at_write = ParsePositive(value, key);
        config.has_crash = true;
      } else if (key == "fault_crash_at_fsync") {
        config.crash.crash_at_fsync = ParsePositive(value, key);
        config.has_crash = true;
      } else if (key == "fault_crash_at_rename") {
        config.crash.crash_at_rename = ParsePositive(value, key);
        config.has_crash = true;
      } else if (key == "fault_torn_writes") {
        config.crash.torn_writes = ParseNonNegative(value, key) != 0;
        config.has_crash = true;
      } else if (key == "fault_flip_bit") {
        config.crash.flip_bit = ParseNonNegative(value, key) != 0;
        config.has_crash = true;
      } else if (key == "checkpoint_every") {
        config.checkpoint_every = ParseNonNegative(value, key);
      } else if (key == "checkpoint_dir") {
        config.checkpoint_dir = value;
      } else if (key == "checkpoint_keep") {
        // Zero would keep nothing — recovery could never fall back; omit
        // the parameter for the default retention of 2.
        config.checkpoint_keep = ParsePositive(value, key);
      } else if (key == "verify_checkpoints") {
        config.verify_checkpoints = ParseNonNegative(value, key) != 0;
      } else if (key == "scrub_every") {
        config.scrub_every = ParseNonNegative(value, key);
      } else if (key == "memory_limit_bytes") {
        // Zero is meaningless here (nothing runs on a zero-byte budget);
        // omit the parameter for "unlimited".
        config.memory_limit_bytes = ParsePositive(value, key);
      } else if (key == "cancel_check_rows") {
        // Zero is meaningless (a check every zero rows); omit the
        // parameter for the engine default.
        config.cancel_check_rows = ParsePositive(value, key);
      } else if (key == "buffer_pool_bytes") {
        // Zero would evict every page on arrival; omit the parameter for
        // an unbounded pool (pages stay resident, nothing spills).
        config.buffer_pool_bytes = ParsePositive(value, key);
      } else {
        throw ConnectionError("unknown URL parameter '" + key + "'");
      }
    }
  }

  // Contradictory fault-knob combinations are configuration bugs; reject
  // them instead of silently running with no (or different) faults.
  if (config.has_fault) {
    const FaultConfig& f = config.fault;
    if (f.max_faults == 0 && f.any()) {
      throw ConnectionError(
          "contradictory fault knobs: fault_max=0 disables every configured "
          "fault trigger (drop fault_max or the fault_* triggers)");
    }
    // fault_slow_us alongside an *explicitly zeroed* slow trigger is a
    // contradiction (the delay can never fire). A bare fault_slow_us with
    // no trigger parameters stays legal: callers pre-set the delay and
    // attach the trigger later (e.g. the shell's \faults command).
    if (slow_us_given && slow_trigger_zeroed && f.slow_rate == 0 &&
        f.slow_every == 0) {
      throw ConnectionError(
          "contradictory fault knobs: fault_slow_us is set but the "
          "fault_slow_rate/fault_slow_every triggers are zero, so the "
          "delay can never fire");
    }
  }
  if (config.has_crash) {
    // The crash plan reuses fault_seed for its torn-length/bit-flip draws.
    config.crash.seed = config.fault.seed;
    if (!config.crash.armed()) {
      throw ConnectionError(
          "contradictory fault knobs: fault_torn_writes/fault_flip_bit "
          "modify what a crash leaves behind, but no "
          "fault_crash_at_write/_fsync/_rename crash point is set");
    }
  }
  return config;
}

std::unique_ptr<Connection> DriverManager::GetConnection(
    const std::string& url) {
  const ConnectionConfig config = ConnectionConfig::Parse(url);

  // The durability shim's crash plan is process-wide state: a crash-knob
  // URL arms it, a plain URL disarms it. Re-installing the identical plan
  // (every worker connection of a run; a resume run reopening the same
  // URL) is a no-op that keeps the once-only fired latch, mirroring
  // fault_kill_at_round's latch semantics.
  FaultFile::InstallPlan(config.has_crash ? config.crash : CrashPlan{});

  minidb::Server* server = nullptr;
  {
    const std::scoped_lock lock(HostMutex());
    const auto it = HostMap().find(strings::ToLower(config.host));
    if (it != HostMap().end()) server = it->second;
  }
  if (server == nullptr) {
    throw ConnectionError("no database server registered for host '" +
                          config.host + "'");
  }

  auto db = server->FindDatabase(config.database);
  if (!db) {
    throw ConnectionError("database '" + config.database +
                          "' does not exist on host '" + config.host + "'");
  }
  // The storage knob configures the database, not the connection: the
  // buffer pool is shared by every connection to this database.
  if (config.buffer_pool_bytes > 0) {
    db->set_buffer_pool_bytes(config.buffer_pool_bytes);
  }
  if (!config.expected_engine.empty()) {
    const auto expected =
        minidb::EngineProfile::ByName(config.expected_engine);
    if (expected.name != db->profile().name) {
      throw ConnectionError("database '" + config.database + "' runs " +
                            db->profile().name + ", not the requested " +
                            expected.name);
    }
  }

  // The handshake pays one round trip; a latency that cannot meet the
  // connect deadline fails the open before a connection exists.
  if (config.connect_timeout_ms > 0 &&
      config.latency_us > config.connect_timeout_ms * 1000) {
    throw TimeoutError("connection handshake to '" + config.host +
                       "' exceeded connect_timeout_ms=" +
                       std::to_string(config.connect_timeout_ms));
  }

  // A server-level injector (operator flipped faults on the deployment)
  // takes precedence over URL-configured injection.
  std::shared_ptr<FaultInjector> injector = server->fault_injector();
  if (!injector && config.has_fault) injector = SharedInjectorFor(config);
  if (injector && injector->ShouldFailConnect()) {
    throw ConnectionLostError("injected connection-open failure for host '" +
                              config.host + "'");
  }
  return std::make_unique<Connection>(std::move(db), config.latency_us,
                                      config.row_cost_ns, std::move(injector),
                                      config.compile_us,
                                      config.memory_limit_bytes,
                                      config.cancel_check_rows);
}

void DriverManager::RegisterHost(const std::string& host,
                                 minidb::Server* server) {
  const std::scoped_lock lock(HostMutex());
  const std::string folded = strings::ToLower(host);
  if (server == nullptr) {
    HostMap().erase(folded);
  } else {
    HostMap()[folded] = server;
  }
}

minidb::Server* DriverManager::FindHost(const std::string& host) {
  const std::scoped_lock lock(HostMutex());
  const auto it = HostMap().find(strings::ToLower(host));
  return it == HostMap().end() ? nullptr : it->second;
}

}  // namespace sqloop::dbc
