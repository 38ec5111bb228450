// The minidb "server": a process-wide registry of named databases that
// connections attach to by URL, standing in for the PostgreSQL/MySQL/
// MariaDB server processes of the paper's testbed.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fault.h"
#include "common/memory_tracker.h"
#include "minidb/database.h"

namespace sqloop::minidb {

class Server {
 public:
  /// The default in-process server instance (what `minidb://localhost/...`
  /// URLs resolve to).
  static Server& Default();

  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Creates a database with the given engine profile. Throws if the name
  /// is taken.
  std::shared_ptr<Database> CreateDatabase(
      const std::string& name, EngineProfile profile,
      SelectEngine engine = SelectEngine::kBatch);

  /// Returns the database or nullptr.
  std::shared_ptr<Database> FindDatabase(const std::string& name) const;

  /// Drops a database; returns false if it did not exist.
  bool DropDatabase(const std::string& name);

  std::vector<std::string> DatabaseNames() const;

  // --- memory governance ------------------------------------------------
  // The server-wide accounting root: every database created through
  // CreateDatabase parents its scope here, so reserved_bytes() is the
  // whole deployment's working set — what the JobServer's soft/hard
  // watermarks police. Shared ownership keeps the root alive for any
  // database handle that outlives the registry entry.
  const std::shared_ptr<MemoryTracker>& memory_tracker() const noexcept {
    return tracker_;
  }

  // --- fault injection --------------------------------------------------
  // A server-level injector applies to every connection attached to this
  // server and takes precedence over URL-configured injection (it models an
  // operator flipping faults on a running deployment; the shell's \faults
  // command uses it). Null clears it.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector) {
    const std::scoped_lock lock(mutex_);
    fault_injector_ = std::move(injector);
  }
  std::shared_ptr<FaultInjector> fault_injector() const {
    const std::scoped_lock lock(mutex_);
    return fault_injector_;
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<MemoryTracker> tracker_ =
      std::make_shared<MemoryTracker>("server");
  std::unordered_map<std::string, std::shared_ptr<Database>> databases_;
  std::shared_ptr<FaultInjector> fault_injector_;
};

}  // namespace sqloop::minidb
