#include "minidb/database.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>

#include "common/error.h"

namespace sqloop::minidb {
namespace {

/// A process-unique scratch directory for this database's spill files.
/// pid + counter, not the database name: names can repeat across tests and
/// may hold characters the filesystem dislikes.
std::string SpillDirFor() {
  static std::atomic<uint64_t> next_id{0};
  std::error_code ec;
  std::filesystem::path base = std::filesystem::temp_directory_path(ec);
  if (ec) base = ".";
  return (base / ("sqloop_pool_" + std::to_string(::getpid()) + "_" +
                  std::to_string(next_id.fetch_add(1))))
      .string();
}

}  // namespace

EngineProfile EngineProfile::ByName(const std::string& name) {
  const std::string folded = FoldIdentifier(name);
  if (folded == "postgres" || folded == "postgresql") return Postgres();
  if (folded == "mysql") return MySql();
  if (folded == "mariadb") return MariaDb();
  if (folded == "canonical" || folded.empty()) return Canonical();
  throw UsageError("unknown engine profile '" + name + "'");
}

Database::Database(std::string name, EngineProfile profile,
                   std::shared_ptr<MemoryTracker> server_tracker)
    : name_(std::move(name)),
      profile_(std::move(profile)),
      server_tracker_(std::move(server_tracker)),
      tracker_("db:" + name_, server_tracker_.get()),
      pool_(std::make_shared<BufferPool>(SpillDirFor())) {
  // Quota pressure on the database scope evicts cold pages before a
  // statement sees QuotaExceededError (see MemoryTracker::set_reclaimer).
  tracker_.set_reclaimer(
      [pool = pool_.get()](int64_t bytes) { return pool->TryReclaim(bytes); });
}

void Database::CreateTable(const std::string& table_name, Schema schema,
                           bool if_not_exists) {
  const std::string folded = FoldIdentifier(table_name);
  const std::scoped_lock lock(catalog_lock_);
  if (tables_.contains(folded) || views_.contains(folded)) {
    if (if_not_exists) return;
    throw ExecutionError("relation '" + table_name + "' already exists");
  }
  auto table = std::make_shared<Table>(folded, std::move(schema));
  // Attached before the table is published, so every row it ever stores
  // is accounted against this database's scope — and checksummed from the
  // first insert on.
  table->set_memory_tracker(&tracker_);
  table->set_integrity_enabled(integrity_enabled());
  table->ConfigureStorage(pool_);
  tables_.emplace(folded, std::move(table));
  BumpCatalogVersion();
}

bool Database::DropTable(const std::string& table_name, bool if_exists) {
  const std::string folded = FoldIdentifier(table_name);
  const std::scoped_lock lock(catalog_lock_);
  if (tables_.erase(folded) > 0) {
    BumpCatalogVersion();
    return true;
  }
  if (!if_exists) {
    throw ExecutionError("table '" + table_name + "' does not exist");
  }
  return false;
}

void Database::CreateView(const std::string& view_name,
                          sql::SelectPtr definition) {
  const std::string folded = FoldIdentifier(view_name);
  const std::scoped_lock lock(catalog_lock_);
  if (tables_.contains(folded) || views_.contains(folded)) {
    throw ExecutionError("relation '" + view_name + "' already exists");
  }
  views_.emplace(folded, std::shared_ptr<const sql::SelectStmt>(
                             definition.release()));
  BumpCatalogVersion();
}

bool Database::DropView(const std::string& view_name, bool if_exists) {
  const std::string folded = FoldIdentifier(view_name);
  const std::scoped_lock lock(catalog_lock_);
  if (views_.erase(folded) > 0) {
    BumpCatalogVersion();
    return true;
  }
  if (!if_exists) {
    throw ExecutionError("view '" + view_name + "' does not exist");
  }
  return false;
}

std::shared_ptr<Table> Database::FindTable(
    const std::string& table_name) const {
  const std::shared_lock lock(catalog_lock_);
  const auto it = tables_.find(FoldIdentifier(table_name));
  return it == tables_.end() ? nullptr : it->second;
}

std::shared_ptr<const sql::SelectStmt> Database::FindView(
    const std::string& view_name) const {
  const std::shared_lock lock(catalog_lock_);
  const auto it = views_.find(FoldIdentifier(view_name));
  return it == views_.end() ? nullptr : it->second;
}

bool Database::HasTable(const std::string& table_name) const {
  const std::shared_lock lock(catalog_lock_);
  return tables_.contains(FoldIdentifier(table_name));
}

bool Database::HasView(const std::string& view_name) const {
  const std::shared_lock lock(catalog_lock_);
  return views_.contains(FoldIdentifier(view_name));
}

std::vector<std::string> Database::TableNames() const {
  const std::shared_lock lock(catalog_lock_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace sqloop::minidb
