#include "minidb/server.h"

#include <algorithm>
#include <mutex>

#include "common/error.h"

namespace sqloop::minidb {

Server& Server::Default() {
  static Server server;
  return server;
}

std::shared_ptr<Database> Server::CreateDatabase(const std::string& name,
                                                 EngineProfile profile,
                                                 SelectEngine engine) {
  const std::string folded = FoldIdentifier(name);
  const std::scoped_lock lock(mutex_);
  if (databases_.contains(folded)) {
    throw UsageError("database '" + name + "' already exists");
  }
  auto db = std::make_shared<Database>(folded, std::move(profile), tracker_,
                                       engine);
  databases_.emplace(folded, db);
  return db;
}

std::shared_ptr<Database> Server::FindDatabase(const std::string& name) const {
  const std::scoped_lock lock(mutex_);
  const auto it = databases_.find(FoldIdentifier(name));
  return it == databases_.end() ? nullptr : it->second;
}

bool Server::DropDatabase(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  return databases_.erase(FoldIdentifier(name)) > 0;
}

std::vector<std::string> Server::DatabaseNames() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(databases_.size());
  for (const auto& [name, db] : databases_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace sqloop::minidb
