#include "core/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/checksum.h"
#include "common/error.h"
#include "common/fault_file.h"
#include "minidb/dump.h"

namespace fs = std::filesystem;

namespace sqloop::core {
namespace {

constexpr char kManifestName[] = "manifest";
// Bumped whenever the on-disk layout changes meaning. Version 2: message
// outboxes with seq watermarks replaced the per-Compute message tables.
constexpr char kLayoutVersion[] = "2";
constexpr char kRoundDirPrefix[] = "ckpt_";
constexpr int64_t kDefaultKeepCheckpoints = 2;

uint64_t Fnv1a(const void* data, size_t length, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < length; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}
constexpr uint64_t kFnvOffset = 14695981039346656037ull;

std::string JoinU64(const std::vector<uint64_t>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out;
}

std::string JoinNames(const std::vector<std::string>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += values[i];
  }
  return out;
}

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> out;
  if (text.empty()) return out;
  size_t start = 0;
  while (true) {
    const size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
}

uint64_t ParseU64(const std::string& text) {
  size_t consumed = 0;
  const uint64_t value = std::stoull(text, &consumed);
  if (consumed != text.size()) throw ExecutionError("bad manifest number");
  return value;
}

std::string HexU64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Priorities round-trip as raw bit patterns, never as formatted decimals —
/// the bit-identical resume guarantee extends to AsyncP's scheduling input.
std::string EncodePriority(const std::optional<double>& value, bool known) {
  if (!known) return "u";
  if (!value.has_value()) return "n";
  uint64_t bits;
  std::memcpy(&bits, &*value, sizeof(bits));
  return HexU64(bits);
}

void DecodePriority(const std::string& text, std::optional<double>* value,
                    char* known) {
  if (text == "u") {
    *known = 0;
    value->reset();
    return;
  }
  *known = 1;
  if (text == "n") {
    value->reset();
    return;
  }
  if (text.size() != 16) throw ExecutionError("bad manifest priority");
  const uint64_t bits = std::stoull(text, nullptr, 16);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  *value = v;
}

/// The manifest is `key=value` lines sealed by a final `crc=` line over
/// every preceding byte, published tmp + rename through the durability
/// shim like the dumps (so manifest sealing is crash-point-enumerable).
void WriteSealedFile(const std::string& path, const std::string& body) {
  std::string out = body;
  out += "crc=" + std::to_string(Crc32(out.data(), out.size())) + "\n";
  FaultFile::PublishFile(path, out.data(), out.size(), "checkpoint manifest");
}

/// Returns the manifest body (CRC line stripped) or throws.
std::string ReadSealedFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ExecutionError("cannot open manifest '" + path + "'");
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t crc_pos = data.rfind("crc=");
  if (crc_pos == std::string::npos || crc_pos == 0 ||
      data[crc_pos - 1] != '\n' || data.back() != '\n') {
    throw ExecutionError("manifest '" + path + "' is torn");
  }
  const std::string crc_text =
      data.substr(crc_pos + 4, data.size() - crc_pos - 5);
  if (ParseU64(crc_text) != Crc32(data.data(), crc_pos)) {
    throw ExecutionError("manifest '" + path + "' failed CRC validation");
  }
  return data.substr(0, crc_pos);
}

std::string RenderManifest(const CheckpointManifest& m) {
  std::ostringstream out;
  out << "sqloop_checkpoint=" << kLayoutVersion << "\n";
  out << "round=" << m.round << "\n";
  out << "mode=" << m.mode << "\n";
  out << "partitions=" << m.partitions << "\n";
  if (!m.table_file.empty()) out << "table_file=" << m.table_file << "\n";
  if (!m.partition_files.empty()) {
    out << "partition_files=" << JoinNames(m.partition_files) << "\n";
    out << "outbox_files=" << JoinNames(m.outbox_files) << "\n";
    out << "published=" << JoinU64(m.published) << "\n";
    out << "watermarks=" << JoinU64(m.watermarks) << "\n";
    out << "addressed=" << JoinU64(m.addressed) << "\n";
  }
  out << "dispatch_seq=" << m.dispatch_seq << "\n";
  out << "last_dispatch=" << JoinU64(m.last_dispatch) << "\n";
  std::string priorities;
  for (size_t i = 0; i < m.priorities.size(); ++i) {
    if (i > 0) priorities += ',';
    priorities += EncodePriority(m.priorities[i], m.priority_known[i] != 0);
  }
  out << "priorities=" << priorities << "\n";
  out << "content_hash=" << m.content_hash << "\n";
  return out.str();
}

CheckpointManifest ParseManifest(const std::string& body) {
  std::map<std::string, std::string> fields;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) throw ExecutionError("bad manifest line");
    fields[line.substr(0, eq)] = line.substr(eq + 1);
  }
  auto require = [&](const std::string& key) -> const std::string& {
    const auto it = fields.find(key);
    if (it == fields.end()) {
      throw ExecutionError("manifest is missing '" + key + "'");
    }
    return it->second;
  };
  if (require("sqloop_checkpoint") != kLayoutVersion) {
    throw ExecutionError("unsupported manifest version");
  }
  CheckpointManifest m;
  m.round = static_cast<int64_t>(ParseU64(require("round")));
  m.mode = require("mode");
  m.partitions = static_cast<int64_t>(ParseU64(require("partitions")));
  if (const auto it = fields.find("table_file"); it != fields.end()) {
    m.table_file = it->second;
  }
  const auto parse_u64s = [&](const std::string& key) {
    std::vector<uint64_t> values;
    for (const std::string& v : SplitList(require(key))) {
      values.push_back(ParseU64(v));
    }
    return values;
  };
  if (const auto it = fields.find("partition_files"); it != fields.end()) {
    m.partition_files = SplitList(it->second);
    m.outbox_files = SplitList(require("outbox_files"));
    m.published = parse_u64s("published");
    m.watermarks = parse_u64s("watermarks");
    m.addressed = parse_u64s("addressed");
  }
  m.dispatch_seq = ParseU64(require("dispatch_seq"));
  m.last_dispatch = parse_u64s("last_dispatch");
  for (const std::string& p : SplitList(require("priorities"))) {
    std::optional<double> value;
    char known = 0;
    DecodePriority(p, &value, &known);
    m.priorities.push_back(value);
    m.priority_known.push_back(known);
  }
  m.content_hash = ParseU64(require("content_hash"));
  return m;
}

/// Dump files in manifest order; the content hash covers their CRC footers
/// in exactly this order.
std::vector<std::string> DumpFilesOf(const CheckpointManifest& m) {
  std::vector<std::string> files;
  if (!m.table_file.empty()) files.push_back(m.table_file);
  for (const auto& f : m.partition_files) files.push_back(f);
  for (const auto& f : m.outbox_files) files.push_back(f);
  return files;
}

/// Validates every dump and folds their CRCs into the content hash.
/// Returns false (with no exception) on any invalid file.
bool HashDumpFiles(const std::string& dir, const CheckpointManifest& m,
                   uint64_t* hash_out) {
  uint64_t hash = kFnvOffset;
  for (const std::string& file : DumpFilesOf(m)) {
    uint32_t crc = 0;
    if (!minidb::ValidateDumpFile(dir + "/" + file, &crc)) return false;
    hash = Fnv1a(&crc, sizeof(crc), hash);
  }
  *hash_out = hash;
  return true;
}

std::optional<int64_t> RoundOfDir(const fs::path& path) {
  const std::string name = path.filename().string();
  if (name.rfind(kRoundDirPrefix, 0) != 0) return std::nullopt;
  try {
    return static_cast<int64_t>(
        ParseU64(name.substr(std::strlen(kRoundDirPrefix))));
  } catch (...) {
    return std::nullopt;
  }
}

/// Sealed = the manifest file exists (it is only ever renamed into place
/// after a complete write).
bool IsSealed(const fs::path& round_dir) {
  std::error_code ec;
  return fs::exists(round_dir / kManifestName, ec);
}

std::string BaseDir(std::string dir) {
  return dir.empty() ? std::string("sqloop_ckpt") : dir;
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir, std::string job_id,
                                     int64_t keep, bool verify)
    : root_(BaseDir(std::move(dir)) + "/" + job_id),
      keep_(keep > 0 ? keep : kDefaultKeepCheckpoints),
      verify_(verify) {}

std::string CheckpointManager::JobId(const std::string& identity) {
  const std::string versioned =
      std::string("layout") + kLayoutVersion + '|' + identity;
  return HexU64(Fnv1a(versioned.data(), versioned.size(), kFnvOffset));
}

std::string CheckpointManager::RoundDir(int64_t round) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08lld", kRoundDirPrefix,
                static_cast<long long>(round));
  return root_ + "/" + buf;
}

std::string CheckpointManager::BeginRound(int64_t round) {
  const std::string dir = RoundDir(round);
  std::error_code ec;
  fs::remove_all(dir, ec);  // torn leftover from a previous crashed attempt
  fs::create_directories(dir, ec);
  if (ec) {
    throw ExecutionError("cannot create checkpoint directory '" + dir +
                         "': " + ec.message());
  }
  return dir;
}

std::string CheckpointManager::FileFor(int64_t round,
                                       const std::string& stem) const {
  return RoundDir(round) + "/" + stem;
}

bool CheckpointManager::TryReuseDump(int64_t round, const std::string& stem,
                                     const std::string& checksum) {
  const auto it = sealed_.find(stem);
  if (it == sealed_.end() || it->second.checksum != checksum) return false;
  // The previous round's directory survives pruning until the next Commit
  // (retention >= 1 always keeps the newest sealed checkpoint), but a
  // concurrent operator cleanup could have removed it — fall back to a
  // fresh dump on any read failure rather than failing the checkpoint.
  std::string bytes;
  try {
    std::ifstream in(FileFor(it->second.round, stem), std::ios::binary);
    if (!in) return false;
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    if (in.bad() || bytes.empty()) return false;
  } catch (...) {
    return false;
  }
  // Republish through the durability shim: same tmp+rename+fsync sequence
  // (and therefore the same crash-point ordinals) as a fresh DUMP TABLE,
  // so crash-injection schedules are unchanged by reuse kicking in.
  FaultFile::PublishFile(FileFor(round, stem), bytes.data(), bytes.size(),
                         "dump file");
  it->second.round = round;
  return true;
}

void CheckpointManager::RecordDumpChecksum(int64_t round,
                                           const std::string& stem,
                                           const std::string& checksum) {
  sealed_[stem] = SealedDump{round, checksum};
}

void CheckpointManager::Commit(CheckpointManifest manifest) {
  const std::string dir = RoundDir(manifest.round);
  if (!HashDumpFiles(dir, manifest, &manifest.content_hash)) {
    throw ExecutionError("checkpoint " + dir +
                         " has an invalid dump file; not committing");
  }
  WriteSealedFile(dir + "/" + kManifestName, RenderManifest(manifest));

  if (verify_) {
    // Read-back verification: the checkpoint we just sealed must validate
    // from disk the same way recovery would validate it (manifest CRC,
    // every dump CRC, content hash). Catches write-path bugs and silent
    // storage faults at commit time rather than at the next crash.
    CheckpointManifest reread =
        ParseManifest(ReadSealedFile(dir + "/" + kManifestName));
    uint64_t hash = 0;
    if (reread.round != manifest.round ||
        !HashDumpFiles(dir, reread, &hash) || hash != reread.content_hash) {
      throw IntegrityError("checkpoint " + dir +
                           " failed post-commit verification");
    }
    ++verified_;
  }

  // Prune: keep the newest keep_ sealed checkpoints, drop everything else
  // (including older torn directories).
  std::vector<int64_t> sealed;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    const auto round = RoundOfDir(entry.path());
    if (round && IsSealed(entry.path())) sealed.push_back(*round);
  }
  std::sort(sealed.begin(), sealed.end(), std::greater<int64_t>());
  const int64_t oldest_kept =
      static_cast<int64_t>(sealed.size()) > keep_
          ? sealed[static_cast<size_t>(keep_ - 1)]
          : (sealed.empty() ? 0 : sealed.back());
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    const auto round = RoundOfDir(entry.path());
    if (!round) continue;
    if (*round < oldest_kept || (!IsSealed(entry.path()) && *round < manifest.round)) {
      fs::remove_all(entry.path(), ec);
    }
  }
}

RecoveryManager::RecoveryManager(std::string dir, std::string job_id)
    : root_(BaseDir(std::move(dir)) + "/" + job_id) {}

std::optional<CheckpointManifest> RecoveryManager::FindLatestValid() const {
  std::vector<std::pair<int64_t, fs::path>> candidates;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (const auto round = RoundOfDir(entry.path())) {
      candidates.emplace_back(*round, entry.path());
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [round, path] : candidates) {
    try {
      CheckpointManifest m =
          ParseManifest(ReadSealedFile((path / kManifestName).string()));
      if (m.round != round) continue;  // manifest landed in the wrong dir
      uint64_t hash = 0;
      if (!HashDumpFiles(path.string(), m, &hash)) continue;
      if (hash != m.content_hash) continue;
      // Resolve file names against the checkpoint directory so callers can
      // hand them straight to RESTORE TABLE.
      const std::string dir = path.string();
      if (!m.table_file.empty()) m.table_file = dir + "/" + m.table_file;
      for (auto& f : m.partition_files) f = dir + "/" + f;
      for (auto& f : m.outbox_files) f = dir + "/" + f;
      return m;
    } catch (...) {
      // Torn or corrupt candidate: fall back to the next-newest.
      continue;
    }
  }
  return std::nullopt;
}

std::string ResolveCheckpointDir(const SqloopOptions& options) {
  return BaseDir(options.checkpoint_dir);
}

}  // namespace sqloop::core
