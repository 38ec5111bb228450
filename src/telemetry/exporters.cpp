#include "telemetry/exporters.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace sqloop::telemetry {
namespace {

// %.9g keeps microsecond resolution on run-scale durations while staying
// locale-independent and round-trippable through strtod.
std::string Num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

// --- minimal reader for our own flat JSON lines --------------------------

/// Finds `"key":` in `line` and returns the offset just past the colon, or
/// npos when the key is absent.
size_t ValueOffset(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  return pos == std::string::npos ? std::string::npos : pos + needle.size();
}

bool FindString(const std::string& line, const std::string& key,
                std::string* out) {
  size_t pos = ValueOffset(line, key);
  if (pos == std::string::npos || pos >= line.size() || line[pos] != '"') {
    return false;
  }
  out->clear();
  for (++pos; pos < line.size(); ++pos) {
    if (line[pos] == '\\' && pos + 1 < line.size()) {
      out->push_back(line[++pos]);
    } else if (line[pos] == '"') {
      return true;
    } else {
      out->push_back(line[pos]);
    }
  }
  return false;  // unterminated string
}

bool FindDouble(const std::string& line, const std::string& key,
                double* out) {
  const size_t pos = ValueOffset(line, key);
  if (pos == std::string::npos) return false;
  char* end = nullptr;
  *out = std::strtod(line.c_str() + pos, &end);
  return end != line.c_str() + pos;
}

// Integer fields parse with full 64-bit precision (thread ids exceed the
// 53-bit double mantissa); a fractional/scientific token from a foreign
// writer falls back to the double path.
bool FindUint(const std::string& line, const std::string& key,
              uint64_t* out) {
  const size_t pos = ValueOffset(line, key);
  if (pos == std::string::npos) return false;
  char* end = nullptr;
  *out = std::strtoull(line.c_str() + pos, &end, 10);
  if (end == line.c_str() + pos) return false;
  if (*end == '.' || *end == 'e' || *end == 'E') {
    double value = 0;
    if (!FindDouble(line, key, &value)) return false;
    *out = static_cast<uint64_t>(value);
  }
  return true;
}

bool FindInt(const std::string& line, const std::string& key, int64_t* out) {
  const size_t pos = ValueOffset(line, key);
  if (pos == std::string::npos) return false;
  char* end = nullptr;
  *out = std::strtoll(line.c_str() + pos, &end, 10);
  if (end == line.c_str() + pos) return false;
  if (*end == '.' || *end == 'e' || *end == 'E') {
    double value = 0;
    if (!FindDouble(line, key, &value)) return false;
    *out = static_cast<int64_t>(value);
  }
  return true;
}

std::string Sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    out += std::isalnum(u) ? static_cast<char>(std::tolower(u)) : '_';
  }
  return out;
}

void Metric(std::ostringstream& out, const std::string& name,
            const std::string& value) {
  out << "# TYPE " << name << " counter\n" << name << ' ' << value << "\n";
}

}  // namespace

void WriteJsonLines(const Recorder& recorder, std::ostream& out) {
  for (const auto& [name, value] : recorder.Counters()) {
    out << "{\"type\":\"counter\",\"name\":" << Quote(name)
        << ",\"value\":" << value << "}\n";
  }
  for (const auto& [name, seconds] : recorder.Timers()) {
    out << "{\"type\":\"timer\",\"name\":" << Quote(name)
        << ",\"seconds\":" << Num(seconds) << "}\n";
  }
  for (const auto& it : recorder.IterationsSnapshot()) {
    out << "{\"type\":\"iteration\",\"round\":" << it.round
        << ",\"updates\":" << it.updates
        << ",\"compute_tasks\":" << it.compute_tasks
        << ",\"gather_tasks\":" << it.gather_tasks
        << ",\"compute_seconds\":" << Num(it.compute_seconds)
        << ",\"gather_seconds\":" << Num(it.gather_seconds)
        << ",\"barrier_wait_seconds\":" << Num(it.barrier_wait_seconds)
        << ",\"messages_produced\":" << it.messages_produced
        << ",\"messages_consumed\":" << it.messages_consumed
        << ",\"skipped_tasks\":" << it.skipped_tasks
        << ",\"seconds\":" << Num(it.seconds) << "}\n";
  }
  for (const auto& span : recorder.SpansSnapshot()) {
    out << "{\"type\":\"span\",\"kind\":\"" << SpanKindName(span.kind)
        << "\",\"round\":" << span.round
        << ",\"partition\":" << span.partition
        << ",\"thread\":" << span.thread_id
        << ",\"start_seconds\":" << Num(span.start_seconds)
        << ",\"duration_seconds\":" << Num(span.duration_seconds)
        << ",\"updates\":" << span.updates << "}\n";
  }
}

std::string JsonLines(const Recorder& recorder) {
  std::ostringstream out;
  WriteJsonLines(recorder, out);
  return out.str();
}

size_t ReadJsonLines(std::istream& in, Recorder& into) {
  size_t consumed = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string type;
    if (!FindString(line, "type", &type)) {
      throw UsageError("telemetry JSON line without a \"type\": " + line);
    }
    if (type == "counter") {
      std::string name;
      uint64_t value = 0;
      if (!FindString(line, "name", &name) ||
          !FindUint(line, "value", &value)) {
        throw UsageError("malformed counter line: " + line);
      }
      into.Add(name, value);
    } else if (type == "timer") {
      std::string name;
      double seconds = 0;
      if (!FindString(line, "name", &name) ||
          !FindDouble(line, "seconds", &seconds)) {
        throw UsageError("malformed timer line: " + line);
      }
      into.AddSeconds(name, seconds);
    } else if (type == "iteration") {
      IterationStats it;
      if (!FindInt(line, "round", &it.round)) {
        throw UsageError("malformed iteration line: " + line);
      }
      FindUint(line, "updates", &it.updates);
      FindUint(line, "compute_tasks", &it.compute_tasks);
      FindUint(line, "gather_tasks", &it.gather_tasks);
      FindDouble(line, "compute_seconds", &it.compute_seconds);
      FindDouble(line, "gather_seconds", &it.gather_seconds);
      FindDouble(line, "barrier_wait_seconds", &it.barrier_wait_seconds);
      FindUint(line, "messages_produced", &it.messages_produced);
      FindUint(line, "messages_consumed", &it.messages_consumed);
      FindUint(line, "skipped_tasks", &it.skipped_tasks);
      FindDouble(line, "seconds", &it.seconds);
      into.RecordIteration(it);
    } else if (type == "span") {
      TaskSpan span;
      std::string kind;
      if (!FindString(line, "kind", &kind) ||
          !ParseSpanKind(kind, &span.kind) ||
          !FindInt(line, "round", &span.round)) {
        throw UsageError("malformed span line: " + line);
      }
      FindInt(line, "partition", &span.partition);
      FindUint(line, "thread", &span.thread_id);
      FindDouble(line, "start_seconds", &span.start_seconds);
      FindDouble(line, "duration_seconds", &span.duration_seconds);
      FindUint(line, "updates", &span.updates);
      into.RecordSpan(span);
    }  // unknown types are forward-compatible: skip
    ++consumed;
  }
  return consumed;
}

std::string PrometheusSnapshot(const Recorder& recorder) {
  const auto iterations = recorder.IterationsSnapshot();
  uint64_t updates = 0;
  double compute = 0, gather = 0, barrier = 0;
  for (const auto& it : iterations) {
    updates += it.updates;
    compute += it.compute_seconds;
    gather += it.gather_seconds;
    barrier += it.barrier_wait_seconds;
  }

  std::ostringstream out;
  Metric(out, "sqloop_iterations_total", std::to_string(iterations.size()));
  Metric(out, "sqloop_updates_total", std::to_string(updates));
  Metric(out, "sqloop_compute_seconds_total", Num(compute));
  Metric(out, "sqloop_gather_seconds_total", Num(gather));
  Metric(out, "sqloop_barrier_wait_seconds_total", Num(barrier));
  Metric(out, "sqloop_task_spans_total",
         std::to_string(recorder.span_count()));
  for (const auto& [name, value] : recorder.Counters()) {
    Metric(out, "sqloop_" + Sanitize(name) + "_total",
           std::to_string(value));
  }
  for (const auto& [name, seconds] : recorder.Timers()) {
    Metric(out, "sqloop_" + Sanitize(name) + "_seconds_total", Num(seconds));
  }
  return out.str();
}

std::string Summary(const Recorder& recorder) {
  std::ostringstream out;
  const auto iterations = recorder.IterationsSnapshot();
  out << "-- telemetry: " << iterations.size() << " round(s), "
      << recorder.span_count() << " span(s) --\n";
  if (!iterations.empty()) {
    out << "round    updates  ctask  gtask  compute_s  gather_s  barrier_s"
           "   msg+   msg-   skip    wall_s\n";
    for (const auto& it : iterations) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "%5lld %10llu %6llu %6llu  %9.4f %9.4f  %9.4f %6llu "
                    "%6llu %6llu %9.4f\n",
                    static_cast<long long>(it.round),
                    static_cast<unsigned long long>(it.updates),
                    static_cast<unsigned long long>(it.compute_tasks),
                    static_cast<unsigned long long>(it.gather_tasks),
                    it.compute_seconds, it.gather_seconds,
                    it.barrier_wait_seconds,
                    static_cast<unsigned long long>(it.messages_produced),
                    static_cast<unsigned long long>(it.messages_consumed),
                    static_cast<unsigned long long>(it.skipped_tasks),
                    it.seconds);
      out << line;
    }
  }
  const auto counters = recorder.Counters();
  if (!counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : counters) {
      out << "  " << name << " = " << value << "\n";
    }
  }
  const auto timers = recorder.Timers();
  if (!timers.empty()) {
    out << "timers:\n";
    for (const auto& [name, seconds] : timers) {
      out << "  " << name << " = " << Num(seconds) << "s\n";
    }
  }
  return out.str();
}

}  // namespace sqloop::telemetry
