#include "nexus/telemetry/stitch.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "nexus/telemetry/json.hpp"

namespace nexus::telemetry {

Phase phase_from_name(std::string_view name) noexcept {
  for (int p = 0; p <= static_cast<int>(Phase::Custom); ++p) {
    if (name == phase_name(static_cast<Phase>(p))) {
      return static_cast<Phase>(p);
    }
  }
  return Phase::Custom;
}

void TraceStitcher::add_events(const std::vector<Event>& evs,
                               const std::vector<std::string>& labels) {
  events_.reserve(events_.size() + evs.size());
  names_.reserve(names_.size() + evs.size());
  for (const Event& ev : evs) {
    events_.push_back(ev);
    names_.push_back(ev.label < labels.size() ? labels[ev.label]
                                              : std::string("?"));
  }
}

void TraceStitcher::add_tracer(const Tracer& tracer) {
  for (const Event& ev : tracer.events()) {
    events_.push_back(ev);
    names_.push_back(tracer.label_name(ev.label));
  }
}

namespace {

/// Pull `"key":<unsigned>` out of one JSONL line; `fallback` when absent.
std::uint64_t field_u64(const std::string& line, const char* key,
                        std::uint64_t fallback = 0) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return fallback;
  const char* p = line.c_str() + pos + needle.size();
  char* end = nullptr;
  const unsigned long long v = std::strtoull(p, &end, 10);
  return end == p ? fallback : static_cast<std::uint64_t>(v);
}

/// Pull `"key":"value"` (no escape handling beyond stopping at the quote:
/// phase/label names in dumps are plain identifiers).
std::string field_str(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return "";
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return "";
  return line.substr(start, end - start);
}

}  // namespace

bool TraceStitcher::add_flight_dump(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  std::string line;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    line.assign(buf);
    if (line.find("\"flight\":true") != std::string::npos) continue;  // meta
    if (line.find("\"phase\":") == std::string::npos) continue;
    Event ev;
    ev.when = static_cast<Time>(field_u64(line, "when"));
    ev.context = static_cast<std::uint32_t>(field_u64(line, "ctx"));
    ev.phase = phase_from_name(field_str(line, "phase"));
    ev.span = field_u64(line, "span");
    ev.parent = field_u64(line, "parent");
    ev.trace = field_u64(line, "trace");
    ev.size = field_u64(line, "size");
    ev.aux = field_u64(line, "aux");
    events_.push_back(ev);
    names_.push_back(field_str(line, "label"));
  }
  std::fclose(f);
  return true;
}

std::vector<std::uint64_t> TraceStitcher::traces() const {
  std::vector<std::uint64_t> out;
  for (const Event& ev : events_) {
    if (ev.trace != 0) out.push_back(ev.trace);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<SpanNode> TraceStitcher::spans(std::uint64_t trace) const {
  std::map<SpanId, SpanNode> nodes;
  std::vector<SpanId> order;
  for (const Event& ev : events_) {
    if (ev.trace != trace || ev.span == 0) continue;
    auto [it, fresh] = nodes.try_emplace(ev.span);
    SpanNode& n = it->second;
    if (fresh) {
      n.id = ev.span;
      n.trace = trace;
      n.context = ev.context;
      n.start = ev.when;
      n.end = ev.when;
      order.push_back(ev.span);
    }
    n.start = std::min(n.start, ev.when);
    n.end = std::max(n.end, ev.when);
    ++n.events;
    if (ev.parent != 0 && ev.parent != ev.span) n.parent = ev.parent;
    // The span is *opened* where its Send or Forward fired; later events
    // (dispatch at the destination) must not steal ownership.
    if (ev.phase == Phase::Send || ev.phase == Phase::Forward) {
      n.context = ev.context;
    }
  }
  std::vector<SpanNode> out;
  out.reserve(order.size());
  for (SpanId id : order) out.push_back(nodes[id]);
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanNode& a, const SpanNode& b) {
                     return (a.parent == 0) > (b.parent == 0);
                   });
  return out;
}

std::string TraceStitcher::chrome_json() const {
  // Time-sort an index so flow arrows come out in causal order regardless
  // of ingestion order (dumps may arrive per context, not per time).
  std::vector<std::size_t> idx(events_.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return events_[a].when < events_[b].when;
  });

  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i : idx) {
    std::string name = phase_name(events_[i].phase);
    if (!names_[i].empty()) {
      name += ":";
      name += names_[i];
    }
    append_chrome_event(out, events_[i], name);
  }
  out += "],\"otherData\":{\"stitched\":true,\"events\":" +
         std::to_string(events_.size()) + "}}";
  return out;
}

bool TraceStitcher::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = chrome_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace nexus::telemetry
