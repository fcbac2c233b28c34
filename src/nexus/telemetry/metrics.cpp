#include "nexus/telemetry/metrics.hpp"

#include <algorithm>
#include <iterator>

#include "nexus/telemetry/json.hpp"
#include "util/stats.hpp"

namespace nexus::telemetry {

double Histogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  if (p <= 0.0) return static_cast<double>(min());
  if (p >= 100.0) return static_cast<double>(max());
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t b = buckets_[static_cast<std::size_t>(i)];
    if (b == 0) continue;
    if (static_cast<double>(cum + b) >= target) {
      const double frac = (target - static_cast<double>(cum)) /
                          static_cast<double>(b);
      const double lo =
          std::max<double>(static_cast<double>(bucket_floor(i)),
                           static_cast<double>(min()));
      const double hi =
          std::min<double>(static_cast<double>(bucket_ceil(i)),
                           static_cast<double>(max()));
      return lo + frac * (hi - lo);
    }
    cum += b;
  }
  return static_cast<double>(max());
}

void Histogram::merge(const Histogram& o) noexcept {
  if (o.count_ == 0) return;
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        o.buckets_[static_cast<std::size_t>(i)];
  }
  if (count_ == 0 || o.min_ < min_) min_ = o.min_;
  if (o.max_ > max_) max_ = o.max_;
  count_ += o.count_;
  sum_ += o.sum_;
}

MethodMetrics& MetricsRegistry::method(std::uint32_t context,
                                       std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto key = std::make_pair(context, std::string(name));
  auto it = methods_.find(key);
  if (it == methods_.end()) {
    it = methods_.emplace(std::move(key), std::make_unique<MethodMetrics>())
             .first;
  }
  return *it->second;
}

ContextMetrics& MetricsRegistry::context(std::uint32_t context) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = contexts_.find(context);
  if (it == contexts_.end()) {
    it = contexts_.emplace(context, std::make_unique<ContextMetrics>()).first;
  }
  return *it->second;
}

const MethodMetrics* MetricsRegistry::Snapshot::find_method(
    std::uint32_t context, std::string_view name) const {
  auto it = methods.find(std::make_pair(context, std::string(name)));
  return it == methods.end() ? nullptr : &it->second;
}

const ContextMetrics* MetricsRegistry::Snapshot::find_context(
    std::uint32_t context) const {
  auto it = contexts.find(context);
  return it == contexts.end() ? nullptr : &it->second;
}

namespace {

/// The one definition of an exported metric: a row of its scope's table.
/// The tables drive MethodCounters::merge and every exporter below, so
/// adding a metric costs one field plus one row.  A row sets exactly one
/// member pointer, which makes it a counter or a histogram.  Exported
/// names: the JSON key is `name`; the Prometheus family is
/// `nexus_<prom, else name>`, plus `_total` for counters.  In the text dump
/// a context counter prints on its `group` line under `label`, and the
/// line appears when any member is non-zero; a method counter of group
/// "head" belongs to the method's fixed head line, any other is appended
/// to it as `name value` when non-zero.
template <class Scope, class Counters = Scope>
struct MetricDef {
  std::string_view name;
  std::string_view group = {};
  std::string_view label = {};
  std::uint64_t Counters::*counter = nullptr;
  Histogram Scope::*histogram = nullptr;
  std::string_view prom = {};

  bool is_counter() const noexcept { return counter != nullptr; }
  std::uint64_t value(const Counters& c) const noexcept { return c.*counter; }
  const Histogram& hist(const Scope& s) const noexcept { return s.*histogram; }
  std::string family() const {
    return "nexus_" + std::string(prom.empty() ? name : prom) +
           (is_counter() ? "_total" : "");
  }
};

using MC = MethodCounters;
using MM = MethodMetrics;
using CM = ContextMetrics;

/// Per-method metrics, in export order.
constexpr MetricDef<MM, MC> kMethodMetrics[] = {
    {"sends", "head", "", &MC::sends},
    {"recvs", "head", "", &MC::recvs},
    {"bytes_sent", "head", "", &MC::bytes_sent},
    {"bytes_received", "head", "", &MC::bytes_received},
    {"polls", "head", "", &MC::polls},
    {"poll_hits", "head", "", &MC::poll_hits},
    {"send_errors", "", "", &MC::send_errors},
    {"recv_corrupt", "", "", &MC::recv_corrupt},
    {"rel_retransmits", "", "", &MC::rel_retransmits},
    {"rel_dup_drops", "", "", &MC::rel_dup_drops},
    {"rel_acks_sent", "", "", &MC::rel_acks_sent},
    {"rel_acks_received", "", "", &MC::rel_acks_received},
    {"rel_epoch_rejects", "", "", &MC::rel_epoch_rejects},
    {.name = "send_bytes", .histogram = &MM::send_bytes},
    {.name = "recv_bytes", .histogram = &MM::recv_bytes},
    {.name = "window_occupancy", .histogram = &MM::window_occupancy},
};

/// Per-context metrics, in export order.
constexpr MetricDef<CM> kContextMetrics[] = {
    {.name = "rsr_oneway_ns", .histogram = &CM::rsr_oneway_ns},
    {.name = "handler_ns", .histogram = &CM::handler_ns},
    {.name = "poll_interval_ns", .histogram = &CM::poll_interval_ns},
    {.name = "poll_batch", .histogram = &CM::poll_batch},
    {.name = "rsr_retries", .histogram = &CM::rsr_retries},
    {"failovers", "failover", "triggered", &CM::failovers},
    {"suspects", "failover", "suspects", &CM::suspects},
    {"restores", "failover", "restores", &CM::restores},
    {"adapt_switches", "adapt", "switches", &CM::adapt_switches},
    {"adapt_reranks", "adapt", "reranks", &CM::adapt_reranks},
    {"adapt_probes", "adapt", "probes", &CM::adapt_probes},
    {"peer_deaths", "robust", "peer_deaths", &CM::peer_deaths},
    {"peer_reborns", "robust", "reborns", &CM::peer_reborns},
    {"deadletters", "robust", "deadletters", &CM::deadletters},
    {"deadletter_drops", "robust", "dl_drops", &CM::deadletter_drops},
    {"deadletter_redeliveries", "robust", "dl_redelivered",
     &CM::deadletter_redeliveries},
    {"send_errors", "robust", "send_errors", &CM::send_errors, nullptr,
     "ctx_send_errors"},
    {"rpc_calls", "rpc", "calls", &CM::rpc_calls},
    {"rpc_deadline_exceeded", "rpc", "deadline_exceeded",
     &CM::rpc_deadline_exceeded},
    {"rpc_cancelled", "rpc", "cancelled", &CM::rpc_cancelled},
    {"rpc_rejected", "rpc", "rejected", &CM::rpc_rejected},
    {"rpc_peer_died", "rpc", "peer_died", &CM::rpc_peer_died},
    {"rpc_late_replies", "rpc", "late_replies", &CM::rpc_late_replies},
    {"rpc_bulk_pull_chunks", "rpc", "bulk_chunks", &CM::rpc_bulk_pull_chunks},
    {"rpc_bulk_errors", "rpc", "bulk_errors", &CM::rpc_bulk_errors},
    {.name = "rpc_call_ns", .histogram = &CM::rpc_call_ns},
    {.name = "rpc_bulk_mb_s", .histogram = &CM::rpc_bulk_mb_s},
};

std::string hist_summary(std::string_view name, const Histogram& h) {
  if (h.count() == 0) return "";
  std::string out("    ");
  out += name;
  out += ": n=" + std::to_string(h.count()) +
         " mean=" + util::fmt_fixed(h.mean(), 1) +
         " p50=" + util::fmt_fixed(h.percentile(50), 1) +
         " p90=" + util::fmt_fixed(h.percentile(90), 1) +
         " p99=" + util::fmt_fixed(h.percentile(99), 1) +
         " p999=" + util::fmt_fixed(h.percentile(99.9), 1) +
         " min=" + std::to_string(h.min()) +
         " max=" + std::to_string(h.max()) + "\n";
  return out;
}

std::string hist_json(const Histogram& h) {
  std::string out = "{\"count\":" + std::to_string(h.count()) +
                    ",\"sum\":" + std::to_string(h.sum()) +
                    ",\"min\":" + std::to_string(h.min()) +
                    ",\"max\":" + std::to_string(h.max()) + ",\"buckets\":[";
  // Emit sparse [index, count] pairs: most of the 65 buckets are empty.
  bool first = true;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    if (h.bucket_count(i) == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "[";
    out += std::to_string(i);
    out += ",";
    out += std::to_string(h.bucket_count(i));
    out += "]";
  }
  out += "]}";
  return out;
}

/// The context lines of the text dump: histogram summaries, and one line
/// per counter group with any non-zero member.
std::string context_text(const CM& cm) {
  std::string out;
  for (std::size_t i = 0; i < std::size(kContextMetrics); ++i) {
    const auto& m = kContextMetrics[i];
    if (!m.is_counter()) {
      out += hist_summary(m.name, m.hist(cm));
      continue;
    }
    if (i > 0 && kContextMetrics[i - 1].group == m.group) continue;
    std::string line = "    " + std::string(m.group) + ":";
    bool any = false;
    for (std::size_t j = i; j < std::size(kContextMetrics) &&
                            kContextMetrics[j].group == m.group;
         ++j) {
      const std::uint64_t v = kContextMetrics[j].value(cm);
      any = any || v != 0;
      line += " " + std::string(kContextMetrics[j].label) + " " +
              std::to_string(v);
    }
    if (any) out += line + "\n";
  }
  return out;
}

/// One method's text: the fixed head line, its other non-zero counters,
/// then its histogram summaries.
std::string method_text(const std::string& method, const MM& mm) {
  const MC& c = mm.counters;
  std::string out = "  " + method + ": sent " + std::to_string(c.sends) +
                    "/" + std::to_string(c.bytes_sent) + "B recv " +
                    std::to_string(c.recvs) + "/" +
                    std::to_string(c.bytes_received) + "B polls " +
                    std::to_string(c.polls) + " hits " +
                    std::to_string(c.poll_hits);
  for (const auto& m : kMethodMetrics) {
    if (!m.is_counter() || m.group == "head" || m.value(c) == 0) continue;
    out += " " + std::string(m.name) + " " + std::to_string(m.value(c));
  }
  out += "\n";
  for (const auto& m : kMethodMetrics) {
    if (!m.is_counter()) out += hist_summary(m.name, m.hist(mm));
  }
  return out;
}

/// The JSON members of one scope's entry, each row in table order.
template <class Scope, class Counters, std::size_t N>
std::string json_fields(const MetricDef<Scope, Counters> (&table)[N],
                        const Scope& s, const Counters& c) {
  std::string out;
  for (const auto& m : table) {
    out += ",\"" + std::string(m.name) + "\":" +
           (m.is_counter() ? std::to_string(m.value(c)) : hist_json(m.hist(s)));
  }
  return out;
}

/// One Prometheus histogram family member: cumulative buckets keyed by each
/// occupied log2 bucket's inclusive upper bound, then the mandatory +Inf
/// bucket, _sum, and _count.  `labels` is the rendered label set without
/// braces, e.g. `context="0",method="tcp"`.
void prom_histogram(std::string& out, const std::string& family,
                    const std::string& labels, const Histogram& h) {
  std::uint64_t cum = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    if (h.bucket_count(i) == 0) continue;
    cum += h.bucket_count(i);
    out += family + "_bucket{" + labels + ",le=\"" +
           std::to_string(Histogram::bucket_ceil(i)) + "\"} " +
           std::to_string(cum) + "\n";
  }
  out += family + "_bucket{" + labels + ",le=\"+Inf\"} " +
         std::to_string(h.count()) + "\n";
  out += family + "_sum{" + labels + "} " + std::to_string(h.sum()) + "\n";
  out += family + "_count{" + labels + "} " + std::to_string(h.count()) + "\n";
}

/// `# TYPE` lines for the rows of one kind.
template <class Table>
void prom_types(std::string& out, const Table& table, bool counters) {
  for (const auto& m : table) {
    if (m.is_counter() != counters) continue;
    out += "# TYPE " + m.family() +
           (counters ? " counter\n" : " histogram\n");
  }
}

/// Every series of one scope's entry, each row in table order.
template <class Scope, class Counters, std::size_t N>
void prom_series(std::string& out,
                 const MetricDef<Scope, Counters> (&table)[N],
                 const std::string& labels, const Scope& s,
                 const Counters& c) {
  for (const auto& m : table) {
    if (m.is_counter()) {
      out += m.family() + "{" + labels + "} " + std::to_string(m.value(c)) +
             "\n";
    } else {
      prom_histogram(out, m.family(), labels, m.hist(s));
    }
  }
}

}  // namespace

void MethodCounters::merge(const MethodCounters& o) noexcept {
  for (const auto& m : kMethodMetrics) {
    if (m.is_counter()) this->*m.counter += o.*m.counter;
  }
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  for (const auto& [key, mm] : methods_) snap.methods[key] = *mm;
  for (const auto& [id, cm] : contexts_) snap.contexts[id] = *cm;
  return snap;
}

std::string MetricsRegistry::to_text() const {
  const Snapshot snap = snapshot();
  std::string out;
  std::uint32_t current = ~std::uint32_t{0};
  for (const auto& [key, mm] : snap.methods) {
    if (key.first != current) {
      current = key.first;
      out += "context " + std::to_string(current) + ":\n";
      if (const ContextMetrics* cm = snap.find_context(current)) {
        out += context_text(*cm);
      }
    }
    out += method_text(key.second, mm);
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  const Snapshot snap = snapshot();
  std::string out = "{\"contexts\":[";
  const char* sep = "";
  for (const auto& [id, cm] : snap.contexts) {
    out += sep + ("{\"context\":" + std::to_string(id)) +
           json_fields(kContextMetrics, cm, cm) + "}";
    sep = ",";
  }
  out += "],\"methods\":[";
  sep = "";
  for (const auto& [key, mm] : snap.methods) {
    out += sep + ("{\"context\":" + std::to_string(key.first)) +
           ",\"method\":" + json_quote(key.second) +
           json_fields(kMethodMetrics, mm, mm.counters) + "}";
    sep = ",";
  }
  return out + "]}";
}

std::string MetricsRegistry::to_prometheus() const {
  const Snapshot snap = snapshot();
  std::string out;
  prom_types(out, kContextMetrics, /*counters=*/false);
  prom_types(out, kContextMetrics, /*counters=*/true);
  for (const auto& [id, cm] : snap.contexts) {
    const std::string labels = "context=\"" + std::to_string(id) + "\"";
    prom_series(out, kContextMetrics, labels, cm, cm);
  }
  prom_types(out, kMethodMetrics, /*counters=*/true);
  prom_types(out, kMethodMetrics, /*counters=*/false);
  for (const auto& [key, mm] : snap.methods) {
    const std::string labels = "context=\"" + std::to_string(key.first) +
                               "\",method=\"" + json_escape(key.second) +
                               "\"";
    prom_series(out, kMethodMetrics, labels, mm, mm.counters);
  }
  return out;
}

}  // namespace nexus::telemetry
