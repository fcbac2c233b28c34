// Two-clock benchmark: runs one workload of the simulator and prints
// what it cost in wall time, with the model's virtual-time answers checked
// on the side.  See NOTES.md beside this file for the workloads, the
// metrics, and what each layer metric is predicted to move.
//
//   wallbench --workload W --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Prints one JSON object on the last stdout line: correct, attempted,
// failed, failures (check messages), info (affinity, sample counts) and
// metrics (name -> {value, unit}).  --trace 0 measures the end-to-end
// metrics untraced; --trace 1 splits the time between an untraced half
// (counters) and a traced half (spans, self time, trace overhead).
// Exits 1 when a correctness check fails, 2 on a usage error.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <deque>
#include <functional>
#include <map>
#include <new>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "climate/coupled.hpp"
#include "nexus/runtime.hpp"
#include "probes.hpp"
#include "proto/rpc/rpc.hpp"

// ---------------------------------------------------------------------------
// Counting global operator new: every allocation made by the process.

std::atomic<std::uint64_t> wallbench::g_allocs{0};

static void* counted_alloc(std::size_t n) {
  wallbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
static void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  wallbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  wallbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  wallbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace wallbench;
using nexus::Context;
using nexus::ContextId;
using nexus::DeliveryStatus;
using nexus::Endpoint;
using nexus::HandlerId;
using nexus::Runtime;
using nexus::RuntimeOptions;
using nexus::Startpoint;
using nexus::Time;
using nexus::util::PackBuffer;
using nexus::util::UnpackBuffer;
namespace rpc = nexus::proto::rpc;
namespace simnet = nexus::simnet;

// ---------------------------------------------------------------------------
// Shared measurement plumbing.

/// Failed correctness checks (any entry fails the run).
std::vector<std::string> g_failures;

void fail(const std::string& why) { g_failures.push_back(why); }

/// Counters summed over every (context, method) row of the metrics
/// registry, keyed by method name ("mpl", "tcp", "rel+udp", "rel+udp/udp").
struct MethodSums {
  std::uint64_t sends = 0, bytes_sent = 0, polls = 0, poll_hits = 0,
                send_errors = 0, retransmits = 0, dup_drops = 0;
};
using RegSums = std::map<std::string, MethodSums>;

void add(MethodSums& s, const nexus::util::MethodCounters& c) {
  s.sends += c.sends;
  s.bytes_sent += c.bytes_sent;
  s.polls += c.polls;
  s.poll_hits += c.poll_hits;
  s.send_errors += c.send_errors;
  s.retransmits += c.rel_retransmits;
  s.dup_drops += c.rel_dup_drops;
}

/// Every (context, method) row of the registry.  Only while no other
/// thread runs the simulation: the rows are plain counters.
RegSums read_registry(Runtime& rt) {
  RegSums out;
  const auto snap = rt.telemetry().metrics().snapshot();
  for (const auto& [key, mm] : snap.methods) add(out[key.second], mm.counters);
  return out;
}

/// One context's own modules' counters, read on that context's thread.
RegSums own_counters(const Context& ctx) {
  RegSums out;
  for (const std::string& m : ctx.methods()) {
    add(out[m], ctx.method_counters(m));
  }
  return out;
}

RegSums diff(const RegSums& b, const RegSums& a) {
  RegSums out = b;
  for (auto& [name, s] : out) {
    auto it = a.find(name);
    if (it == a.end()) continue;
    s.sends -= it->second.sends;
    s.bytes_sent -= it->second.bytes_sent;
    s.polls -= it->second.polls;
    s.poll_hits -= it->second.poll_hits;
    s.send_errors -= it->second.send_errors;
    s.retransmits -= it->second.retransmits;
    s.dup_drops -= it->second.dup_drops;
  }
  return out;
}

void add(RegSums& into, const RegSums& d) {
  for (const auto& [name, x] : d) {
    MethodSums& s = into[name];
    s.sends += x.sends;
    s.bytes_sent += x.bytes_sent;
    s.polls += x.polls;
    s.poll_hits += x.poll_hits;
    s.send_errors += x.send_errors;
    s.retransmits += x.retransmits;
    s.dup_drops += x.dup_drops;
  }
}

/// Virtual-time ledger p50s (µs) from the registry's context histograms.
struct Ledger {
  double oneway_vus_p50 = 0, poll_interval_vus_p50 = 0;
};

Ledger read_ledger(Runtime& rt) {
  nexus::telemetry::Histogram oneway, poll;
  const auto snap = rt.telemetry().metrics().snapshot();
  for (const auto& [cid, cm] : snap.contexts) {
    oneway.merge(cm.rsr_oneway_ns);
    poll.merge(cm.poll_interval_ns);
  }
  return {oneway.percentile(50) * 1e-3, poll.percentile(50) * 1e-3};
}

/// Reference round trips per measurement, and the round trip taken as
/// nominal when wall figures are scaled to reference host speed.
constexpr int kRefTrips = 32;
constexpr double kRefNominalUs = 5.0;

/// OS threads of the process, less the reference baton's partner (started
/// in main() before any workload runs).
int sim_threads() { return os_threads() - 1; }

/// Wall figures accumulated over the closed blocks of a timed phase.
struct Walls {
  double ops = 0, wall_s = 0, cpu_s = 0;
  LogHist op_us;  ///< one sample per op, or per add_op() call of n ops
};

/// Everything one timed phase measured.
///
/// Host-speed scaling: the phase is cut into blocks of kBlockNs; at each
/// boundary the reference baton (probes.hpp) is timed.  `scaled` holds
/// every block's times multiplied by kRefNominalUs over the reference
/// round trip at its ends, `raw` the times as read.  On a shared host the
/// CPU's speed drifts by 2x over minutes and the reference (the simulator's
/// baton mechanism, outside the simulator) drifts with it, while the
/// scaled figures stay within a few percent.
///
/// Op walls wait in `pending` until their block closes and then go into
/// fixed-size histograms: a per-op sample store would grow with the op
/// rate and show up in peak RSS.
struct Phase {
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t ops = 0;  ///< ops completed in the timed phase
  Usage used;  ///< context switches and sys share inside the timed window(s)
  std::uint64_t allocs = 0;
  int threads_peak = 0;
  double virtual_ms = 0;
  RegSums reg;
  std::uint64_t rsrs_sent = 0, poll_iters = 0;
  Ledger ledger;
  std::map<std::string, double> extra;  ///< workload-specific layer figures
  std::string virtual_sig;  ///< virtual-time answer, for determinism checks
  Walls raw, scaled;
  std::vector<double> refs;  ///< reference round trip of each block
  /// When set, add_block() also keeps each block's own tail wall (scaled,
  /// at the highest percentile with ten ops beyond it) in block_tails, and
  /// op_wall_us_p99 reads their median instead of the pooled tail.
  bool tail_per_block = false;
  std::vector<double> block_tails;

  /// Record `n` ops that ran back to back from `start_ns` to `end_ns` as
  /// one wall sample of their mean.
  void add_op(std::int64_t start_ns, std::int64_t end_ns, int n = 1) {
    pending_.push_back(static_cast<double>(end_ns - start_ns) * 1e-3 / n);
    pending_ops_ += n;
    ops += static_cast<std::uint64_t>(n);
  }
  /// Open the first block of a timed window.  Each boundary measures the
  /// reference over `trips` round trips and then stamps the instant, so
  /// the reference's own wall time falls outside every block's ops.
  void open_block(int trips = kRefTrips) {
    pending_.clear();
    pending_ops_ = 0;
    last_ = boundary(trips);
  }
  /// Close the current block and open the next.
  void tick(int trips = kRefTrips) {
    const Tick t = boundary(trips);
    add_block(static_cast<double>(t.t_ns - last_.t_ns) * 1e-9,
              t.cpu_s - last_.cpu_s, 0.5 * (last_.ref_us + t.ref_us));
    last_ = t;
  }
  /// tick() when the current block has run kBlockNs.
  void maybe_tick() {
    if (now_ns() - last_.t_ns >= kBlockNs) tick();
  }
  /// Close the ops recorded since the last block as one block of
  /// `wall_s` and `cpu_s`, with a reference measured outside it.
  void add_block(double wall_s, double cpu_s, double ref_us) {
    const double k = kRefNominalUs / ref_us;
    for (double us : pending_) {
      raw.op_us.add(us);
      scaled.op_us.add(us * k);
    }
    if (tail_per_block && !pending_.empty()) {
      LogHist h;
      for (double us : pending_) h.add(us * k);
      block_tails.push_back(h.percentile(tail_percentile(h.count())));
    }
    raw.ops += pending_ops_;
    scaled.ops += pending_ops_;
    raw.wall_s += wall_s;
    scaled.wall_s += wall_s * k;
    raw.cpu_s += cpu_s;
    scaled.cpu_s += cpu_s * k;
    pending_.clear();
    pending_ops_ = 0;
    refs.push_back(ref_us);
  }
  static constexpr std::int64_t kBlockNs = 100'000'000;

 private:
  static Tick boundary(int trips) {
    Tick t;
    t.ref_us = RefBaton::get().round_trip_us(trips);
    const Usage u = Usage::now();
    t.cpu_s = u.user_s + u.sys_s;
    t.t_ns = now_ns();
    return t;
  }

  std::vector<double> pending_;
  double pending_ops_ = 0;
  Tick last_;
};

/// Bracket of a timed window taken from inside the simulation; close()
/// adds the window's allocations and usage to the phase.
struct Bracket {
  Clock::time_point t0;
  Usage u0;
  std::uint64_t a0 = 0;
  void open() {
    u0 = Usage::now();
    a0 = allocs();
    t0 = Clock::now();
  }
  /// Returns the window's wall and CPU seconds.
  std::pair<double, double> close(Phase& ph) const {
    const double wall = seconds_since(t0);
    const Usage u1 = Usage::now();
    ph.allocs += allocs() - a0;
    ph.used.add_delta(u0, u1);
    return {wall, u1.user_s + u1.sys_s - u0.user_s - u0.sys_s};
  }
};

/// Stop rule for a phase: a wall budget, an op count, or both (0 = none).
struct Limit {
  double seconds = 0;
  std::uint64_t max_ops = 0;
  bool done(std::uint64_t ops, Clock::time_point t0) const {
    if (max_ops != 0 && ops >= max_ops) return true;
    return seconds > 0 && seconds_since(t0) >= seconds;
  }
};

RuntimeOptions sim_opts(std::vector<std::string> modules, std::size_t n,
                        unsigned threads, std::uint64_t seed) {
  RuntimeOptions o;
  o.topology = simnet::Topology::single_partition(n);
  o.modules = std::move(modules);
  o.threads = threads;
  o.seed = seed;
  return o;
}

/// Wall time from Runtime construction until every context function has
/// been entered.
double setup_once(const RuntimeOptions& opts) {
  const std::size_t n = opts.topology.size();
  std::vector<std::int64_t> entered(n, 0);
  const std::int64_t t0 = now_ns();
  Runtime rt(opts);
  rt.run([&](Context& c) { entered[c.id()] = now_ns(); });
  return static_cast<double>(*std::max_element(entered.begin(),
                                               entered.end()) -
                             t0) *
         1e-9;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// ---------------------------------------------------------------------------
// pingpong_mm: closed loop, one outstanding RSR, 2 contexts on
// local+mpl+tcp (Fig 4 multimethod: traffic on MPL, TCP only polled).

/// Fig 4's size set: nine in ten payloads from its <= 1 KB half, one in
/// ten from its 1 KB - 64 KB half.  Every seed gets the same multiset in
/// its own order, so seeds differ in sequence, not in mix.
std::vector<std::size_t> pingpong_sizes(std::uint64_t seed) {
  static const std::size_t small[] = {0,   100, 200, 300, 400, 500,
                                      600, 700, 800, 900, 1000};
  static const std::size_t large[] = {1024, 4096, 16384, 65536};
  std::vector<std::size_t> out(4400);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = i % 10 == 9 ? large[(i / 10) % 4] : small[i % 11];
  }
  std::shuffle(out.begin(), out.end(), std::mt19937_64(seed));
  return out;
}

Phase pingpong(std::vector<std::string> modules,
               const std::vector<std::size_t>& sizes, Limit lim,
               std::uint64_t warmup, bool traced) {
  Runtime rt(sim_opts(std::move(modules), 2, 1, 1));
  Phase ph;
  const HandlerId ping_id = Context::resolve_handler("ping");
  const HandlerId pong_id = Context::resolve_handler("pong");
  const HandlerId stop_id = Context::resolve_handler("stop");
  Tracer& tr = Tracer::get();
  std::uint64_t bad_echoes = 0;

  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {  // responder
        std::uint64_t served = 0;
        bool stop = false;
        Startpoint reply;
        ctx.register_handler("setup", [&](Context& c, Endpoint&,
                                          UnpackBuffer& ub) {
          reply = c.unpack_startpoint(ub);
        });
        ctx.register_handler("ping", [&](Context& c, Endpoint&,
                                         UnpackBuffer& ub) {
          Scope h(kHandler);
          nexus::util::Bytes echo = ub.get_bytes();
          Scope r(kRsr);
          if (c.rsr(reply, pong_id, std::move(echo)) != DeliveryStatus::Ok) {
            ++ph.failed;
          }
          ++served;
        });
        ctx.register_handler("stop", [&](Context&, Endpoint&,
                                         UnpackBuffer&) { stop = true; });
        for (std::uint64_t k = 1; !stop; ++k) {
          Scope w(kWait);
          ctx.wait([&] { return served >= k || stop; });
        }
      },
      [&](Context& ctx) {  // client
        std::uint64_t got = 0;
        std::size_t want = 0;
        ctx.register_handler("pong", [&](Context&, Endpoint&,
                                         UnpackBuffer& ub) {
          Scope h(kHandler);
          if (ub.remaining() != want) ++bad_echoes;
          ++got;
        });
        Startpoint to = ctx.world_startpoint(0);
        {
          Startpoint back = ctx.startpoint_to(ctx.root_endpoint());
          PackBuffer pb;
          ctx.pack_startpoint(pb, back);
          ctx.rsr(to, "setup", pb);
        }
        const nexus::util::Bytes data(65536, 0x5a);
        auto one_op = [&](std::uint64_t i) {
          tr.current_op.store(i, std::memory_order_relaxed);
          Scope op(kOp, i);
          want = sizes[i % sizes.size()];
          PackBuffer pb;
          {
            Scope p(kPack);
            pb.put_bytes(nexus::util::ByteSpan(data.data(), want));
          }
          {
            Scope r(kRsr);
            if (ctx.rsr(to, ping_id, pb) != DeliveryStatus::Ok) ++ph.failed;
          }
          Scope w(kWait);
          ctx.wait_count(got, i + 1);
        };
        std::uint64_t i = 0;
        for (; i < warmup; ++i) one_op(i);
        const RegSums r0 = read_registry(rt);
        const std::uint64_t sent0 = ctx.rsrs_sent() + rt.context(0).rsrs_sent();
        const std::uint64_t it0 = ctx.polling_engine().iterations() +
                                  rt.context(0).polling_engine().iterations();
        const Time v0 = ctx.now();
        ph.threads_peak = sim_threads();
        tr.set_on(traced);
        Bracket b;
        b.open();
        std::uint64_t ops = 0;
        ph.open_block();
        while (!lim.done(ops, b.t0)) {
          const std::int64_t s = now_ns();
          one_op(i++);
          ph.add_op(s, now_ns());
          ++ops;
          ph.maybe_tick();
        }
        ph.tick();
        b.close(ph);
        tr.set_on(false);
        ph.threads_peak = std::max(ph.threads_peak, sim_threads());
        ph.attempted = ops;
        ph.virtual_ms = simnet::to_us(ctx.now() - v0) * 1e-3;
        ph.reg = diff(read_registry(rt), r0);
        ph.rsrs_sent = ctx.rsrs_sent() + rt.context(0).rsrs_sent() - sent0;
        ph.poll_iters = ctx.polling_engine().iterations() +
                        rt.context(0).polling_engine().iterations() - it0;
        ph.virtual_sig = std::to_string(ctx.now() - v0) + "/" +
                         std::to_string(ph.rsrs_sent);
        ctx.rsr(to, stop_id);
      }});
  if (bad_echoes != 0) {
    fail("pingpong: " + std::to_string(bad_echoes) + " echoes of the wrong size");
  }
  ph.ledger = read_ledger(rt);
  return ph;
}

/// Fig 4's 0-byte one-way time (virtual µs), measured exactly as
/// bench/fig4_pingpong does: 400 rounds timed from the first ping, the
/// responder serving them in one wait_count.
double zero_byte_oneway_us(std::vector<std::string> modules) {
  constexpr std::uint64_t kRounds = 400;
  Runtime rt(sim_opts(std::move(modules), 2, 1, 1));
  Time elapsed = 0;
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        std::uint64_t served = 0;
        Startpoint reply;
        ctx.register_handler("setup", [&](Context& c, Endpoint&,
                                          UnpackBuffer& ub) {
          reply = c.unpack_startpoint(ub);
        });
        ctx.register_handler("ping", [&](Context& c, Endpoint&,
                                         UnpackBuffer& ub) {
          c.rsr(reply, "pong", ub.get_bytes());
          ++served;
        });
        ctx.wait_count(served, kRounds);
      },
      [&](Context& ctx) {
        std::uint64_t got = 0;
        ctx.register_handler("pong", [&](Context&, Endpoint&,
                                         UnpackBuffer&) { ++got; });
        Startpoint to = ctx.world_startpoint(0);
        {
          Startpoint back = ctx.startpoint_to(ctx.root_endpoint());
          PackBuffer pb;
          ctx.pack_startpoint(pb, back);
          ctx.rsr(to, "setup", pb);
        }
        PackBuffer pb;
        pb.put_bytes(nexus::util::Bytes{});
        const Time t0 = ctx.now();
        for (std::uint64_t r = 0; r < kRounds; ++r) {
          ctx.rsr(to, "ping", pb);
          ctx.wait_count(got, r + 1);
        }
        elapsed = ctx.now() - t0;
      }});
  return simnet::to_us(elapsed) / (2.0 * kRounds);
}

void check_fig4_lap() {
  const double mpl = zero_byte_oneway_us({"local", "mpl"});
  const double multi = zero_byte_oneway_us({"local", "mpl", "tcp"});
  // Compared as bench/fig4_pingpong prints them (one decimal).
  if (fmt("%.1f", mpl) != "84.4" || fmt("%.1f", multi) != "203.2") {
    fail("fig4 0-byte one-way " + fmt("%.2f", mpl) + " / " +
         fmt("%.2f", multi) + " virtual us, want 84.4 / 203.2");
  }
}

// ---------------------------------------------------------------------------
// rpc_lossy: rpc::Client/Server over local+rel+udp with seeded UDP drops;
// closed loop with kRpcWindow outstanding calls, small eager calls plus bulk
// pulls.

constexpr std::size_t kRpcWindow = 4;

struct RpcCallSpec {
  bool bulk = false;
  std::size_t bytes = 0;  ///< args bytes (small) or bulk region bytes
};

/// One call in eight pulls a bulk region; region sizes spread evenly over
/// 1 KB - 64 KB and small-call args over 16 - 256 B.  The list is cut into
/// rounds of kRpcRound calls: eight groups of eight, each group with one
/// bulk pull at a seeded position, and the round's eight pulls one from
/// each eighth of the size range, in seeded order.  Which size a round takes
/// from an eighth does not depend on the seed (round r takes the r-th of a
/// fixed bit-reversed order, so the first rounds already spread over each
/// eighth): any whole number of rounds from the start holds the same
/// multiset of calls, and so the same failed bulk pulls, for every seed.
constexpr std::size_t kRpcRound = 64;

std::vector<RpcCallSpec> rpc_specs(std::uint64_t seed) {
  constexpr std::size_t kGroup = 8, kBulk = 512, kCalls = kBulk * kGroup;
  constexpr std::size_t kSmall = kCalls - kBulk;
  constexpr std::size_t kPerStratum = kBulk / kGroup;
  static_assert(kGroup * kGroup == kRpcRound && kPerStratum == 64);
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> bulk(kBulk);  // kGroup strata of kPerStratum
  for (std::size_t st = 0; st < kGroup; ++st) {
    for (std::size_t r = 0; r < kPerStratum; ++r) {
      std::size_t rev = 0;  // r with its 6 bits reversed
      for (std::size_t b = 0; b < 6; ++b) rev |= ((r >> b) & 1) << (5 - b);
      const std::size_t i = st * kPerStratum + rev;
      bulk[st * kPerStratum + r] = 1024 + i * (64 * 1024 - 1024) / (kBulk - 1);
    }
  }
  std::vector<std::size_t> small(kSmall);
  for (std::size_t i = 0; i < kSmall; ++i) {
    small[i] = 16 + i * (256 - 16) / (kSmall - 1);
  }
  std::shuffle(small.begin(), small.end(), rng);
  std::vector<RpcCallSpec> out;
  out.reserve(kCalls);
  std::size_t next_small = 0;
  std::vector<std::size_t> strata(kGroup);
  for (std::size_t round = 0; round < kPerStratum; ++round) {
    for (std::size_t st = 0; st < kGroup; ++st) strata[st] = st;
    std::shuffle(strata.begin(), strata.end(), rng);
    for (std::size_t st : strata) {
      const std::size_t at = rng() % kGroup;
      for (std::size_t k = 0; k < kGroup; ++k) {
        out.push_back(k == at
                          ? RpcCallSpec{true, bulk[st * kPerStratum + round]}
                          : RpcCallSpec{false, small[next_small++]});
      }
    }
  }
  return out;
}

RuntimeOptions rpc_opts(std::uint64_t seed, std::vector<std::string> modules,
                        double drop, const char* chunk) {
  RuntimeOptions o = sim_opts(std::move(modules), 2, 1, seed);
  o.costs.udp_drop_prob = drop;
  if (chunk != nullptr) o.db.set("rpc.bulk_chunk", chunk);
  return o;
}

/// The workload's table: rel+udp, 2% drops, the default rpc.bulk_chunk.
/// At that chunk, bulk regions larger than one chunk end PeerDied (see
/// NOTES.md and rpc_bulk_defect()); those calls count as failed ops.
RuntimeOptions rpc_lossy_opts(std::uint64_t seed) {
  return rpc_opts(seed, {"local", "rel+udp"}, 0.02, nullptr);
}

const char* const kStatusKeys[] = {"ok",         "deadline_exceeded",
                                   "cancelled",  "peer_died",
                                   "rejected",   "handler_error",
                                   "bulk_error"};

/// The server context: "echo" answers (call id, args size), "sink" answers
/// (call id, pulled bulk size); serves until `done`.
void serve_rpc(Context& ctx, const std::atomic<bool>& done) {
  rpc::Server srv(ctx);
  srv.serve("echo", [](rpc::CallContext& cc) {
    Scope h(kRpcHandler);
    UnpackBuffer ub = cc.args();
    PackBuffer pb(16);
    pb.put_u64(ub.get_u64());
    pb.put_u64(ub.get_bytes_view().size());
    cc.respond(pb);
  });
  srv.serve("sink", [](rpc::CallContext& cc) {
    Scope h(kRpcHandler);
    UnpackBuffer ub = cc.args();
    PackBuffer pb(16);
    pb.put_u64(ub.get_u64());
    pb.put_u64(cc.bulk().size());
    cc.respond(pb);
  });
  while (!done.load(std::memory_order_acquire)) {
    if (!ctx.progress()) {
      ctx.compute_with_polling(50 * simnet::kUs, 50 * simnet::kUs);
    }
    srv.service();
  }
}

/// Per-call rpc figures, summed over the sub-runs of a phase.
struct RpcTally {
  LogHist small_us, bulk_us;
  double bulk_bytes = 0, bulk_s = 0, app_bytes = 0;
  std::map<std::string, double> status;
  std::uint64_t next = 0;  ///< op id of the next call; indexes the specs
  RpcTally() {
    for (const char* k : kStatusKeys) status[k] = 0;
  }
};

/// One Runtime: `warmup` closed-loop steps, then a timed window that issues
/// exactly `calls` calls, continuing through `specs` at t.next, and waits for
/// all of them; their ops, counters and per-call figures go into `ph` and
/// `t`.  Warm-up calls take specs from the start of the list on a cursor of
/// their own, so the timed window's calls do not depend on how many the
/// warm-up issued.
void rpc_run(RuntimeOptions opts, const std::vector<RpcCallSpec>& specs,
             std::uint64_t calls, std::uint64_t warmup, bool traced, Phase& ph,
             RpcTally& t) {
  Runtime rt(std::move(opts));
  std::atomic<bool> done{false};
  Tracer& tr = Tracer::get();

  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {  // client
        rpc::Client cl(ctx);
        const nexus::util::Bytes blob(64 * 1024, 0x3c);
        struct Pending {
          rpc::CallId id = 0;
          std::uint64_t op = 0;
          std::int64_t t0 = 0;
          std::int64_t end = 0;  ///< when its terminal status was seen
          RpcCallSpec spec;
          rpc::BulkHandle h;
        };
        std::deque<Pending> pending;
        std::uint64_t issued = 0, completed = 0, bad_replies = 0, warm = 0;
        bool timing = false;

        auto issue = [&] {
          Pending p;
          p.op = timing ? t.next++ : warm++;
          p.spec = specs[p.op % specs.size()];
          p.t0 = now_ns();
          tr.current_op.store(p.op, std::memory_order_relaxed);
          PackBuffer args;
          {
            Scope pk(kPack, p.op);
            args.put_u64(p.op);
            if (!p.spec.bulk) {
              args.put_bytes(nexus::util::ByteSpan(blob.data(), p.spec.bytes));
            }
          }
          if (p.spec.bulk) {
            p.h = cl.register_bulk(nexus::util::SharedBytes(
                nexus::util::Bytes(blob.begin(),
                                   blob.begin() + static_cast<long>(
                                                      p.spec.bytes))));
            Scope c(kRpcCallBulk, p.op);
            p.id = cl.call_bulk(1, "sink", args, p.h);
          } else {
            Scope c(kRpcCall, p.op);
            p.id = cl.call(1, "echo", args);
          }
          if (timing) ++issued;
          pending.push_back(std::move(p));
        };
        // One terminal status per call: take() removes it, so a second
        // completion of the same id would throw rather than pass unseen.
        auto reap = [&](const Pending& p, const rpc::CallResult& r) {
          const std::int64_t end = p.end != 0 ? p.end : now_ns();
          const double us = static_cast<double>(end - p.t0) * 1e-3;
          if (p.spec.bulk) cl.release_bulk(p.h);
          const bool ok = r.status == rpc::CallStatus::Ok;
          if (ok) {
            UnpackBuffer ub(r.payload.span());
            if (ub.get_u64() != p.op || ub.get_u64() != p.spec.bytes) {
              ++bad_replies;
            }
          }
          if (!timing) return;
          ++completed;
          t.status[rpc::call_status_name(r.status)] += 1;
          if (ok) {
            t.app_bytes += static_cast<double>(p.spec.bytes);
          } else {
            ++ph.failed;
          }
          ph.add_op(p.t0, end);
          (p.spec.bulk ? t.bulk_us : t.small_us).add(us);
          if (p.spec.bulk) {  // bytes pulled over the time of every pull
            if (ok) t.bulk_bytes += static_cast<double>(p.spec.bytes);
            t.bulk_s += us * 1e-6;
          }
        };
        // Waits for the oldest call the way Client::wait does (service,
        // progress, polling compute while idle), but stamps every call's
        // terminal instant as soon as it is seen: a call that completes
        // behind a slow one ends then, not when the slow one returns.
        auto wait_front = [&] {
          Scope w(kRpcWait, pending.front().op);
          while (true) {
            cl.service();
            for (Pending& p : pending) {
              if (p.end == 0 && cl.done(p.id)) p.end = now_ns();
            }
            if (pending.front().end != 0) return;
            if (!ctx.progress()) {
              ctx.compute_with_polling(50 * simnet::kUs, 50 * simnet::kUs);
            }
          }
        };
        auto step = [&] {
          while (pending.size() < kRpcWindow && (!timing || issued < calls)) {
            issue();
          }
          if (pending.empty()) return;
          wait_front();
          for (auto it = pending.begin(); it != pending.end();) {
            if (cl.done(it->id)) {
              reap(*it, cl.take(it->id));
              it = pending.erase(it);
            } else {
              ++it;
            }
          }
        };
        for (std::uint64_t w = 0; w < warmup; ++w) step();
        cl.wait_all();
        while (!pending.empty()) {
          reap(pending.front(), cl.take(pending.front().id));
          pending.pop_front();
        }
        const RegSums r0 = read_registry(rt);
        const std::uint64_t sent0 = ctx.rsrs_sent() + rt.context(1).rsrs_sent();
        const std::uint64_t it0 = ctx.polling_engine().iterations() +
                                  rt.context(1).polling_engine().iterations();
        const Time v0 = ctx.now();
        ph.threads_peak = std::max(ph.threads_peak, sim_threads());
        timing = true;
        tr.set_on(traced);
        Bracket b;
        b.open();
        ph.open_block();
        while (issued < calls || !pending.empty()) {
          step();
          ph.maybe_tick();
        }
        ph.tick();
        b.close(ph);
        tr.set_on(false);
        ph.threads_peak = std::max(ph.threads_peak, sim_threads());
        // Every issued call must have reached exactly one terminal status.
        if (completed != issued || cl.outstanding() != 0) {
          fail("rpc: " + std::to_string(issued) + " calls issued, " +
               std::to_string(completed) + " terminal");
        }
        if (bad_replies != 0) {
          fail("rpc: " + std::to_string(bad_replies) +
               " Ok replies with the wrong call id or size");
        }
        const RegSums reg = diff(read_registry(rt), r0);
        add(ph.reg, reg);
        ph.attempted += issued;
        ph.virtual_ms += simnet::to_us(ctx.now() - v0) * 1e-3;
        ph.rsrs_sent += ctx.rsrs_sent() + rt.context(1).rsrs_sent() - sent0;
        ph.poll_iters += ctx.polling_engine().iterations() +
                         rt.context(1).polling_engine().iterations() - it0;
        ph.virtual_sig = std::to_string(ctx.now() - v0);
        for (const auto& [k, v] : t.status) {
          ph.virtual_sig += "/" + k + "=" + std::to_string(v);
        }
        const auto rel = reg.find("rel+udp");
        ph.virtual_sig += "/rtx=" + std::to_string(rel == reg.end()
                                                       ? 0
                                                       : rel->second.retransmits);
        done.store(true, std::memory_order_release);
      },
      [&](Context& ctx) { serve_rpc(ctx, done); }});
  ph.ledger = read_ledger(rt);
}

/// Within one Runtime, peak RSS grows by ~0.1 MB per failed bulk pull and
/// now and then jumps by ~10 MB, so a single long run would read a peak
/// RSS that follows how many calls the host got through.  The phase is
/// therefore cut into sub-runs, each on a fresh Runtime with its own drop
/// seed, continuing through the call list.  Before each, malloc_trim hands
/// the heap freed by the previous one back, as a fresh process would start;
/// otherwise the peak still grew with the number of sub-runs.  Blocks never
/// span two sub-runs.
///
/// The phase measures a fixed amount of work, not a fixed time: one
/// sub-run per kRpcSubSeconds of `seconds`, each exactly kRpcSubCalls calls
/// (two rounds, about kRpcSubSeconds on the build host at the default
/// chunk).  Some of these calls fail (the bulk-over-udp defect), and with a
/// time limit how many were attempted and failed would follow the host's
/// speed.  With whole rounds every seed attempts the same calls, and every
/// run of one seed (threads=1) fails the same ones.
constexpr double kRpcSubSeconds = 2.0;
constexpr std::uint64_t kRpcSubCalls = 2 * kRpcRound;

Phase rpc_workload(std::uint64_t seed, double seconds, bool traced) {
  const auto specs = rpc_specs(seed);
  Phase ph;
  RpcTally t;
  const int subs = std::max(1, static_cast<int>(std::lround(seconds /
                                                            kRpcSubSeconds)));
  for (int i = 0; i < subs; ++i) {
    malloc_trim(0);
    rpc_run(rpc_lossy_opts(seed * 64 + static_cast<std::uint64_t>(i)), specs,
            kRpcSubCalls, 8, traced, ph, t);
  }
  for (const auto& [k, v] : t.status) ph.extra["rpc.status." + k] = v;
  ph.extra["rpc.small_call_us_p50"] = t.small_us.percentile(50);
  ph.extra["rpc.small_call_us_p99"] =
      t.small_us.percentile(tail_percentile(t.small_us.count()));
  ph.extra["rpc.bulk_call_us_p50"] = t.bulk_us.percentile(50);
  ph.extra["rpc.bulk_mb_s"] =
      t.bulk_s > 0 ? t.bulk_bytes / 1e6 / t.bulk_s : 0;
  ph.extra["app_bytes"] = t.app_bytes;
  return ph;
}

/// The known bulk-over-udp defect, measured beside the workload: 64 KB
/// call_bulk over a udp-only table at the default rpc.bulk_chunk (8192 B
/// chunk frames exceed udp_mtu) versus the same calls at a 4096 B chunk.
void rpc_bulk_defect(Phase& ph) {
  constexpr int kCalls = 4;
  auto run = [&](const char* chunk, double& fail_ratio, double& wall_us) {
    Runtime rt(rpc_opts(1, {"local", "udp"}, 0.0, chunk));
    std::atomic<bool> done{false};
    int failed = 0;
    std::int64_t t0 = 0, t1 = 0;
    rt.run(std::vector<std::function<void(Context&)>>{
        [&](Context& ctx) {
          rpc::Client cl(ctx);
          const rpc::BulkHandle h = cl.register_bulk(nexus::util::SharedBytes(
              nexus::util::Bytes(64 * 1024, 0x3c)));
          PackBuffer args;
          args.put_u64(0);
          t0 = now_ns();
          for (int i = 0; i < kCalls; ++i) {
            if (cl.wait(cl.call_bulk(1, "sink", args, h)).status !=
                rpc::CallStatus::Ok) {
              ++failed;
            }
          }
          t1 = now_ns();
          done.store(true, std::memory_order_release);
        },
        [&](Context& ctx) { serve_rpc(ctx, done); }});
    fail_ratio = static_cast<double>(failed) / kCalls;
    wall_us = static_cast<double>(t1 - t0) * 1e-3 / kCalls;
  };
  double def_fail = 0, def_us = 0, small_fail = 0, small_us = 0;
  run(nullptr, def_fail, def_us);
  run("4096", small_fail, small_us);
  ph.extra["rpc.defect.udp_bulk64k_fail_ratio"] = def_fail;
  ph.extra["rpc.defect.udp_bulk64k_chunk4096_fail_ratio"] = small_fail;
  ph.extra["rpc.defect.udp_bulk64k_wall_ratio"] =
      small_us > 0 ? def_us / small_us : 0;
}

// ---------------------------------------------------------------------------
// fanout_sharded: 8 contexts on 2 scheduler shards; every context
// multicasts through one startpoint bound to its 7 peers and waits for all
// acks before the next multicast.

constexpr ContextId kFanWorld = 8;

RuntimeOptions fanout_opts(std::uint64_t seed) {
  return sim_opts({"local", "mpl", "tcp"}, kFanWorld, 2, seed);
}

/// 64 B - 4 KB, log-uniform: a golden-ratio sequence per sender, offset by
/// the seed, so every run covers the range evenly.
std::size_t fanout_size(std::uint64_t seed, ContextId from, std::uint64_t k) {
  const double u = std::fmod(0.6180339887498949 * static_cast<double>(k) +
                                 0.7548776662466927 * static_cast<double>(seed) +
                                 0.5698402909980532 * from,
                             1.0);
  return static_cast<std::size_t>(std::exp2(6.0 + 6.0 * u));
}

/// One sub-run: a fresh Runtime, a short warm-up, then `seconds` of
/// closed-loop multicasts whose ops, counters and window go into `ph`.
/// Returns the window's wall and CPU seconds.
std::pair<double, double> fanout_once(std::uint64_t seed, double seconds,
                                      bool traced, Phase& ph) {
  Runtime rt(fanout_opts(seed));
  std::pair<double, double> window;
  const HandlerId mc_id = Context::resolve_handler("mc");
  const HandlerId ack_id = Context::resolve_handler("ack");
  const HandlerId ready_id = Context::resolve_handler("ready");
  const HandlerId go_id = Context::resolve_handler("go");
  const HandlerId fin_id = Context::resolve_handler("fin");
  Tracer& tr = Tracer::get();

  // seen[receiver][sender][seq] = deliveries of that multicast.
  std::vector<std::vector<std::vector<std::uint8_t>>> seen(
      kFanWorld, std::vector<std::vector<std::uint8_t>>(kFanWorld));
  std::vector<std::uint64_t> sent(kFanWorld, 0), bad(kFanWorld, 0),
      nonok(kFanWorld, 0);
  std::vector<std::uint64_t> n_ops(kFanWorld, 0);
  std::mutex ph_mu;  // contexts on both shards record into ph
  std::vector<std::uint64_t> own_sent(kFanWorld), own_iters(kFanWorld);
  std::vector<RegSums> own_reg(kFanWorld);
  std::atomic<std::int64_t> deadline_ns{0};
  std::atomic<int> loops_done{0};
  Bracket b;
  Time v0 = 0;

  rt.run([&](Context& ctx) {
    const ContextId me = ctx.id();
    std::uint64_t acks = 0, readies = 0, fins = 0;
    bool go = false;
    std::vector<Startpoint> back(kFanWorld);
    for (ContextId p = 0; p < kFanWorld; ++p) {
      if (p != me) back[p] = ctx.world_startpoint(p);
    }
    Startpoint group;
    for (ContextId p = 0; p < kFanWorld; ++p) {
      if (p != me) group.links().push_back(back[p].link(0));
    }
    ctx.register_handler("mc", [&](Context& c, Endpoint&, UnpackBuffer& ub) {
      Scope h(kHandler);
      const auto from = static_cast<ContextId>(ub.get_u32());
      const std::uint64_t k = ub.get_u64();
      const auto view = ub.get_bytes_view();
      auto& row = seen[me][from];
      if (row.size() <= k) row.resize(k + 1, 0);
      if (++row[k] != 1 || view.size() != fanout_size(seed, from, k)) {
        ++bad[me];
      }
      PackBuffer pb(8);
      pb.put_u64(k);
      Scope r(kRsr);
      c.rsr(back[from], ack_id, pb);
    });
    ctx.register_handler("ack", [&](Context&, Endpoint&, UnpackBuffer&) {
      Scope h(kHandler);
      ++acks;
    });
    ctx.register_handler("ready",
                         [&](Context&, Endpoint&, UnpackBuffer&) { ++readies; });
    ctx.register_handler("go",
                         [&](Context&, Endpoint&, UnpackBuffer&) { go = true; });
    ctx.register_handler("fin",
                         [&](Context&, Endpoint&, UnpackBuffer&) { ++fins; });

    const nexus::util::Bytes data(4096, 0x77);
    std::uint64_t k = 0;
    auto one_op = [&] {
      const std::uint64_t op = (static_cast<std::uint64_t>(me) << 40) | k;
      Scope o(kOp, op);
      const std::int64_t s = now_ns();
      PackBuffer pb;
      {
        Scope p(kPack, op);
        pb.put_u32(me);
        pb.put_u64(k);
        pb.put_bytes(
            nexus::util::ByteSpan(data.data(), fanout_size(seed, me, k)));
      }
      {
        Scope r(kRsr, op);
        if (ctx.rsr(group, mc_id, pb) != DeliveryStatus::Ok) ++nonok[me];
      }
      ++k;
      sent[me] = k;
      {
        Scope w(kWait, op);
        ctx.wait_count(acks, (kFanWorld - 1) * k);
      }
      return s;
    };

    for (int w = 0; w < 5; ++w) one_op();
    // Start barrier: context 0 opens the timed window once every context
    // has warmed up, then releases them all with one multicast.
    if (me == 0) {
      ctx.wait_count(readies, kFanWorld - 1);
      v0 = ctx.now();
      ph.threads_peak = std::max(ph.threads_peak, sim_threads());
      tr.set_on(traced);
      b.open();
      deadline_ns.store(now_ns() + static_cast<std::int64_t>(seconds * 1e9));
      ctx.rsr(group, go_id);
    } else {
      ctx.rsr(back[0], ready_id);
      ctx.wait([&] { return go; });
    }
    own_sent[me] = ctx.rsrs_sent();
    own_iters[me] = ctx.polling_engine().iterations();
    const RegSums reg0 = own_counters(ctx);
    while (now_ns() < deadline_ns.load()) {
      const std::int64_t s = one_op();
      ++n_ops[me];
      std::lock_guard<std::mutex> g(ph_mu);
      ph.add_op(s, now_ns());
    }
    own_sent[me] = ctx.rsrs_sent() - own_sent[me];
    own_iters[me] = ctx.polling_engine().iterations() - own_iters[me];
    own_reg[me] = diff(own_counters(ctx), reg0);
    if (loops_done.fetch_add(1) + 1 == static_cast<int>(kFanWorld)) {
      window = b.close(ph);
      tr.set_on(false);
      ph.threads_peak = std::max(ph.threads_peak, sim_threads());
    }
    if (me == 0) ph.virtual_ms += simnet::to_us(ctx.now() - v0) * 1e-3;
    // Keep serving peers' multicasts until every context has finished.
    ctx.rsr(group, fin_id);
    ctx.wait_count(fins, kFanWorld - 1);
  });

  // A failed op is a non-Ok DeliveryStatus or a missing delivery; a
  // missing, duplicate or wrong-size delivery also fails the run.
  std::uint64_t attempted = 0, failed = 0, not_once = 0;
  for (ContextId s = 0; s < kFanWorld; ++s) {
    failed += nonok[s];
    not_once += bad[s];
    attempted += n_ops[s];
    ph.rsrs_sent += own_sent[s];
    ph.poll_iters += own_iters[s];
    add(ph.reg, own_reg[s]);
    for (ContextId r = 0; r < kFanWorld; ++r) {
      if (r == s) continue;
      const auto& row = seen[r][s];
      for (std::uint64_t q = 0; q < sent[s]; ++q) {
        if (q >= row.size() || row[q] == 0) ++failed;
        if (q >= row.size() || row[q] != 1) ++not_once;
      }
    }
  }
  if (not_once != 0) {
    fail("fanout: " + std::to_string(not_once) +
         " multicasts not delivered exactly once");
  }
  ph.attempted += attempted;
  ph.failed += failed;
  ph.ledger = read_ledger(rt);
  return window;
}

/// The timed phase is cut into sub-runs of about kFanSubSeconds, each on a
/// fresh Runtime and each one block.  Two shards settle into one of a few
/// interleaving regimes that last a whole Runtime (op rates differ by ~30%
/// between them), so a single long run would read one regime at random.
/// The reference is taken between sub-runs: during one, runnable threads
/// of the other shard share the CPU and it would measure the workload.
/// Each sub-run's p99 (about 1000+ ops) still moved from 5.9 to 10.9 ms
/// within one run, and a tail pooled over all of them followed the few
/// worst sub-runs (22% spread over ten seeds), so op_wall_us_p99 is the
/// median of the sub-runs' own tails.
constexpr double kFanSubSeconds = 1.0;

Phase fanout(std::uint64_t seed, double seconds, bool traced) {
  Phase ph;
  ph.tail_per_block = true;
  const int subs = std::max(1, static_cast<int>(seconds / kFanSubSeconds));
  double ref = RefBaton::get().round_trip_us(4 * kRefTrips);
  for (int i = 0; i < subs; ++i) {
    const auto [wall, cpu] =
        fanout_once(seed * 64 + static_cast<std::uint64_t>(i),
                    seconds / subs, traced, ph);
    const double next = RefBaton::get().round_trip_us(4 * kRefTrips);
    ph.add_block(wall, cpu, 0.5 * (ref + next));
    ref = next;
  }
  return ph;
}

// ---------------------------------------------------------------------------
// climate_coupled: climate::run_coupled on Table 1's Selective TCP and
// Forwarding policies (24 contexts, 2 partitions).  One op = one
// atmosphere timestep.  A call runs kClimateSteps of them, the fewest that
// include a coupling exchange (Table 1 couples every 2 steps), and gives
// one wall sample: the call's wall over its steps.

constexpr int kClimateSteps = 2;

struct ClimateRef {
  bool have = false;
  climate::CoupledResult r;
};
ClimateRef g_climate_ref[2];

bool same_virtual(const climate::CoupledResult& a,
                  const climate::CoupledResult& b) {
  return a.seconds_per_step == b.seconds_per_step &&
         a.total_seconds == b.total_seconds && a.tcp_polls == b.tcp_polls &&
         a.tcp_sends == b.tcp_sends && a.mpl_sends == b.mpl_sends &&
         a.atmo_heat_end == b.atmo_heat_end &&
         a.ocean_heat_end == b.ocean_heat_end;
}

void check_climate(int which, const climate::CoupledResult& r) {
  const char* want = which == 0 ? "103.6" : "107.8";
  const double drift =
      (r.atmo_heat_end - r.atmo_heat_start) /
      (r.atmo_heat_start != 0.0 ? r.atmo_heat_start : 1.0);
  // Compared as bench/table1_climate prints them (one decimal).
  if (fmt("%.1f", r.seconds_per_step) != want ||
      !(std::fabs(drift) < 1e-6)) {
    fail("climate " + climate::policy_name(r.policy) + ": " +
         fmt("%.3f", r.seconds_per_step) + " s/step (want " +
         want + "), heat drift " + fmt("%.2e", drift));
  }
  ClimateRef& ref = g_climate_ref[which];
  if (!ref.have) {
    ref = {true, r};
  } else if (!same_virtual(ref.r, r)) {
    fail("climate " + climate::policy_name(r.policy) +
         ": two runs gave different virtual results");
  }
}

climate::CoupledConfig climate_cfg() {
  climate::CoupledConfig cfg;
  cfg.timesteps = kClimateSteps;
  return cfg;
}

/// Mirrors run_coupled's runtime options (for setup timing only).
RuntimeOptions climate_setup_opts(int which) {
  RuntimeOptions o;
  const climate::CoupledConfig cfg = climate_cfg();
  o.topology = simnet::Topology::two_partitions(
      static_cast<std::size_t>(cfg.atmo_ranks),
      static_cast<std::size_t>(cfg.ocean_ranks));
  o.modules = {"local", "mpl", "tcp"};
  if (which == 1) {
    o.forwarders[0] = 1;
    o.forwarders[1] = static_cast<ContextId>(cfg.atmo_ranks) + 1;
  }
  o.sim_slack = 40 * simnet::kMs;
  return o;
}

Phase climate_phase(std::uint64_t seed, double seconds, bool traced) {
  Phase ph;
  const climate::CoupledConfig cfg = climate_cfg();
  double virt_s = 0, tcp_polls = 0, tcp_sends = 0, mpl_sends = 0;
  // run_coupled owns its contexts, so a sampler thread reads the thread
  // count while it runs (and does not count itself).
  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ph.threads_peak = std::max(ph.threads_peak, sim_threads() - 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  Tracer::get().set_on(traced);
  Bracket b;
  b.open();
  // One block per pair of calls, one per policy: the two policies differ
  // by ~10% in wall per step, and a median over a 50/50 mix of two modes
  // would jump between them from run to run.  A pair lasts about a
  // second, so each reference takes more round trips than a 100 ms
  // block's.
  constexpr int kPairRefTrips = 32 * kRefTrips;
  ph.open_block(kPairRefTrips);
  for (std::uint64_t pair = 0; pair < 1 || seconds_since(b.t0) < seconds;
       ++pair) {
    for (std::uint64_t j = 0; j < 2; ++j) {
      const int which = static_cast<int>((j + seed) % 2);
      climate::CoupledResult r;
      const std::int64_t s = now_ns();
      {
        Scope c(kClimateRun, 2 * pair + j);
        r = climate::run_coupled(cfg, which == 0
                                          ? climate::Policy::SelectiveTcp
                                          : climate::Policy::Forwarding);
      }
      ph.add_op(s, now_ns(), kClimateSteps);
      check_climate(which, r);
      virt_s += r.total_seconds;
      tcp_polls += static_cast<double>(r.tcp_polls);
      tcp_sends += static_cast<double>(r.tcp_sends);
      mpl_sends += static_cast<double>(r.mpl_sends);
    }
    ph.tick(kPairRefTrips);
  }
  b.close(ph);
  Tracer::get().set_on(false);
  stop.store(true, std::memory_order_relaxed);
  sampler.join();
  const double steps = static_cast<double>(ph.ops);
  ph.attempted = ph.ops;
  ph.virtual_ms = virt_s * 1e3;
  ph.extra["climate.step_wall_s"] = ph.raw.op_us.percentile(50) * 1e-6;
  ph.extra["climate.tcp_polls_per_step"] = tcp_polls / steps;
  ph.extra["climate.tcp_sends_per_step"] = tcp_sends / steps;
  ph.extra["climate.mpl_sends_per_step"] = mpl_sends / steps;
  // run_coupled owns its Runtime, so the per-method send counts come from
  // CoupledResult instead of the registry.
  ph.reg["mpl"].sends = static_cast<std::uint64_t>(mpl_sends);
  ph.reg["tcp"].sends = static_cast<std::uint64_t>(tcp_sends);
  return ph;
}

// ---------------------------------------------------------------------------
// Workload table and metric assembly.

struct Workload {
  const char* name;
  unsigned threads;  ///< scheduler shards
  std::function<RuntimeOptions(std::uint64_t seed, int i)> setup_opts;
  int setup_reps;
  std::function<Phase(std::uint64_t seed, double seconds, bool traced)> phase;
  std::function<void(std::uint64_t seed)> determinism;  ///< threads=1 only
};

Phase pingpong_workload(std::uint64_t seed, double seconds, bool traced) {
  return pingpong({"local", "mpl", "tcp"}, pingpong_sizes(seed),
                  Limit{seconds, 0}, 500, traced);
}

void pingpong_determinism(std::uint64_t seed) {
  const auto sizes = pingpong_sizes(seed);
  const Phase a = pingpong({"local", "mpl", "tcp"}, sizes, Limit{0, 300}, 50,
                           false);
  const Phase b = pingpong({"local", "mpl", "tcp"}, sizes, Limit{0, 300}, 50,
                           false);
  if (a.virtual_sig != b.virtual_sig) {
    fail("pingpong: two runs of one seed differ: " + a.virtual_sig + " vs " +
         b.virtual_sig);
  }
}

void rpc_determinism(std::uint64_t seed) {
  const auto specs = rpc_specs(seed);
  Phase a, b;
  RpcTally ta, tb;
  rpc_run(rpc_lossy_opts(seed), specs, kRpcRound, 8, false, a, ta);
  rpc_run(rpc_lossy_opts(seed), specs, kRpcRound, 8, false, b, tb);
  if (a.virtual_sig != b.virtual_sig) {
    fail("rpc: two runs of one seed differ: " + a.virtual_sig + " vs " +
         b.virtual_sig);
  }
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"pingpong_mm", 1,
       [](std::uint64_t s, int) {
         return sim_opts({"local", "mpl", "tcp"}, 2, 1, s);
       },
       101, pingpong_workload, pingpong_determinism},
      {"climate_coupled", 1,
       [](std::uint64_t, int i) { return climate_setup_opts(i % 2); }, 51,
       climate_phase, nullptr},  // determinism: every call vs the first
      {"rpc_lossy", 1,
       [](std::uint64_t s, int) { return rpc_lossy_opts(s); }, 101,
       rpc_workload, rpc_determinism},
      {"fanout_sharded", 2,
       [](std::uint64_t s, int) { return fanout_opts(s); }, 101, fanout,
       nullptr},
  };
  return w;
}

struct Metrics {
  std::map<std::string, std::pair<double, std::string>> m;
  void set(const std::string& name, double v, const char* unit) {
    m[name] = {v, unit};
  }
};

double per(double x, double ops) { return ops > 0 ? x / ops : 0; }

void end_to_end(const Phase& ph, double setup_s, Metrics& out,
                std::map<std::string, std::string>& info) {
  const Walls& q = ph.scaled;
  // The highest percentile with ten samples beyond it, but never below the
  // median: with fewer than 20 samples the tail metric reads the median.
  const int tail = std::max(50, tail_percentile(q.op_us.count()));
  out.set("setup_s", setup_s, "s");
  out.set("ops_per_s", per(q.ops, q.wall_s), "op/s");
  out.set("op_wall_us_p50", q.op_us.percentile(50), "us");
  out.set("op_wall_us_p99",
          ph.block_tails.empty() ? q.op_us.percentile(tail)
                                 : percentile(ph.block_tails, 50),
          "us");
  out.set("cpu_us_per_op", per(q.cpu_s * 1e6, q.ops), "us");
  out.set("allocs_per_op",
          per(static_cast<double>(ph.allocs), static_cast<double>(ph.ops)),
          "count");
  out.set("peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MB");
  info["op_samples"] = std::to_string(q.op_us.count());
  info["op_wall_us_p99_percentile"] = std::to_string(tail);
  if (!ph.block_tails.empty()) {
    info["op_wall_us_p99_percentile"] =
        "median over " + std::to_string(ph.block_tails.size()) +
        " sub-runs of each one's tail";
  }
  if (q.op_us.count() < 20) {
    info["op_wall_us_p99_note"] =
        "fewer than 20 op samples: no percentile above the median has ten "
        "beyond it, so op_wall_us_p99 is the median";
  }
  info["ref_round_trip_us_p50"] = fmt("%.4g", percentile(ph.refs, 50));
  info["raw_op_wall_us_p50"] = fmt("%.6g", ph.raw.op_us.percentile(50));
  info["raw_ops_per_s"] = fmt("%.6g", per(ph.raw.ops, ph.raw.wall_s));
}

void per_layer(const Phase& ph, const Phase& traced, Metrics& out) {
  const double ops = static_cast<double>(ph.ops);
  const double cpu = ph.used.user_s + ph.used.sys_s;
  out.set("fail_ratio",
          per(static_cast<double>(ph.failed), static_cast<double>(ph.attempted)),
          "ratio");
  out.set("simnet.vcsw_per_op",
          per(static_cast<double>(ph.used.nvcsw), ops), "count");
  out.set("simnet.nivcsw_per_op",
          per(static_cast<double>(ph.used.nivcsw), ops), "count");
  out.set("simnet.sys_cpu_share", per(ph.used.sys_s, cpu),
          "ratio");
  out.set("simnet.os_threads_peak", ph.threads_peak, "count");
  out.set("simnet.wall_ns_per_virtual_ms",
          per(ph.raw.wall_s * 1e9, ph.virtual_ms),
          "ns/ms");

  out.set("nexus.rsrs_sent_per_op", per(static_cast<double>(ph.rsrs_sent), ops),
          "count");
  out.set("nexus.poll_iterations_per_op",
          per(static_cast<double>(ph.poll_iters), ops), "count");
  auto reg = [&](const char* method) {
    auto it = ph.reg.find(method);
    return it == ph.reg.end() ? MethodSums{} : it->second;
  };
  for (const char* m : {"mpl", "tcp"}) {
    const MethodSums s = reg(m);
    out.set(std::string("nexus.") + m + ".poll_hit_ratio",
            per(static_cast<double>(s.poll_hits), static_cast<double>(s.polls)),
            "ratio");
  }
  out.set("nexus.rsr_oneway_vus_p50", ph.ledger.oneway_vus_p50, "us");
  out.set("nexus.poll_interval_vus_p50", ph.ledger.poll_interval_vus_p50, "us");

  struct Proto {
    const char* key;
    const char* method;
    const char* wire;
  };
  for (const Proto& p : {Proto{"mpl", "mpl", "mpl"}, Proto{"tcp", "tcp", "tcp"},
                         Proto{"rel_udp", "rel+udp", "rel+udp/udp"}}) {
    const MethodSums s = reg(p.method);
    const std::string base = std::string("proto.") + p.key;
    out.set(base + ".sends_per_op", per(static_cast<double>(s.sends), ops),
            "count");
    out.set(base + ".wire_bytes_per_op",
            per(static_cast<double>(reg(p.wire).bytes_sent), ops), "B");
    out.set(base + ".send_errors_per_op",
            per(static_cast<double>(s.send_errors), ops), "count");
  }
  const MethodSums rel = reg("rel+udp");
  out.set("proto.rel_udp.retransmits_per_op",
          per(static_cast<double>(rel.retransmits), ops), "count");
  out.set("proto.rel_udp.dup_drops_per_op",
          per(static_cast<double>(rel.dup_drops), ops), "count");
  const auto app = ph.extra.find("app_bytes");
  out.set("proto.rel_udp.goodput_ratio",
          app == ph.extra.end()
              ? 0
              : per(app->second,
                    static_cast<double>(reg("rel+udp/udp").bytes_sent)),
          "ratio");

  // Layer figures only some workloads produce; 0 where not applicable.
  static const std::pair<const char*, const char*> kExtra[] = {
      {"rpc.small_call_us_p50", "us"},
      {"rpc.small_call_us_p99", "us"},
      {"rpc.bulk_call_us_p50", "us"},
      {"rpc.bulk_mb_s", "MB/s"},
      {"rpc.status.ok", "count"},
      {"rpc.status.deadline_exceeded", "count"},
      {"rpc.status.cancelled", "count"},
      {"rpc.status.peer_died", "count"},
      {"rpc.status.rejected", "count"},
      {"rpc.status.handler_error", "count"},
      {"rpc.status.bulk_error", "count"},
      {"rpc.defect.udp_bulk64k_fail_ratio", "ratio"},
      {"rpc.defect.udp_bulk64k_chunk4096_fail_ratio", "ratio"},
      {"rpc.defect.udp_bulk64k_wall_ratio", "ratio"},
      {"climate.step_wall_s", "s"},
      {"climate.tcp_polls_per_step", "count"},
      {"climate.mpl_sends_per_step", "count"},
      {"climate.tcp_sends_per_step", "count"},
  };
  for (const auto& [name, unit] : kExtra) {
    auto it = ph.extra.find(name);
    out.set(name, it == ph.extra.end() ? 0 : it->second, unit);
  }

  // Traced half: per-call wall percentiles and per-layer self time.
  const LayerStats st = summarize(Tracer::get().collect());
  const double tops = static_cast<double>(traced.ops);
  out.set("nexus.rsr_call_us_p50", percentile(st.dur_us[kRsr], 50), "us");
  out.set("nexus.rsr_call_us_p99",
          percentile(st.dur_us[kRsr], tail_percentile(st.dur_us[kRsr].size())),
          "us");
  out.set("nexus.wait_us_p50", percentile(st.dur_us[kWait], 50), "us");
  out.set("nexus.handler_us_p50", percentile(st.dur_us[kHandler], 50), "us");
  out.set("util.pack_us_per_op", per(st.self_us[kPack], tops), "us");
  for (int l = 0; l < kLayerCount; ++l) {
    out.set(std::string("self_us_per_op.") + layer_name(l),
            per(st.self_us[l], tops), "us");
  }
  // Both halves scaled to reference speed: they ran minutes apart at most,
  // but a host-speed drift between them would read as tracing cost.
  const double untraced_p50 = ph.scaled.op_us.percentile(50);
  out.set("trace.overhead_ratio",
          untraced_p50 > 0 ? traced.scaled.op_us.percentile(50) / untraced_p50 : 0,
          "ratio");
  out.set("host.ref_round_trip_us", percentile(ph.refs, 50), "us");
  out.set("raw.op_wall_us_p50", ph.raw.op_us.percentile(50), "us");
  out.set("raw.ops_per_s", per(ph.raw.ops, ph.raw.wall_s), "op/s");
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o.push_back('\\');
    o.push_back(c == '\n' ? ' ' : c);
  }
  return o;
}

int usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, spans_path;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") name = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::atof(v.c_str());
    else if (k == "--trace") trace = std::atoi(v.c_str());
    else if (k == "--spans") spans_path = v;
    else return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& x : workloads()) {
    if (name == x.name) w = &x;
  }
  if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }

  std::map<std::string, std::string> info;
  const int cpu = pin_first_cpu();
  info["workload"] = w->name;
  info["affinity"] = cpu < 0 ? "unpinned" : std::to_string(cpu);
  info["threads"] = std::to_string(w->threads);
  info["seed"] = std::to_string(seed);

  RefBaton::get();  // start the partner before any thread count is read
  Metrics out;
  Phase main_phase;
  try {
    // Checks outside the timed phase: the model's virtual answers.
    check_fig4_lap();
    if (w->determinism) w->determinism(seed);
    if (trace == 0) {
      std::vector<double> setups;
      for (int i = 0; i < w->setup_reps; ++i) {
        const double raw = setup_once(w->setup_opts(seed, i));
        setups.push_back(raw * kRefNominalUs /
                         RefBaton::get().round_trip_us(kRefTrips));
      }
      main_phase = w->phase(seed, seconds, false);
      end_to_end(main_phase, percentile(setups, 50), out, info);
    } else {
      main_phase = w->phase(seed, seconds / 2, false);
      const Phase traced = w->phase(seed, seconds / 2, true);
      if (std::string(w->name) == "rpc_lossy") rpc_bulk_defect(main_phase);
      per_layer(main_phase, traced, out);
      main_phase.failed += traced.failed;
      main_phase.attempted += traced.attempted;
      if (!spans_path.empty() &&
          !write_spans(spans_path, Tracer::get().collect())) {
        fail("cannot write spans to " + spans_path);
      }
    }
  } catch (const std::exception& e) {
    fail(std::string("exception: ") + e.what());
  }

  std::string js = "{\"correct\": ";
  js += g_failures.empty() ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(main_phase.attempted);
  js += ", \"failed\": " + std::to_string(main_phase.failed);
  js += ", \"failures\": [";
  for (std::size_t i = 0; i < g_failures.size(); ++i) {
    js += (i ? ", \"" : "\"") + json_escape(g_failures[i]) + "\"";
  }
  js += "], \"info\": {";
  bool first = true;
  for (const auto& [k, v] : info) {
    js += (first ? "\"" : ", \"") + k + "\": \"" + json_escape(v) + "\"";
    first = false;
  }
  js += "}, \"metrics\": {";
  first = true;
  for (const auto& [k, v] : out.m) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(v.first) ? v.first : 0.0);
    js += (first ? "\"" : ", \"") + k + "\": {\"value\": " + num +
          ", \"unit\": \"" + v.second + "\"}";
    first = false;
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  return g_failures.empty() ? 0 : 1;
}
