// Golden exporter test: the exact to_text(), to_json() and to_prometheus()
// output of a few deterministic single-shard simulated runs, pinned against
// files under tests/golden/metrics/.  JSON and Prometheus print every key
// even at zero, so the files also pin each metric's exported name and
// order; between them the runs drive every counter group (method, rel,
// failover, adapt, robust, rpc) to non-zero values.  Each run also pins
// every context's selection log (<run>.selection): which method each
// selection, failover, rerank and adaptive switch picked, why, and when.
//
// Regenerate after an intended exporter change with
//   NEXUS_UPDATE_GOLDEN=1 ./build/tests/test_metrics_golden
// and review the diff: it is the change every scraper of the exporters sees.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "fixture_runtime.hpp"
#include "nexus/adapt/adaptive_selector.hpp"
#include "nexus/runtime.hpp"
#include "proto/reliable.hpp"
#include "proto/rpc/rpc.hpp"

namespace {

using namespace nexus;
using nexus::testing::opts_with;
using nexus::testing::register_counter;
using nexus::testing::run_mpmd;
using simnet::kMs;
using simnet::kUs;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Where two outputs first differ: line and column (1-based), with both
/// sides of that line clipped to a window around the column (the JSON
/// export is one long line).
std::string first_difference(const std::string& want, const std::string& got) {
  std::size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  const std::size_t line_start = want.rfind('\n', i == 0 ? 0 : i - 1);
  const std::size_t from = line_start == std::string::npos ? 0 : line_start + 1;
  const std::size_t lo = std::max(from, i < 60 ? 0 : i - 60);
  auto window = [&](const std::string& s) {
    if (lo >= s.size()) return std::string("<end>");
    const std::size_t end = std::min(s.find('\n', lo), lo + 120);
    return s.substr(lo, end - lo);
  };
  const auto line = 1 + std::count(want.begin(), want.begin() + i, '\n');
  return "line " + std::to_string(line) + " column " +
         std::to_string(i - from + 1) + ":\n  golden: ..." + window(want) +
         "\n  actual: ..." + window(got);
}

/// Compare (or, with NEXUS_UPDATE_GOLDEN=1, rewrite) one golden file.
void check_golden(const std::string& file, const std::string& actual) {
  const std::string path = std::string(NEXUS_GOLDEN_DIR) + "/metrics/" + file;
  const char* update = std::getenv("NEXUS_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    return;
  }
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty()) << "missing golden file " << path;
  EXPECT_TRUE(want == actual)
      << path << " differs at " << first_difference(want, actual)
      << "\n(regenerate with NEXUS_UPDATE_GOLDEN=1 if the change is intended)";
}

/// Every context's selection log, one record per line.
std::string selection_logs(Runtime& rt) {
  std::string out;
  for (ContextId c = 0; c < rt.world_size(); ++c) {
    for (const SelectionRecord& r : rt.context(c).selection_log()) {
      out += "context " + std::to_string(c) + " t=" + std::to_string(r.when) +
             " target " + std::to_string(r.target) + " " + r.method + ": " +
             r.reason + "\n";
    }
  }
  return out;
}

void check_exports(const std::string& run, Runtime& rt) {
  const telemetry::MetricsRegistry& reg = rt.telemetry().metrics();
  check_golden(run + ".txt", reg.to_text());
  check_golden(run + ".json", reg.to_json() + "\n");
  check_golden(run + ".prom", reg.to_prometheus());
  check_golden(run + ".selection", selection_logs(rt));
}

/// Every golden run is pinned to one shard: its virtual timeline (and so
/// every histogram) must not depend on NEXUS_THREADS.
RuntimeOptions golden_opts(std::vector<std::string> modules,
                           simnet::Topology topo) {
  RuntimeOptions opts = opts_with(std::move(modules), std::move(topo));
  opts.threads = 1;
  opts.seed = 7;
  return opts;
}

util::SharedBytes bytes_of(std::size_t n, std::uint8_t fill) {
  return util::SharedBytes(util::Bytes(n, fill));
}

// Method counters and histograms: intra-partition mpl traffic plus a
// tcp -> forwarder -> mpl relay into the second partition.
TEST(MetricsGolden, Forwarding) {
  RuntimeOptions opts = golden_opts({"local", "mpl", "tcp"},
                                    simnet::Topology::two_partitions(2, 2));
  opts.forwarders[1] = 2;
  Runtime rt(opts);
  run_mpmd(rt, {[&](Context& ctx) {
                  std::uint64_t hellos = 0;
                  register_counter(ctx, "hello", hellos);
                  Startpoint sp = ctx.world_startpoint(3);
                  for (std::size_t n : {16u, 1000u, 5000u}) {
                    ctx.rsr(sp, "sink", bytes_of(n, 0x5a));
                  }
                  ctx.wait_count(hellos, 1);
                },
                [&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(0);
                  ctx.rsr(sp, "hello", bytes_of(64, 0x11));
                },
                [&](Context& ctx) {  // forwarder: services until relayed
                  ctx.wait([&] {
                    return ctx.method_counters("mpl").sends >= 3;
                  });
                },
                [&](Context& ctx) {
                  std::uint64_t got = 0;
                  register_counter(ctx, "sink", got);
                  ctx.wait_count(got, 3);
                }});
  check_exports("forwarding", rt);
}

// Reliability-wrapper counters: rel+udp over a datagram wire that silently
// loses a third of all frames.
TEST(MetricsGolden, Reliable) {
  constexpr int kMsgs = 20;
  RuntimeOptions opts =
      golden_opts({"local", "rel+udp"}, simnet::Topology::single_partition(2));
  opts.costs.udp_drop_prob = 0.35;
  opts.db.set("rel.rto_initial_us", "3000");
  opts.db.set("rel.rto_min_us", "1000");
  opts.db.set("rel.ack_delay_us", "500");
  Runtime rt(opts);
  std::atomic<bool> drained{false};
  run_mpmd(rt, {[&](Context& ctx) {
                  std::uint64_t got = 0;
                  register_counter(ctx, "seq", got);
                  while (!drained.load(std::memory_order_acquire) &&
                         ctx.now() < 8000 * kMs) {
                    ctx.compute_with_polling(5 * kMs, 500 * kUs);
                  }
                  EXPECT_EQ(got, static_cast<std::uint64_t>(kMsgs));
                },
                [&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(0);
                  for (int i = 0; i < kMsgs; ++i) {
                    ctx.rsr(sp, "seq", bytes_of(32, 0x22));
                    ctx.compute_with_polling(2 * kMs, 500 * kUs);
                  }
                  auto* rel = dynamic_cast<proto::ReliableModule*>(
                      ctx.module("rel+udp"));
                  ASSERT_NE(rel, nullptr);
                  while (rel->in_flight(0) > 0 && ctx.now() < 8000 * kMs) {
                    ctx.compute_with_polling(5 * kMs, 1 * kMs);
                  }
                  drained.store(true, std::memory_order_release);
                }});
  check_exports("reliable", rt);
}

// Adaptive-engine counters: a payload-aware selector learning a two-method
// crossover from timing echoes, with its active prober and live reranks.
TEST(MetricsGolden, Adaptive) {
  RuntimeOptions opts = golden_opts({"local", "mpl", "tcp"},
                                    simnet::Topology::single_partition(2));
  opts.adaptive = true;
  opts.costs.tcp_latency = 150 * kUs;
  opts.costs.tcp_poll_cost = 20 * kUs;
  opts.costs.tcp_mb_s = 8.0;
  opts.costs.tcp_interference = 0;
  opts.costs.mpl_latency = 2500 * kUs;
  opts.costs.mpl_mb_s = 200.0;
  opts.db.set("adapt.rerank_ms", "20");
  constexpr std::uint64_t kPings = 16;
  Runtime rt(opts);
  run_mpmd(rt, {[&](Context& ctx) {  // responder: pongs carry timing echoes
                  std::uint64_t pings = 0;
                  Startpoint back = ctx.world_startpoint(1);
                  ctx.register_handler(
                      "ping", [&](Context& c, Endpoint&, util::UnpackBuffer&) {
                        ++pings;
                        c.rsr(back, "pong");
                      });
                  ctx.wait_count(pings, kPings);
                },
                [&](Context& ctx) {  // driver alternates 64 B and 64 KB
                  std::uint64_t pongs = 0;
                  register_counter(ctx, "pong", pongs);
                  ctx.set_selector(std::make_unique<adapt::AdaptiveSelector>());
                  Startpoint sp = ctx.world_startpoint(0);
                  for (std::uint64_t i = 1; i <= kPings; ++i) {
                    ctx.rsr(sp, "ping",
                            bytes_of(i % 2 == 0 ? 1u << 16 : 64u, 0x33));
                    ctx.wait_count(pongs, i);
                  }
                }});
  check_exports("adaptive", rt);
}

// Failover and robustness counters: udp is hard-down for the first 5 ms,
// so the sender quarantines it, declares the peer dead, parks RSRs in the
// capped dead-letter queue and redelivers them on rebirth.
TEST(MetricsGolden, Robust) {
  RuntimeOptions opts =
      golden_opts({"local", "udp"}, simnet::Topology::single_partition(2));
  opts.faults.blackhole("udp", 0, 5 * kMs);
  opts.costs.udp_drop_prob = 0.0;
  opts.db.set("robust.retry_budget", "2");
  opts.db.set("robust.deadletter_cap", "4");
  opts.db.set("robust.peer_grace_ms", "0");
  Runtime rt(opts);
  run_mpmd(rt, {[&](Context& ctx) {
                  Startpoint sp = ctx.world_startpoint(1);
                  for (int i = 0; i < 6; ++i) {
                    ctx.rsr(sp, "pay", bytes_of(8, 0x44));
                  }
                  while (ctx.now() < 6 * kMs) {
                    ctx.compute_with_polling(1 * kMs, 250 * kUs);
                  }
                  ctx.rsr(sp, "pay", bytes_of(8, 0x44));
                },
                [&](Context& ctx) {
                  std::uint64_t got = 0;
                  register_counter(ctx, "pay", got);
                  ctx.wait_count(got, 5);
                }});
  check_exports("robust", rt);
}

// RPC counters: a plain call, a call naming an unknown service, and a call
// whose bulk argument the server pulls in chunks.
TEST(MetricsGolden, Rpc) {
  RuntimeOptions opts =
      golden_opts({"local", "tcp"}, simnet::Topology::single_partition(2));
  Runtime rt(opts);
  std::atomic<bool> done{false};
  run_mpmd(
      rt,
      {[&](Context& ctx) {
         proto::rpc::Client cl(ctx);
         util::PackBuffer args(4);
         args.put_u32(1);
         cl.wait(cl.call(1, "echo", args));
         cl.wait(cl.call(1, "ghost.service", args));
         const proto::rpc::BulkHandle h = cl.register_bulk(bytes_of(20000, 7));
         cl.wait(cl.call_bulk(1, "sum", args, h));
         cl.release_bulk(h);
         done.store(true, std::memory_order_release);
       },
       [&](Context& ctx) {
         proto::rpc::Server srv(ctx);
         srv.serve("echo", [](proto::rpc::CallContext& cc) {
           cc.respond(util::PackBuffer(4));
         });
         srv.serve("sum", [](proto::rpc::CallContext& cc) {
           util::PackBuffer pb(8);
           pb.put_u64(cc.bulk().size());
           cc.respond(pb);
         });
         while (!done.load(std::memory_order_acquire) &&
                ctx.now() < 2000 * kMs) {
           if (!ctx.progress()) ctx.compute_with_polling(200 * kUs, 50 * kUs);
           srv.service();
         }
       }});
  check_exports("rpc", rt);
}

}  // namespace
