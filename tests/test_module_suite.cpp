// The shared module suite: every case runs on both fabrics, because each
// communication method is written once over a per-fabric wire
// (proto/wire.hpp).  Where the fabrics legitimately differ -- which node a
// context is on -- the case states both answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <ostream>
#include <thread>

#include "nexus/runtime.hpp"
#include "proto/modules.hpp"

namespace nexus {
// Names the fabric in the test's ctest name (".../Simulated").
void PrintTo(RuntimeOptions::Fabric fabric, std::ostream* os) {
  *os << (fabric == RuntimeOptions::Fabric::Simulated ? "Simulated"
                                                       : "Realtime");
}
}  // namespace nexus

namespace {

using namespace nexus;
using Fabric = RuntimeOptions::Fabric;

class ModuleSuite : public ::testing::TestWithParam<Fabric> {
 protected:
  bool simulated() const { return GetParam() == Fabric::Simulated; }

  RuntimeOptions opts(std::vector<std::string> modules,
                      simnet::Topology topo) const {
    RuntimeOptions o;
    o.fabric = GetParam();
    o.topology = std::move(topo);
    o.modules = std::move(modules);
    return o;
  }
};

/// `ctx`'s descriptor for `method` from context `target`'s default table.
const CommDescriptor& descriptor(Context& ctx, ContextId target,
                                 const std::string& method) {
  const DescriptorTable& table = ctx.runtime().table_of(target);
  return table.at(*table.find(method));
}

/// Test-only surgery: take context `target`'s next `method` packet out of
/// its inbox, flip a payload bit, and put it back.
void tamper_in_flight(Context& ctx, ContextId target,
                      const std::string& method) {
  const auto flip = [](Packet& pkt) {
    // Payload buffers are immutable; tampering means replacing the shared
    // buffer with a corrupted copy.
    util::Bytes tampered = pkt.payload.to_bytes();
    tampered[3] ^= 0x40;
    pkt.payload = std::move(tampered);
  };
  if (SimFabric* sim = ctx.runtime().sim()) {
    auto& box = sim->host(target).box(method);
    auto stolen = box.poll(simnet::kInfinity / 2);
    ASSERT_TRUE(stolen.has_value());
    flip(*stolen);
    box.post(ctx.now() + simnet::kMs, std::move(*stolen));
  } else {
    RtHost& host = ctx.runtime().rt()->host(target);
    auto& queue = host.queue(method);
    auto stolen = queue.try_pop();
    ASSERT_TRUE(stolen.has_value());
    flip(*stolen);
    queue.push(std::move(*stolen));
    host.activity->notify();
  }
}

TEST_P(ModuleSuite, SecureTamperDetectedOnDelivery) {
  // Corrupt a sealed payload in flight; the receiving module must reject it.
  RuntimeOptions o = opts({"local", "secure"},
                          simnet::Topology::single_partition(2));
  o.threads = 1;  // the surgery touches the receiver's mailbox directly
  Runtime rt(o);
  std::atomic<bool> tampered{false};
  EXPECT_THROW(
      rt.run([&](Context& ctx) {
        if (ctx.id() == 0) {
          std::uint64_t done = 0;
          ctx.register_handler("secret", [&](Context&, Endpoint&,
                                             util::UnpackBuffer&) { ++done; });
          // A realtime receiver must not consume its queue while the sender
          // operates on it; the simulated one is scheduled around it.
          if (!simulated()) {
            while (!tampered.load()) std::this_thread::yield();
          }
          ctx.wait_count(done, 1);
          return;
        }
        Startpoint sp = ctx.world_startpoint(0);
        sp.force_method("secure");
        util::PackBuffer pb;
        pb.put_string("attack at dawn");
        ctx.rsr(sp, "secret", pb);
        tamper_in_flight(ctx, 0, "secure");
        tampered.store(true);
      }),
      util::MethodError);
}

TEST_P(ModuleSuite, UdpDropCounterExposed) {
  RuntimeOptions o = opts({"local", "udp"}, simnet::Topology::single_partition(2));
  o.costs.udp_drop_prob = 1.0;  // drop everything (deterministic)
  Runtime rt(o);
  rt.run([&](Context& ctx) {
    if (ctx.id() != 1) return;
    Startpoint sp = ctx.world_startpoint(0);
    sp.force_method("udp");
    for (int i = 0; i < 10; ++i) ctx.rsr(sp, "void");
    auto* udp = dynamic_cast<proto::UdpModule*>(ctx.module("udp"));
    ASSERT_NE(udp, nullptr);
    EXPECT_EQ(udp->dropped(), 10u);
  });
}

TEST_P(ModuleSuite, OversizedUdpPayloadIsDead) {
  RuntimeOptions o = opts({"local", "udp"}, simnet::Topology::single_partition(2));
  o.costs.udp_drop_prob = 0.0;
  Runtime rt(o);
  rt.run([&](Context& ctx) {
    if (ctx.id() != 1) return;
    CommModule* udp = ctx.module("udp");
    ASSERT_NE(udp, nullptr);
    auto conn = udp->connect(descriptor(ctx, 0, "udp"));
    const std::uint64_t mtu = ctx.costs().udp_mtu;
    Packet big;
    big.src = ctx.id();
    big.dst = 0;
    big.payload = util::Bytes(mtu + 1, 0x5a);
    EXPECT_EQ(udp->send(*conn, std::move(big)).status, DeliveryStatus::Dead);
    Packet fits;
    fits.src = ctx.id();
    fits.dst = 0;
    fits.payload = util::Bytes(mtu, 0x5a);
    EXPECT_EQ(udp->send(*conn, std::move(fits)).status, DeliveryStatus::Ok);
  });
}

TEST_P(ModuleSuite, WrapperMethodsRoundtrip) {
  Runtime rt(opts({"local", "mpl", "tcp", "secure", "zrle"},
                  simnet::Topology::two_partitions(1, 1)));
  std::string via_secure, via_zrle;
  rt.run(std::vector<std::function<void(Context&)>>{
      [&](Context& ctx) {
        std::uint64_t done = 0;
        ctx.register_handler("s", [&](Context&, Endpoint&,
                                      util::UnpackBuffer& ub) {
          via_secure = ub.get_string();
          ++done;
        });
        ctx.register_handler("z", [&](Context&, Endpoint&,
                                      util::UnpackBuffer& ub) {
          via_zrle = ub.get_string();
          ++done;
        });
        ctx.wait_count(done, 2);
      },
      [&](Context& ctx) {
        Startpoint sec = ctx.world_startpoint(0);
        sec.force_method("secure");
        util::PackBuffer a;
        a.put_string("sealed-for-transit");
        ctx.rsr(sec, "s", a);

        Startpoint zip = ctx.world_startpoint(0);
        zip.force_method("zrle");
        util::PackBuffer b;
        b.put_string("compressed-for-transit");
        ctx.rsr(zip, "z", b);
      }});
  EXPECT_EQ(via_secure, "sealed-for-transit");
  EXPECT_EQ(via_zrle, "compressed-for-transit");
}

TEST_P(ModuleSuite, MulticastFansOut) {
  Runtime rt(opts({"local", "mpl", "tcp", "mcast"},
                  simnet::Topology::single_partition(4)));
  std::atomic<int> hits{0};
  rt.run([&](Context& ctx) {
    if (ctx.id() == 0) {
      std::uint64_t joined = 0;
      ctx.register_handler("joined", [&](Context&, Endpoint&,
                                         util::UnpackBuffer&) { ++joined; });
      ctx.wait_count(joined, 3);
      Startpoint group = proto::multicast_startpoint(ctx, 11);
      ctx.rsr(group, "update");
      return;
    }
    std::uint64_t done = 0;
    Endpoint& ep = ctx.create_endpoint();
    ctx.register_handler("update",
                         [&](Context&, Endpoint&, util::UnpackBuffer&) {
                           hits.fetch_add(1);
                           ++done;
                         });
    proto::multicast_join(ctx, 11, ep);
    Startpoint root = ctx.world_startpoint(0);
    ctx.rsr(root, "joined");
    ctx.wait_count(done, 1);
  });
  EXPECT_EQ(hits.load(), 3);
}

TEST_P(ModuleSuite, McastToEmptyGroupThrows) {
  Runtime rt(opts({"local", "mcast"}, simnet::Topology::single_partition(2)));
  EXPECT_THROW(rt.run([&](Context& ctx) {
                 if (ctx.id() != 0) return;
                 Startpoint sp = proto::multicast_startpoint(ctx, 99);
                 ctx.rsr(sp, "x");
               }),
               util::MethodError);
}

TEST_P(ModuleSuite, ReachRules) {
  // Partitions {0,1} and {2,3}; context 2 forwards for partition 1.
  RuntimeOptions o = opts({"local", "shm", "mpl", "tcp"},
                          simnet::Topology::two_partitions(2, 2));
  o.forwarders[1] = 2;
  Runtime rt(o);
  rt.run([&](Context& ctx) {
    if (ctx.id() != 0) return;
    CommModule* shm = ctx.module("shm");
    CommModule* mpl = ctx.module("mpl");
    CommModule* tcp = ctx.module("tcp");
    for (ContextId t = 0; t < 4; ++t) {
      // A simulated node holds shm.node_size (default 1) contexts; the
      // realtime process is one node, so shm reaches every context.
      EXPECT_EQ(shm->applicable(descriptor(ctx, t, "shm")),
                !simulated() || t == 0)
          << "shm to " << t;
      EXPECT_EQ(mpl->applicable(descriptor(ctx, t, "mpl")), t < 2)
          << "mpl to " << t;
      EXPECT_TRUE(tcp->applicable(descriptor(ctx, t, "tcp")));
    }
    // tcp toward the forwarded partition lands at its forwarder.
    EXPECT_EQ(tcp->landing_context(descriptor(ctx, 3, "tcp")), 2u);
    EXPECT_EQ(tcp->landing_context(descriptor(ctx, 1, "tcp")), 1u);
    auto conn = tcp->connect(descriptor(ctx, 3, "tcp"));
    EXPECT_EQ(static_cast<proto::WireConn&>(*conn).landing(), 2u);
  });
}

TEST_P(ModuleSuite, EnqueueRecordedOnlyWithSpanTracing) {
  for (const bool tracing : {false, true}) {
    RuntimeOptions o = opts({"local", "mpl", "tcp"},
                            simnet::Topology::single_partition(2));
    o.tracing = tracing;
    Runtime rt(o);
    rt.run(std::vector<std::function<void(Context&)>>{
        [&](Context& ctx) {
          std::uint64_t done = 0;
          ctx.register_handler("hit", [&](Context&, Endpoint&,
                                          util::UnpackBuffer&) { ++done; });
          ctx.wait_count(done, 3);
        },
        [&](Context& ctx) {
          Startpoint sp = ctx.world_startpoint(0);
          for (int i = 0; i < 3; ++i) ctx.rsr(sp, "hit");
        }});
    const auto count = [](const std::vector<telemetry::Event>& evs,
                          telemetry::Phase phase) {
      return std::count_if(evs.begin(), evs.end(),
                           [&](const auto& ev) { return ev.phase == phase; });
    };
    const auto flight = rt.telemetry().flight(1)->events();
    EXPECT_EQ(count(flight, telemetry::Phase::Send), 3) << tracing;
    EXPECT_EQ(count(flight, telemetry::Phase::Enqueue), tracing ? 3 : 0)
        << tracing;
    if (tracing) {
      EXPECT_EQ(count(rt.telemetry().tracer().events(),
                      telemetry::Phase::Enqueue),
                3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fabrics, ModuleSuite,
                         ::testing::Values(Fabric::Simulated,
                                           Fabric::Realtime));

}  // namespace
