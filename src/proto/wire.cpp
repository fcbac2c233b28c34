#include "proto/wire.hpp"

#include <algorithm>

#include "nexus/runtime.hpp"

namespace nexus::proto {

Time Wire::arrival(std::uint64_t wire, double bw_divisor) const {
  return ctx_.now() + costs_.latency +
         simnet::transfer_time(wire, costs_.mb_s / bw_divisor);
}

SendResult Wire::drop(const Packet& pkt, ContextId dst, std::uint64_t wire,
                      DeliveryStatus status) const {
  if (ctx_.observing()) {
    ctx_.observe({ctx_.now(), pkt.span, ctx_.id(), telemetry::Phase::Drop,
                  owner_.trace_label(), wire, dst, 0, pkt.trace});
  }
  return {status, wire};
}

bool Wire::tracing() const { return ctx_.telemetry().tracer().enabled(); }

void Wire::trace_enqueue(const Packet& pkt, std::uint64_t wire,
                         Time arrival) const {
  ctx_.observe({ctx_.now(), pkt.span, ctx_.id(), telemetry::Phase::Enqueue,
                owner_.trace_label(), wire, static_cast<std::uint64_t>(arrival),
                0, pkt.trace});
}

// ------------------------------------------------------------ simulated ---

class SimWire final : public Wire {
 public:
  SimWire(Context& ctx, const CommModule& owner, const LinkCosts& costs,
          SimFabric& fabric)
      : Wire(ctx, owner, costs),
        fabric_(fabric),
        node_size_(static_cast<std::uint32_t>(std::max<std::int64_t>(
            1, ctx.config().get_int("shm.node_size", 1)))) {}

  void bind(std::string_view name) override {
    name_ = name;
    self_ = &fabric_.host(ctx_.id());
    auto [it, inserted] = self_->boxes.try_emplace(
        name_, simnet::Mailbox<Packet>(fabric_.scheduler_for(ctx_.id()),
                                       *self_->proc));
    inbox_ = &it->second;
  }

  std::optional<Packet> poll() override {
    auto pkt = inbox_->poll(ctx_.now());
    if (pkt && costs_.incast_stall > 0) {
      const std::uint64_t wire = pkt->wire_size();
      // Clamped subtract via CAS: concurrent senders may be adding, and
      // the counter must never wrap below zero.
      std::uint64_t cur =
          self_->tcp_inflight_bytes.load(std::memory_order_relaxed);
      while (!self_->tcp_inflight_bytes.compare_exchange_weak(
          cur, cur > wire ? cur - wire : 0, std::memory_order_relaxed)) {
      }
    }
    return pkt;
  }

  std::optional<Time> earliest_arrival() const override {
    return inbox_->earliest();
  }
  std::optional<Packet> blocking_poll() override { return std::nullopt; }
  void shutdown_blocking() override {}

  SendResult send(WireConn& conn, Packet pkt) override {
    // The drag is read before the CPU charge: charging may yield to other
    // contexts, and the landing context may retune its polling meanwhile.
    const double drag =
        costs_.dragged
            ? host(conn).inbound_drag.load(std::memory_order_relaxed)
            : 1.0;
    charge_send_cpu();
    const std::uint64_t wire = pkt.wire_size();
    return deliver(conn, std::move(pkt), arrival(wire, drag), wire);
  }

  SendResult deliver(WireConn& conn, Packet pkt, Time arrival,
                     std::uint64_t wire) override {
    SimHost& dest = host(conn);
    simnet::Mailbox<Packet>& box = this->box(conn);
    if (costs_.incast_stall == 0) {
      return post(conn.landing(), box, std::move(pkt), arrival, wire);
    }
    // Incast model: box.pending() is owned by the destination's home shard,
    // so the stall term applies only to same-shard senders (the per-shard
    // congestion view; cross-shard senders still feed the atomic inflight
    // counter the receiver's poll drains).
    if (fabric_.same_shard(ctx_.id(), conn.landing())) {
      const std::uint64_t pending = box.pending();
      if (pending > costs_.incast_threshold &&
          dest.tcp_inflight_bytes.load(std::memory_order_relaxed) >
              costs_.incast_bytes) {
        const auto excess =
            static_cast<Time>(pending - costs_.incast_threshold);
        arrival += excess * excess * costs_.incast_stall;
      }
    }
    const SendResult r =
        post(conn.landing(), box, std::move(pkt), arrival, wire);
    // A failed send never reached the destination's receive window, so it
    // must not contribute to the incast inflight accounting.
    if (r.ok()) {
      dest.tcp_inflight_bytes.fetch_add(wire, std::memory_order_relaxed);
    }
    return r;
  }

  SendResult deliver_member(ContextId member, Packet pkt, Time arrival,
                            std::uint64_t wire) override {
    return post(member, fabric_.host(member).box(name_), std::move(pkt),
                arrival, wire);
  }

  std::uint32_t node_of(ContextId ctx) const override {
    return ctx / node_size_;
  }
  McastGroups& groups() override { return fabric_.multicast(); }

 private:
  SimHost& host(WireConn& conn) {
    if (conn.sim_host_ == nullptr) {
      conn.sim_host_ = &fabric_.host(conn.landing());
    }
    return *conn.sim_host_;
  }
  simnet::Mailbox<Packet>& box(WireConn& conn) {
    if (conn.sim_box_ == nullptr) conn.sim_box_ = &host(conn).box(conn.inbox());
    return *conn.sim_box_;
  }

  /// Consult the crash rules and the fault plan, then post (unless a fault
  /// eats the packet).  Every simulated send funnels through here so drop /
  /// delay / corrupt / blackhole rules apply uniformly.
  SendResult post(ContextId dst, simnet::Mailbox<Packet>& box, Packet pkt,
                  Time arrival, std::uint64_t wire) {
    const simnet::FaultPlan& faults = fabric_.faults();
    const simnet::Topology& topo = fabric_.topology();
    const Time now = ctx_.now();
    // Crash rules (docs §14): a send toward a context inside its crash
    // window is the connection-refused analog -- a hard Dead verdict,
    // independent of the link-fault rules.  Crash predicates are pure
    // functions of (ctx, partition, time), so any shard can evaluate them
    // race-free.
    if (faults.has_crashes() && dst < kGroupContextBase &&
        faults.crashed(dst, topo.partition_of(dst), now)) {
      return drop(pkt, dst, wire, DeliveryStatus::Dead);
    }
    if (!faults.empty()) {
      const simnet::FaultVerdict v = faults.consult(
          name_, topo.partition_of(ctx_.id()), topo.partition_of(dst), now,
          fabric_.fault_rng_for(ctx_.id()));
      if (v.failed()) {
        return drop(pkt, dst, wire,
                    v.dead ? DeliveryStatus::Dead : DeliveryStatus::Transient);
      }
      if (v.corrupt) pkt.corrupted = true;
      arrival += v.extra_delay;
    }
    if (tracing()) trace_enqueue(pkt, wire, arrival);
    // Same-shard: a direct mailbox post (the 1-alloc hot path).  Cross-
    // shard: the fabric routes through the destination shard's MPSC queue.
    fabric_.post(ctx_.id(), dst, box, arrival, std::move(pkt));
    return {DeliveryStatus::Ok, wire};
  }

  SimFabric& fabric_;
  std::uint32_t node_size_;  ///< shm.node_size: contexts per node
  SimHost* self_ = nullptr;
  simnet::Mailbox<Packet>* inbox_ = nullptr;
};

// ------------------------------------------------------------- realtime ---

class RtWire final : public Wire {
 public:
  RtWire(Context& ctx, const CommModule& owner, RtFabric& fabric)
      : Wire(ctx, owner, LinkCosts{0, 0, 0, 0.0}), fabric_(fabric) {}

  void bind(std::string_view name) override {
    name_ = name;
    inbox_ = &fabric_.host(ctx_.id()).queues[name_];
  }

  std::optional<Packet> poll() override { return inbox_->try_pop(); }
  std::optional<Time> earliest_arrival() const override {
    return std::nullopt;
  }
  std::optional<Packet> blocking_poll() override { return inbox_->pop_wait(); }
  void shutdown_blocking() override { inbox_->close(); }

  SendResult send(WireConn& conn, Packet pkt) override {
    const std::uint64_t wire = pkt.wire_size();
    return deliver(conn, std::move(pkt), 0, wire);
  }

  SendResult deliver(WireConn& conn, Packet pkt, Time /*arrival*/,
                     std::uint64_t wire) override {
    const SendResult verdict = admit(conn.landing(), pkt, wire);
    if (!verdict.ok()) return verdict;
    if (conn.rt_host_ == nullptr) {
      conn.rt_host_ = &fabric_.host(conn.landing());
      conn.rt_queue_ = &conn.rt_host_->queue(conn.inbox());
    }
    enqueue(*conn.rt_host_, *conn.rt_queue_, std::move(pkt), wire);
    return verdict;
  }

  SendResult deliver_member(ContextId member, Packet pkt, Time /*arrival*/,
                            std::uint64_t wire) override {
    const SendResult verdict = admit(member, pkt, wire);
    if (!verdict.ok()) return verdict;
    RtHost& host = fabric_.host(member);
    enqueue(host, host.queue(name_), std::move(pkt), wire);
    return verdict;
  }

  /// The whole process is one node: shared memory reaches every context.
  std::uint32_t node_of(ContextId) const override { return 0; }
  McastGroups& groups() override { return fabric_.multicast(); }

 private:
  /// Consult the fault hook for a send to `dst`; applies the corrupt flag
  /// in place.  Real time cannot be scripted, so delay verdicts are
  /// ignored: a packet arrives the moment it is enqueued.
  SendResult admit(ContextId dst, Packet& pkt, std::uint64_t wire) const {
    if (const RtFabric::FaultHook& hook = fabric_.fault_hook()) {
      const simnet::FaultVerdict v = hook(name_, ctx_.id(), dst);
      if (v.failed()) {
        return drop(pkt, dst, wire,
                    v.dead ? DeliveryStatus::Dead : DeliveryStatus::Transient);
      }
      if (v.corrupt) pkt.corrupted = true;
    }
    return {DeliveryStatus::Ok, wire};
  }

  void enqueue(RtHost& host, util::MpscQueue<Packet>& queue, Packet pkt,
               std::uint64_t wire) {
    if (tracing()) trace_enqueue(pkt, wire, ctx_.now());
    queue.push(std::move(pkt));
    host.activity->notify();
  }

  RtFabric& fabric_;
  util::MpscQueue<Packet>* inbox_ = nullptr;
};

std::unique_ptr<Wire> make_wire(Context& ctx, const CommModule& owner,
                                const LinkCosts& costs) {
  if (SimFabric* fabric = ctx.runtime().sim()) {
    return std::make_unique<SimWire>(ctx, owner, costs, *fabric);
  }
  return std::make_unique<RtWire>(ctx, owner, *ctx.runtime().rt());
}

}  // namespace nexus::proto
