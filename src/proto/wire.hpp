// The wire: the per-fabric transport underneath every communication method.
//
// A method (proto/modules.hpp) is written once, as policy: which contexts
// it reaches, what its descriptor carries, how it transforms payloads.  The
// wire carries the packets.  A module picks its wire once, at construction,
// from the context's fabric (make_wire), and never asks which fabric it is
// on again.  The wire does only these jobs:
//   - bind this context's inbox for a method name, and poll it (plus the
//     earliest-arrival and blocking-poll/shutdown variants);
//   - charge the method's per-message send CPU;
//   - deliver a packet to a connection's landing context (the route is
//     cached on the connection) or to one multicast group member;
//   - expose the method's cost profile, the fabric's multicast membership,
//     and which node a context is on.
//
// The simulated wire owns the arrival-ordered mailboxes, charges the
// method's LinkCosts in virtual time, and routes every send through the
// crash check and the fault plan before SimFabric::post.  The realtime
// wire owns lock-free MPSC queues, exposes an all-zero cost profile (so
// every charge is RtClock::advance(0), which never sleeps), consults the
// RtFabric fault hook, and wakes the receiver through RtActivity.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "nexus/context.hpp"
#include "nexus/fabric.hpp"
#include "nexus/module.hpp"

namespace nexus::proto {

/// Wire/CPU cost profile of one transport class.  Only the simulated wire
/// charges it; the realtime wire's profile is all zero.
struct LinkCosts {
  Time latency = 0;
  Time poll = 0;
  Time send_cpu = 0;
  double mb_s = 1.0;
  /// Per-payload-byte CPU at each end (payload-codec methods).
  Time cpu_per_byte = 0;
  /// The landing host's TCP polling slows this link's drain (paper §3.3
  /// kernel-call interference): bandwidth is divided by its inbound drag.
  bool dragged = false;
  /// Incast collapse: a send into an inbox holding more than
  /// incast_threshold transfers, while more than incast_bytes are in
  /// flight toward the host, stalls incast_stall per excess step squared.
  /// Zero stall disables the model.
  std::uint64_t incast_threshold = 0;
  std::uint64_t incast_bytes = 0;
  Time incast_stall = 0;
};

/// The one connection type of every wire-based method: where packets land
/// and the inbox they land in.  For direct methods the landing context is
/// the destination itself; for forwarded tcp it is the partition's
/// forwarding node; for multicast it is the group id.
class WireConn final : public CommObject {
 public:
  WireConn(CommModule& m, CommDescriptor d, ContextId landing,
           std::string_view inbox)
      : CommObject(m, std::move(d)), landing_(landing), inbox_(inbox) {}
  ContextId landing() const noexcept { return landing_; }
  /// Name of the inbox on the landing host: the method's own name, or a
  /// wrapper's (the reliable layer routes inner frames to its own inbox).
  std::string_view inbox() const noexcept { return inbox_; }

 private:
  friend class SimWire;
  friend class RtWire;
  ContextId landing_;
  std::string_view inbox_;
  // Landing host and inbox, resolved by the wire on first delivery and
  // cached for the connection's lifetime (fabric map nodes are stable).
  // Only the owning fabric's pair is ever set; never set for group-
  // addressed connections.
  SimHost* sim_host_ = nullptr;
  simnet::Mailbox<Packet>* sim_box_ = nullptr;
  RtHost* rt_host_ = nullptr;
  util::MpscQueue<Packet>* rt_queue_ = nullptr;
};

class Wire {
 public:
  virtual ~Wire() = default;
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  const LinkCosts& costs() const noexcept { return costs_; }

  /// Bind this context's inbox for `name`; every later poll reads it and
  /// fault rules match sends against it.
  virtual void bind(std::string_view name) = 0;
  virtual std::optional<Packet> poll() = 0;
  /// Earliest queued-but-future arrival (simulated wire only).
  virtual std::optional<Time> earliest_arrival() const = 0;
  /// Block until a packet arrives; nullopt after shutdown_blocking()
  /// (realtime wire only).
  virtual std::optional<Packet> blocking_poll() = 0;
  virtual void shutdown_blocking() = 0;

  /// Charge the method's per-message send CPU to the sender's clock.
  void charge_send_cpu() { ctx_.clock().advance(costs_.send_cpu); }
  /// When a `wire`-byte transfer leaving now lands; `bw_divisor` > 1
  /// slows the transfer.
  Time arrival(std::uint64_t wire, double bw_divisor = 1.0) const;

  /// The default transfer: charge send CPU, time the packet by the cost
  /// profile (with the landing host's drag, for a dragged link), deliver.
  virtual SendResult send(WireConn& conn, Packet pkt) = 0;
  /// Deliver into the connection's landing inbox at `arrival`, through
  /// the fabric's fault injection; the caller has charged send CPU.
  virtual SendResult deliver(WireConn& conn, Packet pkt, Time arrival,
                             std::uint64_t wire) = 0;
  /// Deliver into group member `member`'s inbox for this method.
  virtual SendResult deliver_member(ContextId member, Packet pkt,
                                    Time arrival, std::uint64_t wire) = 0;

  /// The node `ctx` runs on: contexts on one node share memory.
  virtual std::uint32_t node_of(ContextId ctx) const = 0;
  /// The fabric's multicast membership registry.
  virtual McastGroups& groups() = 0;

  /// Record a packet lost on its way out (aux = destination) and return
  /// `status` as the send's verdict.
  SendResult drop(const Packet& pkt, ContextId dst, std::uint64_t wire,
                  DeliveryStatus status) const;

 protected:
  Wire(Context& ctx, const CommModule& owner, LinkCosts costs)
      : ctx_(ctx), owner_(owner), costs_(costs) {}

  /// Enqueue events are transport detail, not causal structure: they are
  /// recorded only while span tracing is on, keeping the always-on flight
  /// path lean.
  bool tracing() const;
  /// Record the hand-off into the destination inbox (aux = scheduled
  /// arrival).
  void trace_enqueue(const Packet& pkt, std::uint64_t wire,
                     Time arrival) const;

  Context& ctx_;
  const CommModule& owner_;  ///< supplies the trace label
  LinkCosts costs_;
  std::string name_;
};

/// The wire of `ctx`'s fabric for a method owned by `owner`.  `costs` is
/// the method's simulated profile; the realtime wire ignores it.
std::unique_ptr<Wire> make_wire(Context& ctx, const CommModule& owner,
                                const LinkCosts& costs);

}  // namespace nexus::proto
