#include "proto/modules.hpp"

#include <algorithm>

#include "proto/codec.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace nexus::proto {

namespace {
util::Bytes pack_u32(std::uint32_t v) {
  util::PackBuffer pb;
  pb.put_u32(v);
  return pb.take();
}

std::uint32_t unpack_u32(const util::Bytes& data) {
  util::UnpackBuffer ub(data);
  return ub.get_u32();
}

/// The tcp-class profile the wrapper methods ride on.
LinkCosts tcp_class(const SimCostParams& c) {
  return LinkCosts{c.tcp_latency, c.tcp_poll_cost, c.tcp_send_cpu, c.tcp_mb_s};
}

LinkCosts tcp_costs(const SimCostParams& c) {
  LinkCosts costs = tcp_class(c);
  costs.incast_threshold = c.tcp_incast_threshold;
  costs.incast_bytes = c.tcp_incast_bytes;
  costs.incast_stall = c.tcp_incast_stall;
  return costs;
}

LinkCosts codec_costs(const SimCostParams& c, Time cpu_per_byte) {
  LinkCosts costs = tcp_class(c);
  costs.cpu_per_byte = cpu_per_byte;
  return costs;
}
}  // namespace

// ----------------------------------------------------------------- base ---

WireModule::WireModule(Context& ctx, std::string name, LinkCosts costs,
                       int rank)
    : ctx_(&ctx),
      name_(std::move(name)),
      rank_(rank),
      wire_(make_wire(ctx, *this, costs)) {}

void WireModule::initialize(Context&) { wire_->bind(name_); }

CommDescriptor WireModule::descriptor_with(std::uint32_t value) const {
  return CommDescriptor{name_, ctx_->id(), pack_u32(value)};
}

CommDescriptor WireModule::local_descriptor() const {
  return CommDescriptor{name_, ctx_->id(), {}};
}

bool WireModule::applicable(const CommDescriptor& remote) const {
  return remote.method == name_;
}

std::unique_ptr<CommObject> WireModule::connect(const CommDescriptor& remote) {
  return std::make_unique<WireConn>(*this, remote, landing_context(remote),
                                    name_);
}

SendResult WireModule::send(CommObject& conn, Packet packet) {
  return wire_->send(static_cast<WireConn&>(conn), std::move(packet));
}

// ---------------------------------------------------------------- local ---

LocalModule::LocalModule(Context& ctx)
    : WireModule(ctx, "local",
                 LinkCosts{ctx.costs().local_latency,
                           ctx.costs().local_poll_cost,
                           ctx.costs().local_send_cpu, ctx.costs().local_mb_s},
                 0) {}

bool LocalModule::applicable(const CommDescriptor& remote) const {
  return remote.method == name_ && remote.context == ctx_->id();
}

// ------------------------------------------------------------------ shm ---

ShmModule::ShmModule(Context& ctx)
    : WireModule(ctx, "shm",
                 LinkCosts{ctx.costs().shm_latency, ctx.costs().shm_poll_cost,
                           ctx.costs().shm_send_cpu, ctx.costs().shm_mb_s},
                 1) {}

CommDescriptor ShmModule::local_descriptor() const {
  return descriptor_with(wire_->node_of(ctx_->id()));
}

bool ShmModule::applicable(const CommDescriptor& remote) const {
  return remote.method == name_ &&
         unpack_u32(remote.data) == wire_->node_of(ctx_->id());
}

// ---------------------------------------------------------- mpl/myrinet ---

std::unique_ptr<CommModule> PartitionModule::mpl(Context& ctx) {
  const SimCostParams& c = ctx.costs();
  LinkCosts costs{c.mpl_latency, c.mpl_poll_cost, c.mpl_send_cpu, c.mpl_mb_s};
  // Kernel-call interference (paper §3.3): the receiver's TCP polling
  // slows the drain of MPL transfers.
  costs.dragged = true;
  return std::make_unique<PartitionModule>(ctx, "mpl", costs, 3);
}

std::unique_ptr<CommModule> PartitionModule::myrinet(Context& ctx) {
  const SimCostParams& c = ctx.costs();
  return std::make_unique<PartitionModule>(
      ctx, "myrinet",
      LinkCosts{c.myrinet_latency, c.myrinet_poll_cost, c.myrinet_send_cpu,
                c.myrinet_mb_s},
      2);
}

PartitionModule::PartitionModule(Context& ctx, std::string name,
                                 LinkCosts costs, int rank)
    : WireModule(ctx, std::move(name), costs, rank) {}

int PartitionModule::my_partition() const {
  return ctx_->runtime().topology().partition_of(ctx_->id());
}

CommDescriptor PartitionModule::local_descriptor() const {
  // Paper §3.1: an MPL descriptor holds a node number and a session id
  // distinguishing SP partitions; the partition id plays both roles here.
  return descriptor_with(static_cast<std::uint32_t>(my_partition()));
}

bool PartitionModule::applicable(const CommDescriptor& remote) const {
  return remote.method == name_ &&
         static_cast<int>(unpack_u32(remote.data)) == my_partition();
}

// ------------------------------------------------------------------ tcp ---

TcpModule::TcpModule(Context& ctx)
    : WireModule(ctx, "tcp", tcp_costs(ctx.costs()), 6) {}

CommDescriptor TcpModule::local_descriptor() const {
  // The landing context differs from this context when the partition has a
  // forwarding node: external senders address the forwarder, which re-sends
  // over MPL (paper §3.3).
  ContextId landing = ctx_->id();
  if (auto fwd = ctx_->runtime().forwarder_of(ctx_->id())) landing = *fwd;
  return descriptor_with(landing);
}

ContextId TcpModule::landing_context(const CommDescriptor& remote) const {
  return unpack_u32(remote.data);
}

// ------------------------------------------------------------------ udp ---

UdpModule::UdpModule(Context& ctx)
    : WireModule(ctx, "udp",
                 LinkCosts{ctx.costs().udp_latency, ctx.costs().udp_poll_cost,
                           ctx.costs().udp_send_cpu, ctx.costs().udp_mb_s},
                 5),
      rng_(ctx.runtime().options().seed ^ (0x9e37ull * (ctx.id() + 1))),
      drop_prob_(ctx.costs().udp_drop_prob),
      mtu_(ctx.costs().udp_mtu) {}

SendResult UdpModule::send(CommObject& conn, Packet packet) {
  if (packet.payload.size() > mtu_) {
    // Deterministic rejection, not an exception: oversized datagrams can
    // never cross this link, so the sender gets a Dead verdict it can feed
    // into the health/failover machinery (and a rel wrapper can escalate).
    util::log_debug("udp", "context " + std::to_string(ctx_->id()) +
                               " rejected a " +
                               std::to_string(packet.payload.size()) +
                               "-byte payload over the " +
                               std::to_string(mtu_) + "-byte MTU");
    return wire_->drop(packet, packet.dst, packet.wire_size(),
                       DeliveryStatus::Dead);
  }
  wire_->charge_send_cpu();
  const std::uint64_t wire = packet.wire_size();
  if (rng_.chance(drop_prob_)) {
    ++dropped_;
    util::log_debug("udp", "context " + std::to_string(ctx_->id()) +
                               " dropped a " + std::to_string(wire) +
                               "-byte datagram to context " +
                               std::to_string(packet.dst));
    // Undetectable loss: it left the host and the network ate it.  The
    // sender sees Ok -- this is exactly why udp reports reliable()==false.
    return wire_->drop(packet, packet.dst, wire, DeliveryStatus::Ok);
  }
  const Time arrival = wire_->arrival(wire);
  return wire_->deliver(static_cast<WireConn&>(conn), std::move(packet),
                        arrival, wire);
}

// ----------------------------------------------------------------- aal5 ---

std::unique_ptr<CommModule> aal5_module(Context& ctx) {
  const SimCostParams& c = ctx.costs();
  return std::make_unique<WireModule>(
      ctx, "aal5",
      LinkCosts{c.aal5_latency, c.aal5_poll_cost, c.aal5_send_cpu, c.aal5_mb_s},
      4);
}

// ---------------------------------------------------------- secure/zrle ---

std::unique_ptr<CommModule> CodecModule::secure(Context& ctx) {
  return std::make_unique<CodecModule>(ctx, "secure", 7,
                                       ctx.costs().secure_cpu_per_byte, seal,
                                       open);
}

std::unique_ptr<CommModule> CodecModule::zrle(Context& ctx) {
  return std::make_unique<CodecModule>(
      ctx, "zrle", 8, ctx.costs().compress_cpu_per_byte,
      [](util::ByteSpan in, std::uint64_t) { return rle_encode(in); },
      [](util::ByteSpan in, std::uint64_t) { return rle_decode(in); });
}

CodecModule::CodecModule(Context& ctx, std::string name, int rank,
                         Time cpu_per_byte, Transform encode, Transform decode)
    : WireModule(ctx, std::move(name), codec_costs(ctx.costs(), cpu_per_byte),
                 rank),
      encode_(encode),
      decode_(decode) {}

std::uint64_t CodecModule::pair_key(ContextId a, ContextId b) {
  const std::uint64_t lo = std::min(a, b), hi = std::max(a, b);
  return (hi << 32 | lo) * 0x9e3779b97f4a7c15ull + 0x7f4a7c15ull;
}

SendResult CodecModule::send(CommObject& conn, Packet packet) {
  ctx_->clock().advance(static_cast<Time>(packet.payload.size()) *
                        wire_->costs().cpu_per_byte);
  // Transform methods replace the shared buffer rather than mutating it:
  // other aliases of the original payload are unaffected.
  packet.payload =
      encode_(packet.payload.span(), pair_key(packet.src, packet.dst));
  return WireModule::send(conn, std::move(packet));
}

std::optional<Packet> CodecModule::poll() {
  auto pkt = WireModule::poll();
  if (pkt) {
    pkt->payload = decode_(pkt->payload.span(), pair_key(pkt->src, pkt->dst));
    ctx_->clock().advance(static_cast<Time>(pkt->payload.size()) *
                          wire_->costs().cpu_per_byte);
  }
  return pkt;
}

// ---------------------------------------------------------------- mcast ---

McastModule::McastModule(Context& ctx)
    : WireModule(ctx, "mcast",
                 LinkCosts{ctx.costs().udp_latency, ctx.costs().udp_poll_cost,
                           ctx.costs().udp_send_cpu, ctx.costs().udp_mb_s},
                 9) {}

CommDescriptor McastModule::local_descriptor() const {
  // mcast descriptors are group-addressed and constructed via
  // multicast_startpoint(); the per-context descriptor only advertises that
  // the module is present.
  return descriptor_with(0);
}

std::unique_ptr<CommObject> McastModule::connect(
    const CommDescriptor& remote) {
  return std::make_unique<WireConn>(*this, remote, unpack_u32(remote.data),
                                    name_);
}

SendResult McastModule::send(CommObject& conn, Packet packet) {
  const std::uint32_t group = static_cast<WireConn&>(conn).landing();
  // Wait-free membership read: an immutable snapshot (possibly one join
  // stale, like a real network's propagation delay).
  const McastGroups::Members* members = wire_->groups().members(group);
  if (members == nullptr || members->empty()) {
    throw util::MethodError("multicast group " + std::to_string(group) +
                            " has no members");
  }
  // One send cost regardless of fan-out: the "network" replicates.
  wire_->charge_send_cpu();
  const std::uint64_t wire = packet.wire_size();
  const Time arrival = wire_->arrival(wire);
  for (const auto& [member, endpoint] : *members) {
    Packet copy = packet;
    copy.dst = member;
    copy.endpoint = endpoint;
    // Per-member fault consultation; faulted members are silently skipped
    // (multicast is unreliable, so the sender never sees member failures).
    wire_->deliver_member(member, std::move(copy), arrival, wire);
  }
  return {DeliveryStatus::Ok, wire};
}

void McastModule::join(std::uint32_t group, EndpointId ep) {
  wire_->groups().join(group, ctx_->id(), ep);
}

void multicast_join(Context& ctx, std::uint32_t group, const Endpoint& ep) {
  if (ep.context_id() != ctx.id()) {
    throw util::UsageError("multicast_join: endpoint must be local");
  }
  auto* mcast = dynamic_cast<McastModule*>(ctx.module("mcast"));
  if (mcast == nullptr) {
    throw util::MethodError("context has no 'mcast' module loaded");
  }
  mcast->join(group, ep.id());
}

Startpoint multicast_startpoint(Context& ctx, std::uint32_t group) {
  if (ctx.module("mcast") == nullptr) {
    throw util::MethodError("context has no 'mcast' module loaded");
  }
  Startpoint sp;
  Startpoint::Link link;
  link.context = kMulticastBase + group;
  link.endpoint = 0;  // rewritten per member at send time
  link.table = DescriptorTable(
      {CommDescriptor{"mcast", kMulticastBase + group, pack_u32(group)}});
  sp.links().push_back(std::move(link));
  return sp;
}

}  // namespace nexus::proto
