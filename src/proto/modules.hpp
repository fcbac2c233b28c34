// The built-in communication methods, each written once over a wire
// (proto/wire.hpp) that carries its packets on whichever fabric the context
// runs on.
//
// Methods provided here (fabrics they run on):
//   local    intra-context delivery, message-driven even to self
//            (simulated, realtime)
//   shm      shared memory between contexts on the same node; a simulated
//            node is context id / shm.node_size (resource db key), the
//            realtime process is one node (simulated, realtime)
//   mpl      IBM MPL analog: intra-partition only; subject to the
//            receiver's TCP-poll interference drag (simulated, realtime)
//   myrinet  SAN within a partition, an alternative to mpl (simulated)
//   tcp      reaches everywhere; supports forwarding via a landing context
//            and blocking pollers (simulated, realtime)
//   udp      unreliable datagrams: drop probability + MTU limit
//            (simulated, realtime)
//   aal5     ATM AAL5 analog: metropolitan link, cheaper than tcp
//            (simulated)
//   secure   tcp-class wire + toy stream cipher/MAC, per-byte CPU at both
//            ends (simulated, realtime)
//   zrle     tcp-class wire + RLE compression, per-byte CPU at both ends
//            (simulated, realtime)
//   mcast    true multicast: one send fans out to a registered group
//            (simulated, realtime)
//   stream   fragmenting stream transport, proto/stream.hpp (simulated)
// The simulated-only methods are refused on the realtime fabric by their
// registration (proto/register.cpp), not by the method classes.
#pragma once

#include <memory>
#include <string>

#include "nexus/context.hpp"
#include "nexus/module.hpp"
#include "nexus/runtime.hpp"
#include "proto/wire.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace nexus::proto {

/// The one module base: a method's policy over the wire of its context's
/// fabric.  By default a method reaches every context, its descriptor
/// carries no data, and a send is one copy to the landing context.
class WireModule : public CommModule {
 public:
  WireModule(Context& ctx, std::string name, LinkCosts costs, int rank);

  std::string_view name() const override { return name_; }
  void initialize(Context& ctx) override;
  CommDescriptor local_descriptor() const override;
  bool applicable(const CommDescriptor& remote) const override;
  /// A connection to the descriptor's landing context.
  std::unique_ptr<CommObject> connect(const CommDescriptor& remote) override;
  SendResult send(CommObject& conn, Packet packet) override;
  std::optional<Packet> poll() override { return wire_->poll(); }
  Time poll_cost() const override { return wire_->costs().poll; }
  std::optional<Time> earliest_arrival() const override {
    return wire_->earliest_arrival();
  }
  std::optional<Packet> blocking_poll() override {
    return wire_->blocking_poll();
  }
  void shutdown_blocking() override { wire_->shutdown_blocking(); }
  int speed_rank() const override { return rank_; }

 protected:
  Time now() const { return ctx_->now(); }
  /// A descriptor whose data is one u32 (node, partition, landing, group).
  CommDescriptor descriptor_with(std::uint32_t value) const;

  Context* ctx_;
  std::string name_;
  int rank_;
  std::unique_ptr<Wire> wire_;
};

class LocalModule final : public WireModule {
 public:
  explicit LocalModule(Context& ctx);
  bool applicable(const CommDescriptor& remote) const override;
};

class ShmModule final : public WireModule {
 public:
  explicit ShmModule(Context& ctx);
  CommDescriptor local_descriptor() const override;
  bool applicable(const CommDescriptor& remote) const override;
};

/// A method confined to one partition: mpl, and myrinet.
class PartitionModule final : public WireModule {
 public:
  static std::unique_ptr<CommModule> mpl(Context& ctx);
  static std::unique_ptr<CommModule> myrinet(Context& ctx);

  PartitionModule(Context& ctx, std::string name, LinkCosts costs, int rank);
  CommDescriptor local_descriptor() const override;
  bool applicable(const CommDescriptor& remote) const override;

 private:
  int my_partition() const;
};

class TcpModule final : public WireModule {
 public:
  explicit TcpModule(Context& ctx);
  CommDescriptor local_descriptor() const override;
  /// TCP descriptors carry an explicit landing context (the partition's
  /// forwarder when one is configured).
  ContextId landing_context(const CommDescriptor& remote) const override;
  bool supports_blocking() const override { return true; }
};

class UdpModule final : public WireModule {
 public:
  explicit UdpModule(Context& ctx);
  SendResult send(CommObject& conn, Packet packet) override;
  bool reliable() const override { return false; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  util::Rng rng_;
  double drop_prob_;
  std::uint64_t mtu_;
  std::uint64_t dropped_ = 0;
};

/// The ATM AAL5 analog: a plain link that reaches everywhere.
std::unique_ptr<CommModule> aal5_module(Context& ctx);

/// A tcp-class link that transforms every payload on the way out and back
/// on the way in, charging per-byte CPU at both ends: secure, and zrle.
class CodecModule final : public WireModule {
 public:
  using Transform = util::Bytes (*)(util::ByteSpan in, std::uint64_t key);

  static std::unique_ptr<CommModule> secure(Context& ctx);
  static std::unique_ptr<CommModule> zrle(Context& ctx);

  CodecModule(Context& ctx, std::string name, int rank, Time cpu_per_byte,
              Transform encode, Transform decode);
  SendResult send(CommObject& conn, Packet packet) override;
  std::optional<Packet> poll() override;

  /// Symmetric per-pair key (both ends derive the same value).
  static std::uint64_t pair_key(ContextId a, ContextId b);

 private:
  Transform encode_;
  Transform decode_;
};

/// Multicast group addressing: group g is represented in startpoint links
/// as the pseudo-context kMulticastBase + g.
inline constexpr ContextId kMulticastBase = kGroupContextBase;

class McastModule final : public WireModule {
 public:
  explicit McastModule(Context& ctx);
  CommDescriptor local_descriptor() const override;
  /// The connection lands on the group id carried in the descriptor.
  std::unique_ptr<CommObject> connect(const CommDescriptor& remote) override;
  SendResult send(CommObject& conn, Packet packet) override;
  bool reliable() const override { return false; }  // rides the udp model
  /// Register endpoint `ep` of this context as a member of `group`.
  void join(std::uint32_t group, EndpointId ep);
};

/// Register `ep` as a member of multicast group `group`.
void multicast_join(Context& ctx, std::uint32_t group, const Endpoint& ep);

/// A startpoint whose single link addresses multicast group `group`.
Startpoint multicast_startpoint(Context& ctx, std::uint32_t group);

}  // namespace nexus::proto
