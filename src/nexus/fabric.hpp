// Fabric state shared by the per-context communication modules (through
// their wires, proto/wire.hpp).
//
// The simulated fabric owns one conservative scheduler per *shard* (threads=1
// collapses to the classic single-scheduler layout, bit-identical to the
// pre-sharding runtime) and, per context, a SimHost with one arrival-ordered
// mailbox per method.  Contexts are assigned to shards round-robin
// (shard = ctx % shards); a context's process, mailboxes, and handlers live
// on its home shard and are touched by that shard's thread only.
// Cross-shard traffic is routed through a per-shard lock-free MPSC queue
// (SimFabric::post) and drained by the receiving shard's scheduler loop; the
// ShardGroup parked-mask protocol decides global termination.
//
// The realtime fabric owns, per context, a RtHost with one lock-free MPSC
// packet queue per method (single consumer = the context's polling engine or
// its blocking-poller thread, never both -- the handoff is serialized by
// thread create/join) and an activity channel for idle waits.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nexus/clock.hpp"
#include "nexus/types.hpp"
#include "simnet/fault.hpp"
#include "simnet/mailbox.hpp"
#include "simnet/scheduler.hpp"
#include "simnet/shard.hpp"
#include "simnet/topology.hpp"
#include "util/error.hpp"
#include "util/mpsc_queue.hpp"
#include "util/queues.hpp"
#include "util/rng.hpp"

namespace nexus {

/// Multicast group membership, one registry per fabric.  Copy-on-write: a
/// join builds a fresh map under a mutex and publishes it with one atomic
/// store; retired maps stay alive until the registry dies, so a sender's
/// snapshot never dangles.  Reads are wait-free and possibly one join stale
/// (exactly the semantics of a real network's propagation delay).
class McastGroups {
 public:
  using Members = std::vector<std::pair<ContextId, EndpointId>>;

  McastGroups();
  McastGroups(const McastGroups&) = delete;
  McastGroups& operator=(const McastGroups&) = delete;

  /// Join `ctx`/`ep` to `group` (thread-safe).
  void join(std::uint32_t group, ContextId ctx, EndpointId ep);
  /// Members of `group` in the current snapshot; nullptr when it has none.
  /// The pointee is immutable and valid for the registry's lifetime.
  const Members* members(std::uint32_t group) const {
    const Map& map = *current_.load(std::memory_order_acquire);
    auto it = map.find(group);
    return it == map.end() ? nullptr : &it->second;
  }

 private:
  using Map = std::map<std::uint32_t, Members>;

  std::mutex write_mutex_;
  std::atomic<const Map*> current_;
  std::vector<std::unique_ptr<Map>> retired_;
};

/// Per-context endpoint of the simulated fabric.
struct SimHost {
  simnet::SimProcess* proc = nullptr;
  std::map<std::string, simnet::Mailbox<Packet>, std::less<>> boxes;
  /// Interference drag on inbound MPL-class transfers caused by this host's
  /// expensive polls (1.0 = none); see Context::update_interference().
  /// Atomic: written by the owning context, read by senders on any shard.
  /// Relaxed suffices -- it is a scalar performance-model knob, not a
  /// synchronization edge.
  std::atomic<double> inbound_drag{1.0};
  /// Bytes currently in flight toward this host over the TCP-class method;
  /// maintained by the simulated wire of a link with an incast profile
  /// (proto/wire.hpp).  Atomic for the same reason: senders on every shard
  /// add, the receiver subtracts.
  std::atomic<std::uint64_t> tcp_inflight_bytes{0};

  simnet::Mailbox<Packet>& box(std::string_view method) {
    auto it = boxes.find(method);
    if (it == boxes.end()) {
      throw util::MethodError("context has no mailbox for method '" +
                              std::string(method) + "'");
    }
    return it->second;
  }
};

class SimFabric {
 public:
  explicit SimFabric(simnet::Topology topology);
  ~SimFabric();

  SimFabric(const SimFabric&) = delete;
  SimFabric& operator=(const SimFabric&) = delete;

  // ---- sharding ----------------------------------------------------------

  /// Partition the fabric into `n` scheduler shards (1..ShardGroup::
  /// kMaxShards).  Must be called before any process is spawned or mailbox
  /// created; constructing the fabric leaves it at one shard.
  void init_shards(std::size_t n);

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t shard_of(ContextId id) const noexcept {
    return static_cast<std::size_t>(id) % shards_.size();
  }
  bool same_shard(ContextId a, ContextId b) const noexcept {
    return shard_of(a) == shard_of(b);
  }

  /// The scheduler owning context `id`'s process and mailboxes.
  simnet::Scheduler& scheduler_for(ContextId id) {
    return shards_[shard_of(id)]->scheduler;
  }
  /// A specific shard's scheduler (shard 0 by default -- the whole fabric
  /// under threads=1).
  simnet::Scheduler& scheduler(std::size_t shard = 0) {
    return shards_.at(shard)->scheduler;
  }

  /// Context -> SimProcess registry.  Under sharding, a process's index
  /// within its shard's scheduler is unrelated to the context id, so the
  /// runtime registers each spawned process here.
  void register_process(ContextId id, simnet::SimProcess* proc);
  simnet::SimProcess& process_of(ContextId id);

  /// Deliver `pkt` into `box` (a mailbox of context `dst`) at virtual time
  /// `arrival`.  Same-shard posts -- the entire workload at threads=1 --
  /// stay on the direct-mailbox 1-alloc hot path, inlined.  Cross-shard:
  /// one MPSC enqueue (+1 node alloc) plus a conditional wakeup; the
  /// receiving shard's scheduler drains it into the mailbox on its own
  /// thread.  `src` names the posting context (the caller must be running
  /// on src's home shard).
  void post(ContextId src, ContextId dst, simnet::Mailbox<Packet>& box,
            simnet::Time arrival, Packet pkt) {
    if (group_ == nullptr || same_shard(src, dst)) {
      box.post(arrival, std::move(pkt));
      return;
    }
    post_cross_shard(dst, box, arrival, std::move(pkt));
  }

  const simnet::Topology& topology() const noexcept { return topology_; }

  SimHost& host(ContextId id) { return *hosts_.at(id); }
  void add_host(std::unique_ptr<SimHost> h) { hosts_.push_back(std::move(h)); }

  McastGroups& multicast() noexcept { return mcast_; }

  // ---- fault injection ---------------------------------------------------

  /// Deterministic fault-injection plan the simulated wire consults at
  /// every send.  Mutable between runs and, under threads=1, mid-run (the
  /// scheduler serializes sim processes); threaded runs must install the
  /// plan before run().
  void set_faults(simnet::FaultPlan plan, std::uint64_t seed);
  simnet::FaultPlan& faults() noexcept { return faults_; }
  const simnet::FaultPlan& faults() const noexcept { return faults_; }

  /// The rng behind probabilistic fault rules, sharded: each scheduler
  /// thread draws from its own stream (shard 0 keeps the pre-sharding
  /// stream, so threads=1 fault sequences are bit-identical to the
  /// single-threaded runtime).
  util::Rng& fault_rng_for(ContextId ctx) {
    return shards_[shard_of(ctx)]->fault_rng;
  }

  /// The termination/wakeup group coordinating the shards' scheduler loops;
  /// nullptr at one shard (plain DeadlockError semantics apply).
  simnet::ShardGroup* shard_group() noexcept { return group_.get(); }

 private:
  struct CrossShardPost {
    simnet::Mailbox<Packet>* box = nullptr;
    simnet::Time arrival = 0;
    Packet pkt;
  };

  /// Slow path of post(): route through the destination shard's MPSC
  /// queue with termination-protocol inflight accounting.
  void post_cross_shard(ContextId dst, simnet::Mailbox<Packet>& box,
                        simnet::Time arrival, Packet pkt);

  /// ExternalSource a sharded fabric installs on each shard's scheduler.
  class ShardSource;

  struct Shard {
    simnet::Scheduler scheduler;
    util::MpscQueue<CrossShardPost> inbound;
    util::Rng fault_rng;
    std::unique_ptr<ShardSource> source;
  };

  void seed_fault_rngs();

  simnet::Topology topology_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<simnet::ShardGroup> group_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::vector<simnet::SimProcess*> procs_by_ctx_;

  McastGroups mcast_;

  simnet::FaultPlan faults_;
  std::uint64_t fault_seed_ = 0;
};

/// Per-context endpoint of the realtime fabric.  Each method queue has many
/// producers (sender threads) and exactly one consumer at a time: the
/// context's polling engine, or the method's dedicated blocking-poller
/// thread while one is installed (Context::set_blocking_poller disables the
/// engine entry before starting the thread and re-enables it after joining,
/// so the consumer role moves across a happens-before edge).
struct RtHost {
  std::shared_ptr<RtActivity> activity = std::make_shared<RtActivity>();
  std::map<std::string, util::MpscQueue<Packet>, std::less<>> queues;

  util::MpscQueue<Packet>& queue(std::string_view method) {
    auto it = queues.find(method);
    if (it == queues.end()) {
      throw util::MethodError("context has no queue for method '" +
                              std::string(method) + "'");
    }
    return it->second;
  }
};

class RtFabric {
 public:
  RtHost& host(ContextId id) { return *hosts_.at(id); }
  void add_host(std::unique_ptr<RtHost> h) { hosts_.push_back(std::move(h)); }

  McastGroups& multicast() noexcept { return mcast_; }

  /// Fault-injection hook for the realtime fabric: the realtime wire calls
  /// it before enqueueing every packet.  Must be installed before run()
  /// (sends happen on context threads) and must itself be thread-safe.
  /// extra_delay verdicts are ignored -- real time cannot be scripted.
  using FaultHook = std::function<simnet::FaultVerdict(
      std::string_view method, ContextId src, ContextId dst)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }
  const FaultHook& fault_hook() const noexcept { return fault_hook_; }

 private:
  std::vector<std::unique_ptr<RtHost>> hosts_;
  McastGroups mcast_;
  FaultHook fault_hook_;
};

}  // namespace nexus
