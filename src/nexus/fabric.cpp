#include "nexus/fabric.hpp"

#include <utility>

namespace nexus {

namespace {
// Pre-sharding fault-rng construction, preserved exactly for shard 0 so
// threads=1 runs draw the identical stream the single-threaded runtime did.
constexpr std::uint64_t kFaultRngSalt = 0xfa171fab71c5ull;
// Weyl constant decorrelating the additional shard streams.
constexpr std::uint64_t kShardStride = 0x9e3779b97f4a7c15ull;
}  // namespace

/// Bridges a shard's scheduler to the fabric's cross-shard router: drains
/// the shard's inbound MPSC queue into local mailboxes at the top of every
/// scheduler iteration, and parks on the ShardGroup when the shard is
/// locally idle.
class SimFabric::ShardSource : public simnet::ExternalSource {
 public:
  static constexpr std::size_t kDrainBatch = 256;

  ShardSource(SimFabric& fabric, std::size_t shard)
      : fabric_(fabric), shard_(shard) {}

  bool drain() override {
    auto& inbound = fabric_.shards_[shard_]->inbound;
    // Bounded batch: producers on other shards may enqueue faster than one
    // consumer ingests (a retransmission storm), and an unbounded loop
    // would then never hand the baton to the processes that must act on
    // the traffic.  The remainder waits for the next drain.
    std::size_t n = 0;
    while (n < kDrainBatch) {
      auto post = inbound.try_pop();
      if (!post) break;
      post->box->post(post->arrival, std::move(post->pkt));
      ++n;
    }
    if (n != 0) fabric_.group_->note_drained(n);
    return n != 0;
  }

  simnet::ExternalIdle idle(bool /*locally_done*/) override {
    return fabric_.group_->park(shard_, [this] {
      return !fabric_.shards_[shard_]->inbound.empty();
    });
  }

 private:
  SimFabric& fabric_;
  const std::size_t shard_;
};

McastGroups::McastGroups() {
  auto empty = std::make_unique<Map>();
  current_.store(empty.get(), std::memory_order_release);
  retired_.push_back(std::move(empty));
}

void McastGroups::join(std::uint32_t group, ContextId ctx, EndpointId ep) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  auto next = std::make_unique<Map>(*current_.load(std::memory_order_relaxed));
  (*next)[group].emplace_back(ctx, ep);
  current_.store(next.get(), std::memory_order_release);
  retired_.push_back(std::move(next));
}

SimFabric::SimFabric(simnet::Topology topology)
    : topology_(std::move(topology)) {
  shards_.push_back(std::make_unique<Shard>());
  seed_fault_rngs();
}

SimFabric::~SimFabric() = default;

void SimFabric::init_shards(std::size_t n) {
  if (n == 0) n = 1;
  if (n == shards_.size()) return;
  if (!procs_by_ctx_.empty() || shards_[0]->scheduler.process_count() != 0) {
    throw util::Error("SimFabric::init_shards: processes already spawned");
  }
  shards_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_[i]->scheduler.set_shard_index(i);
  }
  if (n > 1) {
    group_ = std::make_unique<simnet::ShardGroup>(n);
    for (std::size_t i = 0; i < n; ++i) {
      shards_[i]->source = std::make_unique<ShardSource>(*this, i);
      shards_[i]->scheduler.set_external_source(shards_[i]->source.get());
    }
  } else {
    group_.reset();
  }
  seed_fault_rngs();
}

void SimFabric::register_process(ContextId id, simnet::SimProcess* proc) {
  if (procs_by_ctx_.size() <= id) procs_by_ctx_.resize(id + 1, nullptr);
  procs_by_ctx_[id] = proc;
}

simnet::SimProcess& SimFabric::process_of(ContextId id) {
  if (id >= procs_by_ctx_.size() || procs_by_ctx_[id] == nullptr) {
    throw util::Error("SimFabric: no process registered for context " +
                      std::to_string(id));
  }
  return *procs_by_ctx_[id];
}

void SimFabric::post_cross_shard(ContextId dst, simnet::Mailbox<Packet>& box,
                                 simnet::Time arrival, Packet pkt) {
  const std::size_t target = shard_of(dst);
  // Inflight accounting BEFORE the enqueue (termination-protocol contract:
  // the counter must cover the post for the whole window in which the
  // producing shard is provably unparked).
  group_->note_enqueue();
  shards_[target]->inbound.push(
      CrossShardPost{&box, arrival, std::move(pkt)});
  group_->wake(target);
}

void SimFabric::set_faults(simnet::FaultPlan plan, std::uint64_t seed) {
  faults_ = std::move(plan);
  fault_seed_ = seed;
  seed_fault_rngs();
}

void SimFabric::seed_fault_rngs() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->fault_rng =
        util::Rng(fault_seed_ ^ kFaultRngSalt ^ (kShardStride * i));
  }
}

}  // namespace nexus
