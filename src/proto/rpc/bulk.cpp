#include "proto/rpc/bulk.hpp"

#include <algorithm>
#include <cstring>

#include "nexus/runtime.hpp"
#include "proto/reliable.hpp"
#include "proto/rpc/rpc.hpp"

namespace nexus::proto::rpc {

namespace {

telemetry::ContextMetrics& cmetrics(Context& ctx) {
  return ctx.runtime().telemetry().metrics().context(ctx.id());
}

Startpoint& route_to(Context& ctx, std::map<ContextId, Startpoint>& routes,
                     ContextId peer) {
  auto it = routes.find(peer);
  if (it == routes.end()) {
    it = routes.emplace(peer, ctx.world_startpoint(peer)).first;
  }
  return it->second;
}

}  // namespace

// --- BulkProvider ---

BulkHandle BulkProvider::register_region(util::SharedBytes data) {
  // Ids are context-unique (folded like span ids) so a descriptor observed
  // by the wrong provider can never alias someone else's region.
  const std::uint64_t id =
      (static_cast<std::uint64_t>(ctx_.id()) + 1) << 40 | ++next_id_;
  const std::uint64_t size = data.size();
  regions_.emplace(id, std::move(data));
  return BulkHandle{id, size};
}

void BulkProvider::serve_pull(util::UnpackBuffer& ub) {
  const ContextId puller = ub.get_u32();
  const std::uint64_t bulk_id = ub.get_u64();
  const std::uint64_t key = ub.get_u64();
  const std::uint64_t offset = ub.get_u64();
  const std::uint32_t len = ub.get_u32();
  const Packet* pkt = ctx_.inbound_packet();
  const std::uint64_t trace = pkt != nullptr ? pkt->trace : 0;

  Startpoint& sp = route_to(ctx_, routes_, puller);
  auto it = regions_.find(bulk_id);
  const bool unknown = it == regions_.end();
  if (unknown || offset + len > it->second.size()) {
    // Typed protocol error frame instead of faulting: the puller aborts the
    // transfer with a BulkError verdict it can act on.
    ++cmetrics(ctx_).rpc_bulk_errors;
    util::PackBuffer pb(32);
    pb.put_u64(key);
    pb.put_u8(static_cast<std::uint8_t>(unknown ? BulkErr::UnknownHandle
                                                : BulkErr::OutOfRange));
    pb.put_string(unknown ? "bulk handle not registered (or released)"
                          : "pull window exceeds registered region");
    try {
      ctx_.rsr(sp, Context::resolve_handler(kBulkErrHandler), pb, trace);
    } catch (const util::MethodError&) {
      // Best effort: the puller's own deadline bounds the transfer.
    }
    return;
  }
  util::PackBuffer pb(24 + len);
  pb.put_u64(key);
  pb.put_u64(offset);
  pb.put_bytes(it->second.view(offset, len).span());
  try {
    ctx_.rsr(sp, Context::resolve_handler(kBulkChunkHandler), pb, trace);
  } catch (const util::MethodError&) {
    // Dropped chunk: the puller's retry cadence re-requests it.
  }
}

// --- BulkPuller ---

BulkPuller::BulkPuller(Context& ctx, Done done)
    : ctx_(ctx), done_(std::move(done)) {
  const util::ResourceDb& db = ctx_.config();
  chunk_bytes_ = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, db.get_scoped_int(ctx_.id(), "rpc.bulk_chunk",
                                                  8192)));
  window_ = static_cast<std::uint64_t>(std::max<std::int64_t>(
      1, db.get_scoped_int(ctx_.id(), "rpc.bulk_window", 4)));
}

std::uint64_t BulkPuller::credit_clamp(ContextId owner) const {
  // When the route toward the owner rides a reliability wrapper, never ask
  // for more chunks than the rel window has free credits: the bulk plane
  // must not drive the reliable layer into its own backpressure.
  for (const std::string& name : ctx_.methods()) {
    if (name.rfind("rel+", 0) != 0) continue;
    if (const auto* rel =
            dynamic_cast<const ReliableModule*>(ctx_.module(name))) {
      return rel->free_credits(owner);
    }
  }
  return window_;
}

void BulkPuller::start(std::uint64_t key, ContextId owner, BulkHandle handle,
                       Time deadline, std::uint64_t trace) {
  Pull p;
  p.owner = owner;
  p.bulk_id = handle.id;
  p.total = handle.size;
  p.deadline = deadline;
  p.started_at = ctx_.now();
  p.trace = trace;
  p.last_progress = ctx_.now();
  if (p.total > 0) {
    // The one receive-side allocation of the whole transfer: every chunk
    // memcpys into this buffer, and completion adopts it as a SharedBytes
    // without copying.
    p.buffer.resize(static_cast<std::size_t>(p.total));
    ++reassembly_allocs_;
  }
  pulls_.emplace(key, std::move(p));
  if (handle.size == 0) {
    finish(key, true, "");
    return;
  }
  pump(key);
}

void BulkPuller::pump(std::uint64_t key) {
  // rsr() polls, which can deliver chunk/error frames reentrantly and
  // mutate pulls_ -- re-find the entry on every iteration and never
  // hold a reference across a send.
  while (true) {
    auto it = pulls_.find(key);
    if (it == pulls_.end()) return;
    Pull& p = it->second;
    const std::uint64_t budget =
        std::max<std::uint64_t>(1, std::min(window_, credit_clamp(p.owner)));
    if (p.inflight.size() >= budget || p.next_offset >= p.total) return;
    const std::uint64_t offset = p.next_offset;
    const std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(chunk_bytes_, p.total - offset));
    const ContextId owner = p.owner;
    const std::uint64_t bulk_id = p.bulk_id;
    const std::uint64_t trace = p.trace;
      p.inflight.emplace(offset, len);
    p.next_offset = offset + len;
    if (!request_chunk(owner, bulk_id, key, offset, len, trace)) {
      finish(key, false, "bulk pull: no route to data owner");
      return;
    }
  }
}

bool BulkPuller::request_chunk(ContextId owner, std::uint64_t bulk_id,
                               std::uint64_t key, std::uint64_t offset,
                               std::uint32_t len, std::uint64_t trace) {
  util::PackBuffer pb(40);
  pb.put_u32(ctx_.id());
  pb.put_u64(bulk_id);
  pb.put_u64(key);
  pb.put_u64(offset);
  pb.put_u32(len);
  try {
    const DeliveryStatus st = ctx_.rsr(
        sp_to(owner), Context::resolve_handler(kBulkPullHandler), pb, trace);
    if (st == DeliveryStatus::Dead) return false;
  } catch (const util::MethodError&) {
    return false;
  }
  if (ctx_.observing()) {
    ctx_.observe({ctx_.now(), 0, ctx_.id(), telemetry::Phase::RpcPull, 0, len,
                  offset, 0, trace});
  }
  return true;
}

Startpoint& BulkPuller::sp_to(ContextId owner) {
  return route_to(ctx_, routes_, owner);
}

void BulkPuller::on_chunk(util::UnpackBuffer& ub) {
  const std::uint64_t key = ub.get_u64();
  const std::uint64_t offset = ub.get_u64();
  const util::ByteSpan data = ub.get_bytes_view();
  auto it = pulls_.find(key);
  if (it == pulls_.end()) return;  // transfer already finished/aborted
  Pull& p = it->second;
  auto fl = p.inflight.find(offset);
  if (fl == p.inflight.end() || fl->second != data.size()) {
    return;  // duplicate (retry raced the original) -- already counted
  }
  std::memcpy(p.buffer.data() + offset, data.data(), data.size());
  p.received += data.size();
  p.inflight.erase(fl);
  p.last_progress = ctx_.now();
  p.retry_lag = kRetryLagInitial;  // real progress resets the backoff
  ++cmetrics(ctx_).rpc_bulk_pull_chunks;
  if (ctx_.observing()) {
    ctx_.observe({ctx_.now(), 0, ctx_.id(), telemetry::Phase::RpcChunk, 0,
                  data.size(), offset, 0, p.trace});
  }
  if (p.received >= p.total) {
    finish(key, true, "");
    return;
  }
  pump(key);
}

void BulkPuller::on_error(util::UnpackBuffer& ub) {
  const std::uint64_t key = ub.get_u64();
  const std::uint8_t reason = ub.get_u8();
  const std::string detail = ub.get_string();
  if (pulls_.find(key) == pulls_.end()) return;
  ++cmetrics(ctx_).rpc_bulk_errors;
  finish(key, false,
         "bulk pull rejected (" +
             std::string(reason == static_cast<std::uint8_t>(
                                       BulkErr::UnknownHandle)
                             ? "unknown handle"
                             : "out of range") +
             "): " + detail);
}

void BulkPuller::service() {
  // Collect keys first: finish()/pump() mutate the map.
  std::vector<std::uint64_t> keys;
  keys.reserve(pulls_.size());
  for (const auto& [key, p] : pulls_) keys.push_back(key);
  for (const std::uint64_t key : keys) {
    auto it = pulls_.find(key);
    if (it == pulls_.end()) continue;
    Pull& p = it->second;
    if (p.deadline != 0 && ctx_.now() >= p.deadline) {
      finish(key, false, "bulk pull deadline exceeded");
      continue;
    }
    if (ctx_.is_peer_dead(p.owner)) {
      finish(key, false, "bulk pull: data owner died");
      continue;
    }
    // Re-request chunks whose reply has been silent past the retry lag
    // (the pull or its chunk rode an unreliable hop and was dropped).  The
    // lag doubles per barren round so a merely-slow window is never
    // re-duplicated into receiver-queue congestion (see kRetryLagInitial).
    if (!p.inflight.empty() &&
        ctx_.now() - p.last_progress >= p.retry_lag) {
      p.last_progress = ctx_.now();
      p.retry_lag = std::min<Time>(p.retry_lag * 2, kRetryLagMax);
      const auto inflight = p.inflight;  // frames may arrive reentrantly
      for (const auto& [offset, len] : inflight) {
        auto again = pulls_.find(key);
        if (again == pulls_.end()) break;
        if (again->second.inflight.find(offset) ==
            again->second.inflight.end()) {
          continue;  // answered while we were resending others
        }
        if (!request_chunk(again->second.owner, again->second.bulk_id, key,
                           offset, len, again->second.trace)) {
          finish(key, false, "bulk pull: no route to data owner");
          break;
        }
      }
    }
    pump(key);
  }
}

void BulkPuller::finish(std::uint64_t key, bool ok, std::string err) {
  auto it = pulls_.find(key);
  if (it == pulls_.end()) return;
  Pull p = std::move(it->second);
  pulls_.erase(it);  // erase before the callback: it may start a new pull
  util::SharedBytes data;
  if (ok) {
    if (ctx_.runtime().telemetry().metrics().enabled()) {
      const Time elapsed = ctx_.now() - p.started_at;
      if (elapsed > 0 && p.total > 0) {
        const double mb_s = static_cast<double>(p.total) * 1e9 /
                            (static_cast<double>(elapsed) * 1024.0 * 1024.0);
        cmetrics(ctx_).rpc_bulk_mb_s.add(
            static_cast<std::uint64_t>(mb_s));
      }
    }
    data = util::SharedBytes(std::move(p.buffer));  // adopt, no copy
  }
  done_(key, std::move(data), ok, std::move(err));
}

}  // namespace nexus::proto::rpc
