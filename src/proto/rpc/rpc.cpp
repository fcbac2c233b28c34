#include "proto/rpc/rpc.hpp"

#include <algorithm>
#include <utility>

#include "nexus/runtime.hpp"

namespace nexus::proto::rpc {

namespace {

constexpr Time kWaitTick = 50'000;  // 50 us of polling-interleaved compute

telemetry::ContextMetrics& cmetrics(Context& ctx) {
  return ctx.runtime().telemetry().metrics().context(ctx.id());
}

/// Wire -> enum with range clamp: a corrupt status byte degrades to a
/// typed HandlerError rather than UB on the enum.
CallStatus decode_status(std::uint8_t v) noexcept {
  if (v == 0 || v > static_cast<std::uint8_t>(CallStatus::BulkError)) {
    return CallStatus::HandlerError;
  }
  return static_cast<CallStatus>(v);
}

}  // namespace

const char* call_status_name(CallStatus s) noexcept {
  switch (s) {
    case CallStatus::Pending: return "pending";
    case CallStatus::Ok: return "ok";
    case CallStatus::DeadlineExceeded: return "deadline_exceeded";
    case CallStatus::Cancelled: return "cancelled";
    case CallStatus::PeerDied: return "peer_died";
    case CallStatus::Rejected: return "rejected";
    case CallStatus::HandlerError: return "handler_error";
    case CallStatus::BulkError: return "bulk_error";
  }
  return "?";
}

// --- Client ---

Client::Client(Context& ctx)
    : ctx_(ctx), bulk_(ctx), incarnation_(ctx.incarnation()) {
  default_deadline_ =
      static_cast<Time>(std::max<std::int64_t>(
          0, ctx_.config().get_scoped_int(ctx_.id(), "rpc.deadline_ms", 0))) *
      1'000'000;
  ctx_.register_handler(kRepHandler,
                        [this](Context&, Endpoint&, util::UnpackBuffer& ub) {
                          on_reply(ub);
                        });
  ctx_.register_handler(kBulkPullHandler,
                        [this](Context&, Endpoint&, util::UnpackBuffer& ub) {
                          bulk_.serve_pull(ub);
                        });
}

Startpoint& Client::route(ContextId server) {
  auto it = routes_.find(server);
  if (it == routes_.end()) {
    it = routes_.emplace(server, ctx_.world_startpoint(server)).first;
  }
  return it->second;
}

CallId Client::call(ContextId server, std::string_view service,
                    const util::PackBuffer& args, CallOptions opts) {
  return issue(server, service, args, BulkHandle{}, opts);
}

CallId Client::call_bulk(ContextId server, std::string_view service,
                         const util::PackBuffer& args, BulkHandle bulk,
                         CallOptions opts) {
  return issue(server, service, args, bulk, opts);
}

CallId Client::issue(ContextId server, std::string_view service,
                     const util::PackBuffer& args, BulkHandle bulk,
                     CallOptions opts) {
  this->service();  // expire/abort housekeeping rides every issue
  const CallId id =
      (static_cast<std::uint64_t>(ctx_.id()) + 1) << 40 | ++next_call_;
  const std::uint64_t trace = ctx_.observing() ? ctx_.next_trace() : 0;
  const Time budget = opts.timeout != 0 ? opts.timeout : default_deadline_;

  Call c;
  c.server = server;
  c.service = std::string(service);
  c.issued_at = ctx_.now();
  c.deadline = budget != 0 ? ctx_.now() + budget : 0;
  c.trace = trace;
  // Registered before the send: the reply can land during rsr's own poll
  // (loopback or a fast simulated path) and must find the pending entry.
  calls_.emplace(id, std::move(c));
  ++cmetrics(ctx_).rpc_calls;

  util::PackBuffer pb(64 + args.size());
  pb.put_u64(id);
  pb.put_u32(ctx_.id());
  pb.put_string(service);
  pb.put_u64(static_cast<std::uint64_t>(budget));
  pb.put_u8(bulk.valid() ? 1 : 0);
  if (bulk.valid()) {
    pb.put_u64(bulk.id);
    pb.put_u64(bulk.size);
  }
  pb.put_raw(args.bytes());  // last field: the server views it zero-copy

  Startpoint& sp = route(server);
  DeliveryStatus st;
  try {
    st = ctx_.rsr(sp, Context::resolve_handler(kReqHandler), pb, trace);
  } catch (const util::MethodError& e) {
    complete(id, CallStatus::PeerDied, {}, e.what());
    return id;
  }
  if (!sp.links().empty() && !sp.selected_method(0).empty()) {
    ctx_.note_rpc_method(server, sp.selected_method(0));
  }
  if (ctx_.observing()) {
    ctx_.observe({ctx_.now(), 0, ctx_.id(), telemetry::Phase::RpcCall, 0,
                  pb.size(), id, 0, trace});
  }
  if (st == DeliveryStatus::Dead) {
    // Unknown context or a dead verdict with no dead-letter budget: the
    // call can never be answered; fail it fast.
    complete(id, CallStatus::PeerDied, {},
             "request not deliverable (dead verdict)");
  }
  return id;
}

void Client::on_reply(util::UnpackBuffer& ub) {
  const Packet* pkt = ctx_.inbound_packet();
  const CallId id = ub.get_u64();
  const CallStatus status = decode_status(ub.get_u8());
  const std::string error = ub.get_string();
  util::SharedBytes payload;
  if (ub.remaining() > 0 && pkt != nullptr) {
    const std::size_t offset = pkt->payload.size() - ub.remaining();
    payload = pkt->payload.view(offset, ub.remaining());  // zero-copy
  }
  auto it = calls_.find(id);
  if (it == calls_.end() || it->second.status != CallStatus::Pending) {
    // Late (past-deadline / post-cancel) or duplicate reply: dropped and
    // counted, never delivered twice.
    ++cmetrics(ctx_).rpc_late_replies;
    return;
  }
  complete(id, status, std::move(payload), error);
}

bool Client::complete(CallId id, CallStatus status, util::SharedBytes payload,
                      std::string error) {
  auto it = calls_.find(id);
  if (it == calls_.end() || it->second.status != CallStatus::Pending ||
      status == CallStatus::Pending) {
    return false;
  }
  Call& c = it->second;
  c.status = status;
  c.reply = std::move(payload);
  c.error = std::move(error);
  telemetry::ContextMetrics& cm = cmetrics(ctx_);
  telemetry::Phase phase = telemetry::Phase::RpcReply;
  switch (status) {
    case CallStatus::Ok:
      if (ctx_.runtime().telemetry().metrics().enabled()) {
        cm.rpc_call_ns.add(
            static_cast<std::uint64_t>(ctx_.now() - c.issued_at));
      }
      break;
    case CallStatus::DeadlineExceeded:
      ++cm.rpc_deadline_exceeded;
      phase = telemetry::Phase::RpcExpire;
      break;
    case CallStatus::Cancelled:
      ++cm.rpc_cancelled;
      phase = telemetry::Phase::RpcCancel;
      break;
    case CallStatus::PeerDied:
      ++cm.rpc_peer_died;
      break;
    case CallStatus::Rejected:
      ++cm.rpc_rejected;
      phase = telemetry::Phase::RpcReject;
      break;
    case CallStatus::Pending:
    case CallStatus::HandlerError:
    case CallStatus::BulkError:
      break;
  }
  if (ctx_.observing()) {
    ctx_.observe({ctx_.now(), 0, ctx_.id(), phase, 0, c.reply.size(), id, 0,
                  c.trace});
  }
  return true;
}

void Client::service() {
  if (ctx_.incarnation() != incarnation_) {
    // Our own process reincarnated: in-flight calls died with the old life.
    incarnation_ = ctx_.incarnation();
    bulk_.clear();
    for (auto& [id, c] : calls_) {
      if (c.status == CallStatus::Pending) {
        complete(id, CallStatus::PeerDied, {},
                 "local context reincarnated mid-call");
      }
    }
  }
  for (auto& [id, c] : calls_) {
    if (c.status != CallStatus::Pending) continue;
    if (ctx_.is_peer_dead(c.server)) {
      complete(id, CallStatus::PeerDied, {}, "server declared dead");
      continue;
    }
    if (c.deadline != 0 && ctx_.now() >= c.deadline) {
      complete(id, CallStatus::DeadlineExceeded, {}, "deadline exceeded");
    }
  }
}

bool Client::done(CallId id) const {
  auto it = calls_.find(id);
  return it == calls_.end() || it->second.status != CallStatus::Pending;
}

CallResult Client::take(CallId id) {
  auto it = calls_.find(id);
  if (it == calls_.end()) {
    throw util::UsageError("rpc call id unknown (or already taken)");
  }
  if (it->second.status == CallStatus::Pending) {
    throw util::UsageError("rpc call still pending; use wait()");
  }
  CallResult res;
  res.status = it->second.status;
  res.payload = std::move(it->second.reply);
  res.error = std::move(it->second.error);
  calls_.erase(it);
  return res;
}

CallResult Client::wait(CallId id) {
  while (true) {
    service();
    auto it = calls_.find(id);
    if (it == calls_.end()) {
      throw util::UsageError("rpc wait on unknown (or taken) call id");
    }
    if (it->second.status != CallStatus::Pending) break;
    // Progress when there is traffic; otherwise advance (virtual) time so
    // deadlines fire during silence instead of deadlocking the scheduler.
    if (!ctx_.progress()) ctx_.compute_with_polling(kWaitTick, kWaitTick);
  }
  return take(id);
}

void Client::wait_all() {
  while (true) {
    service();
    bool any = false;
    for (const auto& [id, c] : calls_) {
      if (c.status == CallStatus::Pending) {
        any = true;
        break;
      }
    }
    if (!any) return;
    if (!ctx_.progress()) ctx_.compute_with_polling(kWaitTick, kWaitTick);
  }
}

void Client::cancel(CallId id) {
  auto it = calls_.find(id);
  if (it == calls_.end() || it->second.status != CallStatus::Pending) return;
  const ContextId server = it->second.server;
  const std::uint64_t trace = it->second.trace;
  complete(id, CallStatus::Cancelled, {}, "cancelled by caller");
  // Best-effort cancel frame: the server stops work it has not started and
  // lets running handlers observe CallContext::cancelled().  Loss is fine;
  // the eventual reply is dropped as late.
  util::PackBuffer pb(8);
  pb.put_u64(id);
  try {
    ctx_.rsr(route(server), Context::resolve_handler(kCancelHandler), pb,
             trace);
  } catch (const util::MethodError&) {
  }
}

std::size_t Client::outstanding() const {
  std::size_t n = 0;
  for (const auto& [id, c] : calls_) {
    if (c.status == CallStatus::Pending) ++n;
  }
  return n;
}

// --- CallContext ---

bool CallContext::cancelled() const {
  return srv_.is_cancelled(client_, call_id_) ||
         (deadline_ != 0 && ctx_.now() >= deadline_);
}

void CallContext::respond(const util::PackBuffer& payload) {
  respond(util::SharedBytes::copy_of(payload.bytes()));
}

void CallContext::respond(util::SharedBytes payload) {
  if (replied_) {
    throw util::UsageError("rpc handler responded twice");
  }
  replied_ = true;
  response_ = std::move(payload);
}

// --- Server ---

Server::Server(Context& ctx)
    : ctx_(ctx),
      puller_(ctx,
              [this](std::uint64_t key, util::SharedBytes data, bool ok,
                     std::string err) {
                on_pull_done(key, std::move(data), ok, std::move(err));
              }),
      incarnation_(ctx.incarnation()) {
  const util::ResourceDb& db = ctx_.config();
  max_inflight_ = static_cast<std::size_t>(std::max<std::int64_t>(
      1, db.get_scoped_int(ctx_.id(), "rpc.max_inflight", 8)));
  queue_cap_ = static_cast<std::size_t>(std::max<std::int64_t>(
      0, db.get_scoped_int(ctx_.id(), "rpc.queue_cap", 16)));
  // The reliable layer's backpressure vocabulary: "queue" (alias "block")
  // parks excess calls in the bounded pending queue; "shed" rejects the
  // moment the concurrency limit is hit.
  const std::string policy =
      db.get_scoped(ctx_.id(), "rpc.admission").value_or("queue");
  if (policy == "shed") {
    shed_ = true;
  } else if (policy != "queue" && policy != "block") {
    throw util::ConfigError("rpc.admission must be queue|block|shed, got '" +
                            policy + "'");
  }
  ctx_.register_handler(kReqHandler,
                        [this](Context&, Endpoint&, util::UnpackBuffer& ub) {
                          on_request(ub);
                        });
  ctx_.register_handler(kCancelHandler,
                        [this](Context&, Endpoint&, util::UnpackBuffer& ub) {
                          on_cancel(ub);
                        });
  ctx_.register_handler(kBulkChunkHandler,
                        [this](Context&, Endpoint&, util::UnpackBuffer& ub) {
                          puller_.on_chunk(ub);
                        });
  ctx_.register_handler(kBulkErrHandler,
                        [this](Context&, Endpoint&, util::UnpackBuffer& ub) {
                          puller_.on_error(ub);
                        });
}

void Server::serve(std::string_view service, HandlerFn fn) {
  auto [it, inserted] = services_.emplace(std::string(service), std::move(fn));
  if (!inserted) {
    throw util::UsageError("rpc service '" + std::string(service) +
                           "' registered twice");
  }
}

void Server::reincarnation_check() {
  if (ctx_.incarnation() == incarnation_) return;
  // Crash restart: the admission queue, running slots, and half-finished
  // pulls belonged to the previous life.  Clients resolve their calls via
  // peer-death detection or deadlines; we just must not leak slots.
  incarnation_ = ctx_.incarnation();
  queue_.clear();
  pulling_.clear();
  inflight_.clear();
  cancelled_.clear();
  puller_.clear();
}

void Server::on_request(util::UnpackBuffer& ub) {
  reincarnation_check();
  const Packet* pkt = ctx_.inbound_packet();
  Req r;
  r.call_id = ub.get_u64();
  r.client = ub.get_u32();
  r.service = ub.get_string();
  const std::uint64_t budget = ub.get_u64();
  const std::uint8_t flags = ub.get_u8();
  if ((flags & 1) != 0) {
    r.bulk.id = ub.get_u64();
    r.bulk.size = ub.get_u64();
  }
  if (pkt != nullptr && ub.remaining() > 0) {
    const std::size_t offset = pkt->payload.size() - ub.remaining();
    r.args = pkt->payload.view(offset, ub.remaining());  // zero-copy
  }
  r.deadline = budget != 0 ? ctx_.now() + static_cast<Time>(budget) : 0;
  r.trace = pkt != nullptr ? pkt->trace : 0;
  if (is_cancelled(r.client, r.call_id)) {
    // The cancel frame overtook its request (reordering across methods).
    cancelled_.erase({r.client, r.call_id});
    ++stats_.cancelled;
    return;
  }
  admit(std::move(r));
}

void Server::on_cancel(util::UnpackBuffer& ub) {
  const CallId id = ub.get_u64();
  const Packet* pkt = ctx_.inbound_packet();
  const ContextId client = pkt != nullptr ? pkt->src : kNoContext;
  if (ctx_.observing()) {
    ctx_.observe({ctx_.now(), 0, ctx_.id(), telemetry::Phase::RpcCancel, 0, 0,
                  id, 0, pkt != nullptr ? pkt->trace : 0});
  }
  // Bounded: entries are consumed when the matching call completes; cancels
  // for already-replied calls would otherwise pile up forever.
  if (cancelled_.size() >= 4096) cancelled_.clear();
  cancelled_.insert({client, id});
}

void Server::admit(Req r) {
  std::size_t& running = inflight_[r.service];
  if (running < max_inflight_) {
    ++running;
    ++stats_.accepted;
    begin(std::move(r));
    return;
  }
  if (!shed_ && queue_.size() < queue_cap_) {
    ++stats_.queued;
    queue_.push_back(std::move(r));
    return;
  }
  // Overload: typed Rejected reply instead of unbounded mailbox growth.
  ++stats_.rejected;
  ++cmetrics(ctx_).rpc_rejected;
  if (ctx_.observing()) {
    ctx_.observe({ctx_.now(), 0, ctx_.id(), telemetry::Phase::RpcReject, 0, 0,
                  r.call_id, 0, r.trace});
  }
  reply(r, CallStatus::Rejected,
        {}, shed_ ? "admission control shed the call (policy: shed)"
                  : "admission control shed the call (queue full)");
}

void Server::begin(Req r) {
  if (r.bulk.valid()) {
    ++stats_.bulk_transfers;
    const std::uint64_t key = ++next_pull_;
    const ContextId owner = r.client;
    const BulkHandle handle = r.bulk;
    const Time deadline = r.deadline;
    const std::uint64_t trace = r.trace;
    // Registered before start(): a zero-size transfer (or reentrant error
    // frame) completes synchronously through on_pull_done.
    pulling_.emplace(key, std::move(r));
    puller_.start(key, owner, handle, deadline, trace);
    return;
  }
  run_handler(std::move(r), {});
}

void Server::on_pull_done(std::uint64_t key, util::SharedBytes data, bool ok,
                          std::string err) {
  auto it = pulling_.find(key);
  if (it == pulling_.end()) return;
  Req r = std::move(it->second);
  pulling_.erase(it);
  if (!ok) {
    ++stats_.bulk_failures;
    reply(r, CallStatus::BulkError, {}, err);
    release_slot(r.service);
    return;
  }
  run_handler(std::move(r), std::move(data));
}

void Server::run_handler(Req r, util::SharedBytes bulk) {
  auto it = services_.find(r.service);
  if (it == services_.end()) {
    reply(r, CallStatus::HandlerError, {},
          "no such service: " + r.service);
    release_slot(r.service);
    return;
  }
  CallContext cc(ctx_, *this, r.client, r.call_id, r.service, r.args,
                 std::move(bulk), r.bulk.size, r.deadline);
  it->second(cc);
  ++stats_.completed;
  if (cc.replied()) {
    reply(r, CallStatus::Ok, cc.response_, "");
  } else if (is_cancelled(r.client, r.call_id)) {
    ++stats_.cancelled;
    reply(r, CallStatus::Cancelled, {}, "cancelled mid-handler");
  } else {
    reply(r, CallStatus::Ok, {}, "");  // void-returning handler
  }
  cancelled_.erase({r.client, r.call_id});
  release_slot(r.service);
}

void Server::release_slot(const std::string& service) {
  auto it = inflight_.find(service);
  if (it != inflight_.end() && it->second > 0) --it->second;
  pump_queue();
}

void Server::pump_queue() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto qit = queue_.begin(); qit != queue_.end(); ++qit) {
      if (qit->deadline != 0 && ctx_.now() >= qit->deadline) {
        // The client resolved this call locally already; a reply would
        // only count as late there.
        ++stats_.expired;
        queue_.erase(qit);
        progressed = true;
        break;
      }
      if (is_cancelled(qit->client, qit->call_id)) {
        ++stats_.cancelled;
        cancelled_.erase({qit->client, qit->call_id});
        queue_.erase(qit);
        progressed = true;
        break;
      }
      std::size_t& running = inflight_[qit->service];
      if (running < max_inflight_) {
        Req r = std::move(*qit);
        queue_.erase(qit);
        ++running;
        ++stats_.accepted;
        begin(std::move(r));
        progressed = true;
        break;
      }
    }
  }
}

void Server::service() {
  reincarnation_check();
  puller_.service();
  pump_queue();
}

void Server::reply(const Req& r, CallStatus status,
                   const util::SharedBytes& payload, std::string_view error) {
  util::PackBuffer pb(24 + payload.size());
  pb.put_u64(r.call_id);
  pb.put_u8(static_cast<std::uint8_t>(status));
  pb.put_string(error);
  pb.put_raw(payload.span());  // last field: the client views it zero-copy
  auto it = routes_.find(r.client);
  if (it == routes_.end()) {
    it = routes_.emplace(r.client, ctx_.world_startpoint(r.client)).first;
  }
  try {
    ctx_.rsr(it->second, Context::resolve_handler(kRepHandler), pb, r.trace);
  } catch (const util::MethodError&) {
    // Undeliverable reply: the client's deadline/peer-death detection
    // resolves the call; nothing to do here.
  }
  if (ctx_.observing()) {
    ctx_.observe({ctx_.now(), 0, ctx_.id(), telemetry::Phase::RpcReply, 0,
                  payload.size(), r.call_id, 0, r.trace});
  }
}

}  // namespace nexus::proto::rpc
