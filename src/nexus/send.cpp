// The send path (paper §3, docs/ARCHITECTURE.md §3.1): every packet a
// context originates or relays leaves through these Context members.
//
//   rsr() -> send_with_failover() -> ensure_connection() + send_attempt()
//   forward() ----------------------------------------> send_attempt()
//   probe_method() ------------------------------------> send_attempt()
//
// outbound_packet() builds every locally originated packet (an RSR, a
// dead-letter redelivery, the rebirth probe toward a declared-dead peer,
// and the adaptive probe); a relayed packet keeps the envelope it arrived
// with.  send_attempt() is the one place a packet meets CommModule::send:
// it counts the verdict, records the event, and feeds the health tracker,
// whose verdict drives failover, quarantine and peer death (§9, §14).
#include "nexus/context.hpp"

#include <algorithm>
#include <mutex>

#include "nexus/runtime.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace nexus {

namespace {
constexpr std::uint8_t kMaxForwardHops = 8;
}  // namespace

DeliveryStatus Context::rsr(Startpoint& sp, HandlerRef handler,
                            const util::PackBuffer& args,
                            std::uint64_t trace) {
  return rsr(sp, handler, util::SharedBytes::copy_of(args.bytes()), trace);
}

DeliveryStatus Context::rsr(Startpoint& sp, HandlerRef handler,
                            util::SharedBytes payload, std::uint64_t trace) {
  if (!sp.bound()) {
    throw util::UsageError("rsr on an unbound startpoint");
  }
  std::unique_lock<std::recursive_mutex> lock;
  if (rt_mutex_) lock = std::unique_lock<std::recursive_mutex>(*rt_mutex_);
  maybe_crash();

  ++rsrs_sent_;
  // One root span and one trace id per RSR: every link of a multicast shares
  // them, and forwarding nodes allocate child spans under the same trace, so
  // send and dispatch line up causally across contexts.  A caller-supplied
  // trace (the RPC layer) extends an existing causal chain instead.
  const bool obs = observing();
  const telemetry::SpanId span = obs ? next_span() : 0;
  if (trace == 0 && obs) trace = next_trace();
  DeliveryStatus worst = DeliveryStatus::Ok;
  for (auto& link : sp.links_) {
    // Unknown / never-registered target: report Dead instead of throwing
    // from deep inside the descriptor registry (group pseudo-contexts at or
    // above kGroupContextBase are real multicast addresses, not errors).
    if (link.context >= world_size() && link.context < kGroupContextBase) {
      ++cmetrics_->send_errors;
      worst = DeliveryStatus::Dead;
      continue;
    }
    // A declared-dead peer gets one attempt with the real payload (the
    // rebirth probe): success runs the rebirth path and this RSR is
    // delivered; failure parks it like an exhausted failover loop.
    const std::uint64_t attempts =
        retry_budget_ > 0 && is_peer_dead(link.context)
            ? 1
            : max_attempts(link.table);
    if (send_with_failover(sp, link, handler.id, payload, span, trace,
                           attempts) != DeliveryStatus::Ok) {
      deadletter(link, handler.id, payload, span, trace);
      if (worst == DeliveryStatus::Ok) worst = DeliveryStatus::Transient;
    }
  }
  // Paper §3.3: the polling function is called at least every time a Nexus
  // operation is performed.
  engine_->poll_once();
  return worst;
}

Packet Context::outbound_packet(ContextId dst, EndpointId endpoint,
                                HandlerId h, const util::SharedBytes& payload,
                                telemetry::SpanId span, std::uint64_t trace) {
  Packet pkt;
  pkt.src = id_;
  pkt.dst = dst;
  pkt.endpoint = endpoint;
  pkt.handler = h;
  pkt.payload = payload;  // aliases the caller's buffer: two atomic ops
  pkt.span = span;
  pkt.trace = trace;
  pkt.incarnation = incarnation_;
  if (adapt_enabled_) {
    // Piggyback any pending timing echo for this peer (docs §11): the
    // measurement the peer's model is waiting for rides home for free.
    if (auto e = cost_model_->take_echo(dst)) {
      pkt.adapt_method = e->method;
      pkt.adapt_bytes = e->bytes;
      pkt.adapt_oneway = e->oneway_ns;
    }
  }
  clock_->advance(costs_.rsr_send_overhead);
  pkt.sent_at = now();
  return pkt;
}

std::optional<HealthTracker::FailAction> Context::send_attempt(
    CommObject& conn, Packet pkt, ContextId target, telemetry::Event sent) {
  CommModule& m = conn.module();
  const SendResult r = m.send(conn, std::move(pkt));
  m.count_send(r);
  if (!r.ok()) {
    return note_send_failure(intern_method(m.name()), target, m.trace_label(),
                             r.status, sent.span, sent.trace);
  }
  if (observing()) {
    sent.when = now();
    sent.context = id_;
    sent.label = m.trace_label();
    sent.size = r.wire;
    observe(sent);
  }
  if (!health_.empty()) {
    note_send_success(intern_method(m.name()), target, m.trace_label(),
                      sent.span, sent.trace);
  }
  return std::nullopt;
}

void Context::note_send_success(MethodId mid, ContextId target,
                                std::uint16_t trace_label,
                                telemetry::SpanId span, std::uint64_t trace) {
  const MethodHealth prev = health_.status(mid, target, now()).state;
  if (!health_.on_success(mid, target)) return;
  if (prev == MethodHealth::Dead || prev == MethodHealth::Probation) {
    // A restore probe succeeded: the quarantined method is back in use.
    ++cmetrics_->restores;
    if (observing()) {
      observe({now(), span, id_, telemetry::Phase::Restore, trace_label, 0,
               target, 0, trace});
    }
  }
  // Rebirth: any successful send to a declared-dead peer un-declares it and
  // drains its parked dead letters.
  if (!dead_peers_.empty() && dead_peers_.erase(target) != 0) {
    ++cmetrics_->peer_reborns;
    if (observing()) {
      observe({now(), span, id_, telemetry::Phase::PeerReborn, trace_label, 0,
               target, 0, trace});
    }
    redeliver_deadletters(target);
  }
}

HealthTracker::FailAction Context::note_send_failure(MethodId mid,
                                                     ContextId target,
                                                     std::uint16_t trace_label,
                                                     DeliveryStatus status,
                                                     telemetry::SpanId span,
                                                     std::uint64_t trace) {
  const MethodHealth prev = health_.status(mid, target, now()).state;
  const HealthTracker::FailAction action = health_.on_failure(
      mid, target, now(), /*hard=*/status == DeliveryStatus::Dead);
  if (prev == MethodHealth::Healthy) {
    ++cmetrics_->suspects;
    if (observing()) {
      observe({now(), span, id_, telemetry::Phase::Suspect, trace_label, 0,
               target, 0, trace});
    }
  }
  if (action == HealthTracker::FailAction::Failover) {
    ++cmetrics_->failovers;
    if (observing()) {
      observe({now(), span, id_, telemetry::Phase::Failover, trace_label, 0,
               target, 0, trace});
    }
    // A quarantine is one of the flight recorder's dump triggers: the
    // post-mortem should show what led up to the method being declared
    // dead.  No-op unless a flight dir is configured.
    tele_->dump_flight("quarantine");
    // Escalation: a quarantine may have been the last method standing.
    maybe_declare_peer_dead(target);
  }
  return action;
}

DeliveryStatus Context::send_with_failover(Startpoint& sp,
                                           Startpoint::Link& link, HandlerId h,
                                           const util::SharedBytes& payload,
                                           telemetry::SpanId span,
                                           std::uint64_t trace,
                                           std::uint64_t attempts) {
  std::uint64_t failures = 0;
  for (;;) {
    ensure_connection(sp, link, payload.size());
    // The Packet is rebuilt per attempt (send() consumes it even on failure);
    // construction is cheap and the payload buffer is aliased, never copied.
    const auto failed = send_attempt(
        *link.conn,
        outbound_packet(link.context, link.endpoint, h, payload, span, trace),
        link.context,
        {.span = span, .phase = telemetry::Phase::Send, .aux = link.context,
         .trace = trace});
    if (!failed) {
      if (failures > 0 && tele_->metrics().enabled()) {
        cmetrics_->rsr_retries.add(failures);
      }
      return DeliveryStatus::Ok;
    }
    ++failures;
    if (failures >= attempts) {
      if (retry_budget_ > 0) {
        // Dead-letter discipline (docs §14): hand the verdict back so the
        // caller parks the RSR instead of retrying forever or throwing.
        evict_connection(link);
        return DeliveryStatus::Dead;
      }
      throw util::MethodError(
          "rsr to context " + std::to_string(link.context) + " failed " +
          std::to_string(failures) + " times across every applicable method");
    }
    if (sp.forced_method()) {
      if (*failed == HealthTracker::FailAction::Failover) {
        throw util::MethodError(
            "forced method '" + *sp.forced_method() + "' to context " +
            std::to_string(link.context) +
            " was declared dead (failover is disabled while a method is "
            "forced)");
      }
      continue;  // transient: retry the forced method
    }
    if (*failed == HealthTracker::FailAction::Retry) continue;
    // Failover: drop the dead connection and let selection pick the next
    // applicable method (the health gate now excludes the quarantined one).
    const MethodId mid = intern_method(link.selected_method);
    selection_log_.push_back(SelectionRecord{
        link.context, link.selected_method,
        "failover: method declared dead after " +
            std::to_string(health_.status(mid, link.context, now()).failures) +
            " failures",
        now()});
    evict_connection(link);
  }
}

void Context::deadletter(const Startpoint::Link& link, HandlerId h,
                         const util::SharedBytes& payload,
                         telemetry::SpanId span, std::uint64_t trace) {
  if (deadletters_.size() >= deadletter_cap_) {
    deadletters_.pop_front();  // bounded queue: oldest letter is dropped
    ++cmetrics_->deadletter_drops;
  }
  deadletters_.push_back(
      DeadLetter{link.context, link.endpoint, h, payload, retry_budget_});
  ++cmetrics_->deadletters;
  if (observing()) {
    observe({now(), span, id_, telemetry::Phase::Deadletter, 0,
             payload.size(), link.context, 0, trace});
  }
}

void Context::maybe_declare_peer_dead(ContextId target) {
  if (target == id_ || target >= world_size()) return;
  if (dead_peers_.find(target) != dead_peers_.end()) return;
  // Down only when EVERY applicable method to the peer has been raw-Dead
  // (no Probation derivation -- an expired backoff means "will probe", not
  // "recovered") continuously for at least the grace period.
  const DescriptorTable& table = runtime_->table_of(target);
  bool any_applicable = false;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const CommDescriptor& d = table.at(i);
    CommModule* m = module(d.method);
    if (m == nullptr || !m->applicable(d)) continue;
    any_applicable = true;
    const HealthTracker::Status s =
        health_.raw_status(intern_method(d.method), d.context);
    if (s.state != MethodHealth::Dead || s.died_at == 0 ||
        s.died_at + peer_grace_ > now()) {
      return;
    }
  }
  if (!any_applicable) return;
  dead_peers_.insert(target);
  ++cmetrics_->peer_deaths;
  if (observing()) {
    observe({now(), 0, id_, telemetry::Phase::PeerDead, 0, 0, target});
  }
  // Peer death is a flight-recorder dump trigger: the post-mortem should
  // show the failure cascade that killed every method.
  tele_->dump_flight("peer-death");
  // Evict everything cached about the dead peer: connections, forwarding
  // routes, and cost-model rows (measurements of its previous life would
  // poison selection for its next incarnation).
  std::erase_if(connections_,
                [target](const auto& kv) { return kv.first.second == target; });
  forward_routes_.erase(target);
  cost_model_->evict_peer(target);
}

void Context::redeliver_deadletters(ContextId target) {
  if (deadletters_.empty()) return;
  std::deque<DeadLetter> mine;
  std::erase_if(deadletters_, [&](DeadLetter& dl) {
    if (dl.target != target) return false;
    mine.push_back(std::move(dl));
    return true;
  });
  for (DeadLetter& dl : mine) {
    if (dl.budget == 0) {
      ++cmetrics_->deadletter_drops;
      continue;
    }
    --dl.budget;
    Startpoint sp;
    Startpoint::Link link;
    link.context = dl.target;
    link.endpoint = dl.endpoint;
    link.table = runtime_->table_of(dl.target);
    sp.links_.push_back(std::move(link));
    Startpoint::Link& l = sp.links_[0];
    const bool obs = observing();
    const telemetry::SpanId span = obs ? next_span() : 0;
    const std::uint64_t trace = obs ? next_trace() : 0;
    if (send_with_failover(sp, l, dl.handler, dl.payload, span, trace,
                           max_attempts(l.table)) == DeliveryStatus::Ok) {
      ++cmetrics_->deadletter_redeliveries;
    } else if (dl.budget == 0) {
      ++cmetrics_->deadletter_drops;
    } else if (deadletters_.size() >= deadletter_cap_) {
      ++cmetrics_->deadletter_drops;
    } else {
      deadletters_.push_back(std::move(dl));
    }
  }
}

void Context::ensure_connection(const Startpoint& sp, Startpoint::Link& link,
                                std::uint64_t payload_bytes) {
  if (adapt_enabled_) maybe_rerank(link);
  if (link.conn) {
    if (link.degraded && now() >= link.reprobe_at) {
      // A quarantined entry's backoff has expired: re-run selection so the
      // restored method can win the link back (the next send is its probe).
      // The existing connection stays in the cache -- if selection picks the
      // same method again, cached_connection returns it unchanged.
      link.clear_selection();
    } else if (selector_->payload_aware() && !sp.forced_method()) {
      // Payload-aware policies re-decide per RSR: the selector's cached
      // per-(peer, class) decision makes this a cheap check, and the link
      // only swaps connections when the class winner actually differs.
      std::string reason;
      const auto idx =
          selector_->select_sized(link.table, *this, payload_bytes, reason);
      if (idx) {
        if (link.table.at(*idx).method != link.selected_method) {
          adopt_selection(link, *idx, std::move(reason));
        }
        return;
      }
      // Nothing usable right now (e.g. everything quarantined): fall
      // through to the cold path's quarantined_fallback handling.
      link.clear_selection();
    } else {
      return;
    }
  }
  std::string reason;
  std::optional<std::size_t> idx;
  if (sp.forced_method()) {
    const std::string& method = *sp.forced_method();
    idx = link.table.find(method);
    if (!idx) {
      throw util::MethodError("forced method '" + method +
                              "' is not in the link's descriptor table");
    }
    CommModule* m = module(method);
    if (m == nullptr || !m->applicable(link.table.at(*idx))) {
      throw util::MethodError("forced method '" + method +
                              "' is not applicable from context " +
                              std::to_string(id_) + " to context " +
                              std::to_string(link.context));
    }
    reason = "forced by application";
  } else {
    idx = selector_->select_sized(link.table, *this, payload_bytes, reason);
    if (idx && reason.empty()) reason = "cached per-peer decision";
    if (!idx) {
      idx = quarantined_fallback(link.table);
      if (idx) {
        reason = "all applicable methods quarantined; probing the entry "
                 "whose backoff expires soonest";
      }
    }
    if (!idx) {
      throw util::MethodError(
          "no applicable communication method from context " +
          std::to_string(id_) + " to context " + std::to_string(link.context));
    }
  }
  adopt_selection(link, *idx, std::move(reason));
}

void Context::adopt_selection(Startpoint::Link& link, std::size_t idx,
                              std::string reason) {
  const CommDescriptor& d = link.table.at(idx);
  link.conn = cached_connection(d);
  link.selected_method = d.method;
  refresh_link_degradation(link, idx);
  if (observing()) {
    observe({now(), 0, id_, telemetry::Phase::Select,
             link.conn->module().trace_label(), idx, link.context});
  }
  if (!reason.empty()) {
    selection_log_.push_back(
        SelectionRecord{link.context, d.method, std::move(reason), now()});
  }
}

std::shared_ptr<CommObject> Context::cached_connection(
    const CommDescriptor& d) {
  const auto key = std::make_pair(intern_method(d.method), d.context);
  auto it = connections_.find(key);
  if (it != connections_.end()) return it->second;
  CommModule* m = module(d.method);
  if (m == nullptr) {
    throw util::MethodError("method '" + d.method +
                            "' is not loaded in context " +
                            std::to_string(id_));
  }
  auto conn = std::shared_ptr<CommObject>(m->connect(d));
  connections_.emplace(key, conn);
  return conn;
}

void Context::evict_connection(Startpoint::Link& link) {
  if (link.conn) drop_connection(link.conn);
  link.clear_selection();
}

void Context::drop_connection(const std::shared_ptr<CommObject>& conn) {
  // Purge every cache entry sharing the dead connection: the (method,
  // context) connection cache, and any forwarding routes that would keep
  // resurrecting it.
  std::erase_if(connections_,
                [&](const auto& kv) { return kv.second == conn; });
  std::erase_if(forward_routes_,
                [&](const auto& kv) { return kv.second == conn; });
}

bool Context::method_usable(const CommDescriptor& d) {
  CommModule* m = module(d.method);
  if (m == nullptr || !m->applicable(d)) return false;
  return health_.empty() || health_usable(d);
}

bool Context::health_usable(const CommDescriptor& d) {
  return health_.usable(intern_method(d.method), d.context, now());
}

HealthTracker::Status Context::method_health(std::string_view method,
                                             ContextId target) {
  return health_.status(intern_method(method), target, now());
}

std::optional<std::size_t> Context::quarantined_fallback(
    const DescriptorTable& table) {
  // Everything applicable is quarantined.  Dropping the RSR would turn a
  // transient outage into data loss, so probe the entry whose backoff
  // expires soonest (least-recently-declared-dead) instead.
  std::optional<std::size_t> best;
  Time best_retry = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const CommDescriptor& d = table.at(i);
    CommModule* m = module(d.method);
    if (m == nullptr || !m->applicable(d)) continue;
    const Time retry =
        health_.status(intern_method(d.method), d.context, now()).retry_at;
    if (!best || retry < best_retry) {
      best = i;
      best_retry = retry;
    }
  }
  return best;
}

void Context::refresh_link_degradation(Startpoint::Link& link,
                                       std::size_t winner) {
  link.degraded = false;
  link.reprobe_at = 0;
  if (health_.empty()) return;
  for (std::size_t i = 0; i < link.table.size(); ++i) {
    if (i == winner) continue;
    const CommDescriptor& d = link.table.at(i);
    CommModule* m = module(d.method);
    if (m == nullptr || !m->applicable(d)) continue;
    if (health_usable(d)) continue;
    const Time retry =
        health_.status(intern_method(d.method), d.context, now()).retry_at;
    if (!link.degraded || retry < link.reprobe_at) {
      link.degraded = true;
      link.reprobe_at = retry;
    }
  }
}

void Context::forward(Packet pkt) {
  // This context is acting as a forwarding node (paper §3.3): re-send the
  // packet toward its true destination over the best local method.
  // A relay must never fault its own process over traffic it merely
  // carries: an undeliverable packet (hop bound hit, destination's methods
  // all dead -- e.g. a crash window) is dropped and counted like any other
  // sender-side protocol error, and the *sender's* detectors (deadlines,
  // peer death) report the loss.  Mirrors the unknown-handler contract in
  // deliver().
  auto drop_relayed = [&](const char* why) {
    ++cmetrics_->send_errors;
    if (observing()) {
      observe({now(), pkt.span, id_, telemetry::Phase::Drop, 0,
               pkt.payload.size(), pkt.dst, 0, pkt.trace});
    }
    util::log_warn("forward", "context " + std::to_string(id_) +
                                  " dropped a relayed packet to context " +
                                  std::to_string(pkt.dst) + " (" + why + ")");
  };
  if (++pkt.hops > kMaxForwardHops) {
    drop_relayed("hop bound");
    return;
  }
  clock_->advance(costs_.dispatch_overhead);
  // Steady-state forwarding resolves the route (selection + connection)
  // once per destination; the cache is invalidated whenever the selection
  // policy or poll configuration changes, and evicted on failover.
  //
  // Causal tracing: each forwarding hop is a child span of the span the
  // packet arrived with, so a stitched trace shows the chain
  // root -> hop1 -> hop2 -> dispatch.  The packet is restamped with the
  // child span before re-sending; the trace id rides along unchanged.
  const telemetry::SpanId parent = pkt.span;
  const std::uint64_t trace = pkt.trace;
  const bool obs = observing() && parent != 0;
  const telemetry::SpanId span = obs ? next_span() : parent;
  pkt.span = span;
  const ContextId dst = pkt.dst;
  // A draining forwarder hands its relay duty to the sibling: the packet's
  // next hop becomes the sibling (pkt.dst is untouched, so the sibling
  // forwards it onward; kMaxForwardHops bounds any mis-configured loop).
  const ContextId via = (draining_ && drain_sibling_ != kNoContext &&
                         drain_sibling_ != dst && drain_sibling_ != id_)
                            ? drain_sibling_
                            : dst;
  const DescriptorTable& full = runtime_->table_of(via);
  const std::uint64_t attempts = max_attempts(full);
  // Descriptors that land back on this relay (the destination's tcp-class
  // entry names its partition forwarder -- us) are excluded from relay
  // selection: when the direct methods die, failover must not pick the
  // route through ourselves and ping-pong the packet into the hop bound.
  std::optional<DescriptorTable> filtered;
  auto relay_table = [&]() -> const DescriptorTable& {
    if (!filtered) {
      std::vector<CommDescriptor> usable;
      for (const CommDescriptor& d : full.entries()) {
        CommModule* m = module(d.method);
        if (m != nullptr && m->landing_context(d) == id_) continue;
        usable.push_back(d);
      }
      filtered.emplace(std::move(usable));
    }
    return *filtered;
  };
  std::uint64_t failures = 0;
  for (;;) {
    std::shared_ptr<CommObject> conn;
    if (auto cached = forward_routes_.find(via);
        cached != forward_routes_.end()) {
      conn = cached->second;
    } else {
      const DescriptorTable& table = relay_table();
      std::string reason;
      auto idx = selector_->select(table, *this, reason);
      if (!idx) idx = quarantined_fallback(table);
      if (!idx) {
        drop_relayed("no applicable relay method");
        return;
      }
      conn = cached_connection(table.at(*idx));
      forward_routes_.emplace(via, conn);
    }
    // Each attempt copies the packet (a SharedBytes refcount bump, no byte
    // copy) because send() consumes its argument even when delivery fails.
    const auto failed = send_attempt(
        *conn, pkt, via,
        {.span = span, .phase = telemetry::Phase::Forward, .aux = dst,
         .parent = parent, .trace = trace});
    if (!failed) return;
    if (++failures >= attempts) {
      drop_relayed("every relay method exhausted");
      return;
    }
    // Evict the dead route and connection; the next iteration re-selects
    // with the quarantined method excluded by the health gate.
    if (*failed == HealthTracker::FailAction::Failover) drop_connection(conn);
  }
}

void Context::probe_method(const CommDescriptor& d) {
  // Group pseudo-contexts and self-loops are never probed.
  if (d.context == id_ || d.context >= world_size()) return;
  CommModule* m = module(d.method);
  if (m == nullptr || !m->applicable(d)) return;
  auto conn = cached_connection(d);
  util::PackBuffer pb;
  pb.put_u32(id_);
  // A failed probe is a real delivery failure: it walks the method towards
  // quarantine exactly like an application send would, which is what keeps
  // a dead method from being re-probed at full rate.
  send_attempt(*conn,
               outbound_packet(d.context, kRootEndpointId,
                               resolve_handler("adapt.probe"),
                               util::SharedBytes::copy_of(pb.bytes()), 0, 0),
               d.context,
               {.phase = telemetry::Phase::AdaptProbe, .aux = d.context});
  ++cmetrics_->adapt_probes;
}

}  // namespace nexus
