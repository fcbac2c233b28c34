#include "nexus/polling.hpp"

#include <algorithm>
#include <cassert>

#include "nexus/telemetry/export.hpp"
#include "nexus/telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace nexus {

void PollingEngine::attach_telemetry(telemetry::Telemetry& tele,
                                     std::uint32_t context_id) {
  tracer_ = &tele.tracer();
  flight_ = tele.flight(context_id);
  metrics_ = &tele.metrics();
  cmetrics_ = &tele.metrics().context(context_id);
  context_id_ = context_id;
}

void PollingEngine::add_module(CommModule& module, std::uint64_t skip) {
  Entry e;
  e.module = &module;
  e.cost = module.poll_cost();
  e.skip = std::max<std::uint64_t>(1, skip);
  entries_.push_back(e);
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.module->speed_rank() < b.module->speed_rank();
                   });
}

PollingEngine::Entry* PollingEngine::find(std::string_view method) {
  for (auto& e : entries_) {
    if (e.module->name() == method) return &e;
  }
  return nullptr;
}

const PollingEngine::Entry* PollingEngine::find(std::string_view method) const {
  for (const auto& e : entries_) {
    if (e.module->name() == method) return &e;
  }
  return nullptr;
}

void PollingEngine::set_skip(std::string_view method, std::uint64_t skip) {
  Entry* e = find(method);
  if (e == nullptr) {
    throw util::MethodError("set_skip: no module '" + std::string(method) +
                            "' in the polling set");
  }
  e->skip = std::max<std::uint64_t>(1, skip);
}

std::uint64_t PollingEngine::skip(std::string_view method) const {
  const Entry* e = find(method);
  if (e == nullptr) {
    throw util::MethodError("skip: no module '" + std::string(method) +
                            "' in the polling set");
  }
  return e->skip;
}

void PollingEngine::set_enabled(std::string_view method, bool enabled) {
  Entry* e = find(method);
  if (e == nullptr) {
    throw util::MethodError("set_enabled: no module '" + std::string(method) +
                            "' in the polling set");
  }
  e->enabled = enabled;
}

bool PollingEngine::enabled(std::string_view method) const {
  const Entry* e = find(method);
  return e != nullptr && e->enabled;
}

void PollingEngine::set_blocking(std::string_view method, bool on) {
  Entry* e = find(method);
  if (e == nullptr) {
    throw util::MethodError("set_blocking: no module '" + std::string(method) +
                            "' in the polling set");
  }
  if (on && !e->module->supports_blocking()) {
    throw util::MethodError("method '" + std::string(method) +
                            "' does not support a blocking poller");
  }
  e->blocking = on;
  if (on) e->skip = 1;
}

bool PollingEngine::blocking(std::string_view method) const {
  const Entry* e = find(method);
  return e != nullptr && e->blocking;
}

void PollingEngine::set_adaptive(std::string_view method, bool on,
                                 std::uint64_t miss_threshold,
                                 std::uint64_t max_skip) {
  Entry* e = find(method);
  if (e == nullptr) {
    throw util::MethodError("set_adaptive: no module '" + std::string(method) +
                            "' in the polling set");
  }
  e->adaptive = on;
  e->adaptive_threshold = std::max<std::uint64_t>(1, miss_threshold);
  e->adaptive_max = std::max<std::uint64_t>(1, max_skip);
  if (on) e->consecutive_misses = 0;
}

bool PollingEngine::poll_once() {
  // Handlers may perform RSRs, which re-enter poll_once; snapshot this
  // call's iteration number so nested calls cannot corrupt the skip checks
  // for the entries still to be visited.
  const std::uint64_t iter = ++iteration_;
  clock_->advance(per_iteration_overhead_);
  if (exporter_ != nullptr) exporter_->maybe_sample(clock_->now());
  const bool metrics_on = cmetrics_ != nullptr && metrics_->enabled();
  if (metrics_on) {
    // Sampled poll cadence: one clock read per kPollSampleEvery iterations,
    // recording the windowed mean interval.
    if (poll_sample_countdown_ == 0) {
      const Time tnow = clock_->now();
      if (last_sample_time_ > 0 && tnow > last_sample_time_) {
        cmetrics_->poll_interval_ns.add(
            static_cast<std::uint64_t>(tnow - last_sample_time_) /
            telemetry::kPollSampleEvery);
      }
      last_sample_time_ = tnow;
      poll_sample_countdown_ = telemetry::kPollSampleEvery;
    }
    --poll_sample_countdown_;
  }
  bool delivered = false;
  for (Entry& e : entries_) {
    if (!e.enabled) continue;
    if (iter % e.skip != 0) continue;
    clock_->advance(poll_cost_of(e));
    e.module->counters().polls += 1;
    bool hit = false;
    std::uint64_t drained = 0;
    while (auto pkt = e.module->poll()) {
      hit = true;
      // Receiver-side quarantine: a packet a fault rule damaged in flight
      // counts as a poll hit (the wire delivered bytes) but is never
      // dispatched.
      e.module->counters().poll_hits += 1;
      if (!e.module->accept_recv(*pkt)) continue;
      delivered = true;
      ++drained;
      // PollHit is transport detail, sampled only when span tracing is on
      // (the always-on flight path keeps to the causal/failure events).
      if (drained == 1 && tracer_ != nullptr && tracer_->enabled()) {
        const telemetry::Event ev{clock_->now(), pkt->span, context_id_,
                                  telemetry::Phase::PollHit,
                                  e.module->trace_label(), pkt->wire_size(),
                                  0, 0, pkt->trace};
        if (flight_ != nullptr && flight_->enabled()) flight_->record(ev);
        tracer_->record(ev);
      }
      sink_(std::move(*pkt), e.module);
    }
    if (drained > 0 && metrics_on) {
      cmetrics_->poll_batch.add(drained);
    }
    if (e.adaptive) {
      if (hit) {
        e.skip = 1;
        e.consecutive_misses = 0;
      } else if (++e.consecutive_misses >= e.adaptive_threshold) {
        e.consecutive_misses = 0;
        e.skip = std::min(e.skip * 2, e.adaptive_max);
      }
    }
  }
  return delivered;
}

bool PollingEngine::uniform_skip() const {
  return std::none_of(entries_.begin(), entries_.end(), [](const Entry& e) {
    return e.enabled && e.skip != 1;
  });
}

Time PollingEngine::full_iteration_cost() const {
  Time t = per_iteration_overhead_;
  for (const Entry& e : entries_) {
    if (e.enabled) t += poll_cost_of(e);
  }
  return t;
}

Time PollingEngine::cost_of_next(std::uint64_t n) const {
  Time t = static_cast<Time>(n) * per_iteration_overhead_;
  for (const Entry& e : entries_) {
    if (!e.enabled) continue;
    const std::uint64_t polls =
        (iteration_ + n) / e.skip - iteration_ / e.skip;
    t += static_cast<Time>(polls) * poll_cost_of(e);
  }
  return t;
}

std::uint64_t PollingEngine::detection_steps(const Entry& target,
                                             Time arrival) const {
  const Time now = clock_->now();
  const Time need = arrival > now ? arrival - now : 0;

  // Fast path: with every enabled method at skip 1 (the common case) each
  // iteration costs the same, so the detecting slot is a division instead
  // of a binary search over cost_of_next.
  if (uniform_skip()) {
    Time head = per_iteration_overhead_;
    for (const Entry& e : entries_) {
      if (!e.enabled) continue;
      head += poll_cost_of(e);
      if (&e == &target) break;
    }
    if (head >= need) return 1;
    const Time full = full_iteration_cost();
    if (full <= 0) {
      throw util::UsageError(
          "polling engine cannot make progress: zero-cost iterations while "
          "waiting for a future arrival");
    }
    return 1 + static_cast<std::uint64_t>((need - head + full - 1) / full);
  }

  // Cost from the start of iteration (iteration_ + n) up to and including
  // the poll of `target` within that iteration; n must be a poll slot of
  // `target`.
  auto cost_at_slot = [&](std::uint64_t n) -> Time {
    Time t = cost_of_next(n - 1) + per_iteration_overhead_;
    for (const Entry& e : entries_) {
      if (!e.enabled) continue;
      if ((iteration_ + n) % e.skip != 0) continue;
      t += poll_cost_of(e);
      if (&e == &target) break;
    }
    return t;
  };

  // Slots of `target` are at absolute iterations j * skip for j >= j0.
  const std::uint64_t skip = target.skip;
  const std::uint64_t j0 = iteration_ / skip + 1;
  auto n_of = [&](std::uint64_t j) { return j * skip - iteration_; };

  if (cost_at_slot(n_of(j0)) >= need) return n_of(j0);

  // Exponential search for an upper bound, then binary search.
  std::uint64_t lo = j0, hi = j0;
  std::uint64_t span = 1;
  while (cost_at_slot(n_of(hi)) < need) {
    lo = hi;
    hi += span;
    span *= 2;
    if (span > (1ull << 40)) {
      throw util::UsageError(
          "polling engine cannot make progress: zero-cost iterations while "
          "waiting for a future arrival");
    }
  }
  while (lo + 1 < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (cost_at_slot(n_of(mid)) >= need) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return n_of(hi);
}

void PollingEngine::credit_iterations(std::uint64_t n) {
  for (Entry& e : entries_) {
    if (!e.enabled) continue;
    e.module->counters().polls +=
        (iteration_ + n) / e.skip - iteration_ / e.skip;
  }
  iteration_ += n;
}

void PollingEngine::bulk_advance(std::uint64_t n) {
  if (n == 0) return;
  const Time dt = cost_of_next(n);
  credit_iterations(n);
  clock_->advance(dt);
}

bool PollingEngine::fast_forward() {
  std::uint64_t best_n = 0;
  bool found = false;
  for (const Entry& e : entries_) {
    if (!e.enabled) continue;
    const auto arrival = e.module->earliest_arrival();
    if (!arrival) continue;
    const std::uint64_t n = detection_steps(e, *arrival);
    if (!found || n < best_n) {
      best_n = n;
      found = true;
    }
  }
  if (!found) return false;
  // Advance through the iterations before the detecting one; the caller's
  // next poll_once() performs the detection itself.
  bulk_advance(best_n - 1);
  return true;
}

void PollingEngine::account_idle(Time dt) {
  if (dt <= 0 || cost_of_next(1) <= 0 || cost_of_next(1) > dt) return;
  std::uint64_t lo = 1, hi = 2;
  if (uniform_skip()) {
    // Constant per-iteration cost: the iteration count is a division.
    lo = static_cast<std::uint64_t>(dt / full_iteration_cost());
  } else {
    while (cost_of_next(hi) <= dt && hi < (1ull << 40)) {
      lo = hi;
      hi *= 2;
    }
    while (lo + 1 < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (cost_of_next(mid) <= dt) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  }
  credit_iterations(lo);
}

bool PollingEngine::satisfied(const std::function<bool()>& done) const {
  if (predicate_lock_ == nullptr) return done();
  std::lock_guard<std::recursive_mutex> lock(*predicate_lock_);
  return done();
}

void PollingEngine::wait(const std::function<bool()>& done) {
  for (;;) {
    const bool delivered = poll_once();
    if (satisfied(done)) return;
    if (delivered) continue;
    if (clock_->simulated()) {
      if (!fast_forward()) {
        // Nothing in flight toward this context: park until a post, then
        // credit the iterations a spinning engine would have performed.
        const Time t0 = clock_->now();
        clock_->idle_wait();
        account_idle(clock_->now() - t0);
      }
    } else {
      clock_->idle_wait();
    }
  }
}

}  // namespace nexus
