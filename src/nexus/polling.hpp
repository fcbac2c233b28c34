// The unified polling engine (paper §3.3).
//
// One polling function iterates over every registered communication
// method.  Because poll costs differ wildly between methods (an MPL probe
// is ~15 us, a TCP select is 100+ us), the engine supports a per-method
// *skip_poll* parameter: a method with skip s is polled only on every s-th
// iteration.  Methods can also be disabled entirely (the paper's "selective
// TCP" best case, and the forwarding configuration where only the
// forwarding node polls TCP), or handed to a dedicated blocking poller
// thread where supported.
//
// Under the simulated fabric, idle waits are fast-forwarded analytically:
// the engine computes the exact iteration at which the next pending message
// would be *detected* -- respecting each method's skip schedule -- and
// advances the virtual clock there in one step instead of spinning.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "nexus/clock.hpp"
#include "nexus/module.hpp"
#include "nexus/types.hpp"

namespace nexus {

namespace telemetry {
class Telemetry;
class Tracer;
class FlightRecorder;
class MetricsExporter;
}

class PollingEngine {
 public:
  /// `sink` receives every packet the engine pulls off a module, along
  /// with the module it arrived through (the adaptive cost model uses the
  /// module to attribute one-way timing samples).
  PollingEngine(ContextClock& clock,
                std::function<void(Packet, CommModule*)> sink,
                Time per_iteration_overhead = 0, Time blocking_check_cost = 0)
      : clock_(&clock),
        sink_(std::move(sink)),
        per_iteration_overhead_(per_iteration_overhead),
        blocking_check_cost_(blocking_check_cost) {}

  /// Register a module; entries are kept sorted fastest-first (by
  /// speed_rank) so cheap methods are polled at the front of the loop.
  void add_module(CommModule& module, std::uint64_t skip = 1);

  /// Attach the runtime's observability bundle (called by the owning
  /// context at construction).  When attached, poll_once samples the poll
  /// cadence into the context's metrics and records poll-hit trace events.
  void attach_telemetry(telemetry::Telemetry& tele, std::uint32_t context_id);

  /// Attach a metrics exporter: poll_once gives it a chance to take a
  /// periodic snapshot (one relaxed atomic load when no sample is due).
  void set_exporter(telemetry::MetricsExporter* exporter) {
    exporter_ = exporter;
  }

  /// Realtime fabric: the context lock under which blocking-poller threads
  /// run handlers.  wait() evaluates its predicate under it, so state those
  /// handlers write is read race-free.
  void set_predicate_lock(std::recursive_mutex* lock) {
    predicate_lock_ = lock;
  }

  /// Per-method skip_poll control.
  void set_skip(std::string_view method, std::uint64_t skip);
  std::uint64_t skip(std::string_view method) const;

  /// Enable/disable polling a method altogether.
  void set_enabled(std::string_view method, bool enabled);
  bool enabled(std::string_view method) const;

  /// Hand a method to a (modelled) blocking poller thread: it stays in the
  /// loop but costs only a cheap readiness check per iteration instead of
  /// its full poll cost, approximating a dedicated thread that has already
  /// performed the expensive blocking call.  Forces skip back to 1.
  void set_blocking(std::string_view method, bool on);
  bool blocking(std::string_view method) const;

  /// Adaptive skip_poll (paper future work §6): when enabled for a method,
  /// its skip is doubled after each run of `miss_threshold` consecutive
  /// empty polls (up to `max_skip`) and reset to 1 on any hit.
  void set_adaptive(std::string_view method, bool on,
                    std::uint64_t miss_threshold = 8,
                    std::uint64_t max_skip = 4096);

  /// One iteration of the unified polling function.  Returns true if any
  /// packet was delivered to the sink.
  bool poll_once();

  /// Poll until `done()` returns true.  Fast-forwards idle periods under
  /// the simulated fabric; parks on the activity channel otherwise.
  void wait(const std::function<bool()>& done);

  /// Total iterations of the unified polling function so far.
  std::uint64_t iterations() const noexcept { return iteration_; }

  /// Cost of one full iteration with every enabled module polled (used by
  /// benchmark reporting).
  Time full_iteration_cost() const;

 private:
  struct Entry {
    CommModule* module = nullptr;
    /// module->poll_cost(), cached at registration: the cost is a fixed
    /// parameter of the method, and the fast-forward binary search calls
    /// poll_cost_of millions of times per run.
    Time cost = 0;
    std::uint64_t skip = 1;
    bool enabled = true;
    bool blocking = false;
    bool adaptive = false;
    std::uint64_t adaptive_threshold = 8;
    std::uint64_t adaptive_max = 4096;
    std::uint64_t consecutive_misses = 0;
  };

  Entry* find(std::string_view method);
  const Entry* find(std::string_view method) const;

  /// Per-poll cost of an entry (cheap check when blocking-serviced).
  Time poll_cost_of(const Entry& e) const {
    return e.blocking ? blocking_check_cost_ : e.cost;
  }

  /// Virtual time consumed by iterations (iteration_, iteration_ + n].
  Time cost_of_next(std::uint64_t n) const;

  /// Smallest n >= 1 such that iteration_ + n polls `e` and lands at or
  /// after absolute time `arrival`.  Returns n.
  std::uint64_t detection_steps(const Entry& e, Time arrival) const;

  /// True when every enabled method is polled on every iteration (each
  /// iteration then costs the same).
  bool uniform_skip() const;

  /// Count n iterations' worth of polls on every enabled method (per its
  /// skip schedule) and move the iteration counter past them.
  void credit_iterations(std::uint64_t n);

  /// Advance clock and counters through n iterations without touching the
  /// modules' queues (they are known to be empty until then); notifies
  /// modules of skipped polls so side effects (interference penalties)
  /// still apply.
  void bulk_advance(std::uint64_t n);

  /// done(), under the predicate lock when one is set.
  bool satisfied(const std::function<bool()>& done) const;

  /// Returns false when no module knows a pending arrival.
  bool fast_forward();

  /// After an idle block of `dt` virtual time, credit the iterations the
  /// engine would have spun through, so the skip schedule's phase and the
  /// poll counters match a continuously-spinning engine.
  void account_idle(Time dt);

  ContextClock* clock_;
  std::function<void(Packet, CommModule*)> sink_;
  Time per_iteration_overhead_;
  Time blocking_check_cost_;
  std::vector<Entry> entries_;
  std::uint64_t iteration_ = 0;
  std::recursive_mutex* predicate_lock_ = nullptr;

  // Observability (see attach_telemetry).  Poll intervals are sampled as
  // the windowed mean over kPollSampleEvery iterations so the per-poll
  // overhead stays at one counter increment when metrics are on.
  telemetry::Tracer* tracer_ = nullptr;
  telemetry::FlightRecorder* flight_ = nullptr;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::ContextMetrics* cmetrics_ = nullptr;
  telemetry::MetricsExporter* exporter_ = nullptr;
  std::uint32_t context_id_ = 0;
  std::uint64_t poll_sample_countdown_ = 0;
  Time last_sample_time_ = 0;
};

}  // namespace nexus
