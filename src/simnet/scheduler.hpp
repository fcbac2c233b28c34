// Conservative discrete-event scheduler for SimProcesses.
//
// Dispatch rule: fire all wake timers that are due, then hand the baton to
// the runnable process with the smallest virtual clock (least-recently
// dispatched among ties).  A dispatched process receives a *horizon* --
// min(clocks of other runnable processes that are strictly ahead, earliest
// pending timer) -- and may advance its clock freely below it without any
// scheduler interaction, which makes tight poll loops nearly free.
//
// Tie handling: processes whose clocks are exactly equal are unordered; the
// dispatched one may run ahead of an equal-clock peer by at most the
// scheduler's *tie window* before yielding, which guarantees both progress
// (no zero-advance livelock) and fairness (a spinning process cannot starve
// a runnable peer).  Events a process would have observed inside that
// window may be detected up to one window late -- bounded error mirroring
// the nondeterminism of real concurrent hardware.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "simnet/process.hpp"
#include "simnet/time.hpp"
#include "util/error.hpp"

namespace nexus::simnet {

/// Thrown when every live process is blocked and no timers are pending.
class DeadlockError : public util::Error {
 public:
  explicit DeadlockError(const std::string& what)
      : util::Error("simnet deadlock: " + what) {}
};

/// Thrown inside process threads when the scheduler shuts down early (e.g.
/// another process raised an exception); unwinds the user stack cleanly.
struct SimAborted {};

/// Verdict an ExternalSource returns when a scheduler shard goes idle.
enum class ExternalIdle {
  Woken,       ///< new external traffic may have landed; re-enter the loop
  Terminated,  ///< the whole shard group is provably done
  Aborted,     ///< another shard failed; unwind without raising locally
};

/// Hook a sharded fabric installs on each shard's scheduler so the run loop
/// can (a) ingest cross-shard traffic and (b) distinguish "this shard is
/// idle" from "the whole simulation is done".  All methods are invoked on
/// the scheduler's own thread, or on the thread of the process it has
/// dispatched (drain() only); the baton guarantees the two never overlap.
class ExternalSource {
 public:
  virtual ~ExternalSource() = default;

  /// Deliver pending external traffic into local mailboxes/timers.  Called
  /// at the top of every scheduler iteration and whenever the dispatched
  /// process advances its clock.  Returns true if anything was delivered.
  virtual bool drain() = 0;

  /// Called when the shard has no runnable process and no pending timer.
  /// `locally_done` is true when every local process Finished (as opposed
  /// to some still Blocked).  Expected to block until traffic arrives or
  /// the group terminates.
  virtual ExternalIdle idle(bool locally_done) = 0;
};

class Scheduler {
 public:
  Scheduler() = default;
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Create a process.  Its thread starts immediately but the user function
  /// does not run until run() dispatches it.
  SimProcess& spawn(std::string name, std::function<void()> fn);

  /// Run to completion of all processes.  Rethrows the first process
  /// exception; throws DeadlockError if everything blocks.
  void run();

  /// Schedule a wake for `proc` at virtual time `t`.  If the target is
  /// blocked when the timer fires, it becomes runnable with clock >= t.
  /// Callable from process threads (e.g. on message post) or from outside.
  void wake_at(SimProcess& proc, Time t);

  /// Earliest pending timer, or kInfinity.
  Time next_timer() const;

  /// Monotone fire frontier: every timer with when <= fired_until() has been
  /// popped (fired or dropped).  A caller that armed a timer at t can test
  /// `t > fired_until()` to learn whether it is still pending, which lets
  /// mailboxes skip arming duplicate wakes for traffic already covered by an
  /// earlier unfired timer.
  Time fired_until() const noexcept { return fired_until_; }

  std::size_t process_count() const noexcept { return procs_.size(); }
  SimProcess& process(std::size_t i) { return *procs_.at(i); }

  /// True once run() has finished or shutdown began.
  bool shutting_down() const noexcept { return shutdown_; }

  /// Maximum overrun past an equal-clock peer (must be > 0).
  void set_tie_window(Time w) { tie_window_ = w > 0 ? w : 1; }
  Time tie_window() const noexcept { return tie_window_; }

  /// Which shard this scheduler drives (0 in single-shard runs).  Only used
  /// to label diagnostics -- a DeadlockError names the blocked contexts
  /// *and* the shard they were stranded on.
  void set_shard_index(std::size_t i) noexcept { shard_index_ = i; }
  std::size_t shard_index() const noexcept { return shard_index_; }

  /// Install a cross-shard traffic source (sharded runs only; see
  /// ExternalSource).  With a source installed, run() consults it instead
  /// of raising DeadlockError / returning when the shard goes locally idle.
  /// Must be called before run(); the source must outlive the scheduler's
  /// run() call.
  void set_external_source(ExternalSource* src) { external_ = src; }

 private:
  friend class SimProcess;

  struct Timer {
    Time when;
    std::uint64_t seq;
    SimProcess* proc;
    bool operator>(const Timer& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  /// Fire all timers with when <= t (wakes blocked targets).
  void fire_timers_until(Time t);

  /// Deliver pending cross-shard traffic (sharded runs; no-op otherwise).
  void drain_external() {
    if (external_ != nullptr) external_->drain();
  }

  /// Horizon for a process about to be dispatched.
  Time horizon_for(const SimProcess& p) const;

  /// Resume all parked threads with the abort flag so they unwind.
  void shutdown();

  std::vector<std::unique_ptr<SimProcess>> procs_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  std::uint64_t timer_seq_ = 0;
  Time fired_until_ = -kInfinity;
  std::uint64_t dispatch_seq_ = 0;
  Time tie_window_ = 50 * kUs;
  std::vector<std::uint64_t> last_dispatch_;  ///< per-process, for LRU ties
  ExternalSource* external_ = nullptr;
  std::size_t shard_index_ = 0;
  bool shutdown_ = false;
  bool running_ = false;
};

}  // namespace nexus::simnet
