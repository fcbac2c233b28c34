#include "simnet/process.hpp"

#include <algorithm>
#include <cassert>

#include "simnet/scheduler.hpp"

namespace nexus::simnet {

namespace {
thread_local SimProcess* t_current = nullptr;
}

SimProcess* SimProcess::current() noexcept { return t_current; }

SimProcess::SimProcess(Scheduler& sched, std::uint32_t id, std::string name,
                       std::function<void()> fn)
    : sched_(sched),
      id_(id),
      name_(std::move(name)),
      fn_(std::move(fn)),
      thread_([this] { thread_main(); }) {}

SimProcess::~SimProcess() {
  if (thread_.joinable()) {
    abort_and_join();
  }
}

void SimProcess::thread_main() {
  t_current = this;
  {
    // Park until the scheduler dispatches us for the first time.
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return baton_; });
  }
  if (!abort_) {
    try {
      fn_();
    } catch (const SimAborted&) {
      // Scheduler-initiated unwind; not an error.
    } catch (...) {
      error_ = std::current_exception();
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  state_ = State::Finished;
  baton_ = false;
  cv_.notify_all();
}

void SimProcess::resume(Time horizon) {
  std::unique_lock<std::mutex> lock(mutex_);
  assert(state_ == State::Runnable);
  horizon_ = horizon;
  state_ = State::Running;
  baton_ = true;
  cv_.notify_all();
  cv_.wait(lock, [&] { return !baton_; });
}

void SimProcess::switch_out(State next) {
  std::unique_lock<std::mutex> lock(mutex_);
  state_ = next;
  baton_ = false;
  cv_.notify_all();
  cv_.wait(lock, [&] { return baton_; });
  if (abort_) throw SimAborted{};
  // state_ was set to Running by resume().
}

void SimProcess::wake(Time t) {
  // Called from the scheduler thread while this process is parked.
  std::lock_guard<std::mutex> lock(mutex_);
  assert(state_ == State::Blocked);
  clock_ = std::max(clock_, t);
  state_ = State::Runnable;
}

void SimProcess::abort_and_join() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    abort_ = true;
    baton_ = true;
    cv_.notify_all();
  }
  thread_.join();
}

void SimProcess::advance(Time dt) {
  assert(t_current == this && "advance() must run on the process thread");
  assert(dt >= 0);
  const Time target = clock_ + dt;
  // Sharded runs: a process that never blocks would otherwise never hand
  // the baton back, so cross-shard posts toward this shard would sit
  // undrained for as long as it computes.  Ingesting them here makes them
  // visible to its next poll, and any wake they arm for another local
  // process clamps this process's horizon as usual.
  sched_.drain_external();
  while (clock_ < target) {
    const Time limit = horizon_ + slack_;
    if (target <= limit) {
      clock_ = target;
      return;
    }
    clock_ = std::max(clock_, limit);
    switch_out(State::Runnable);
  }
}

void SimProcess::advance_to(Time t) {
  if (t > clock_) advance(t - clock_);
}

void SimProcess::yield() {
  assert(t_current == this);
  switch_out(State::Runnable);
}

void SimProcess::block() {
  assert(t_current == this);
  switch_out(State::Blocked);
}

void SimProcess::sleep_until(Time t) {
  assert(t_current == this);
  if (t <= clock_) return;
  sched_.wake_at(*this, t);
  block();
}

}  // namespace nexus::simnet
