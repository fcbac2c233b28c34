// Outside-in probes shared by every workload: a global allocation counter,
// getrusage deltas, /proc/self/status fields, CPU pinning, the reference
// baton that wall times are scaled by, percentiles and a fixed-size log
// histogram, and an in-memory span recorder for the traced run.
//
// Nothing here reaches into the library: every number is either a wall
// clock read around a public call or a kernel counter for the process.
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace wallbench {

/// Global operator new calls; defined beside the replacement operators.
extern std::atomic<std::uint64_t> g_allocs;

inline std::uint64_t allocs() {
  return g_allocs.load(std::memory_order_relaxed);
}

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Process-wide resource usage (all threads).
struct Usage {
  double user_s = 0, sys_s = 0;
  long nvcsw = 0, nivcsw = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.nvcsw = ru.ru_nvcsw;
    u.nivcsw = ru.ru_nivcsw;
    return u;
  }
  /// Add the usage between `from` and `to`.
  void add_delta(const Usage& from, const Usage& to) {
    user_s += to.user_s - from.user_s;
    sys_s += to.sys_s - from.sys_s;
    nvcsw += to.nvcsw - from.nvcsw;
    nivcsw += to.nivcsw - from.nivcsw;
  }
};

/// One block boundary of a timed phase: wall instant, process CPU time
/// (user + sys, all threads) and the reference round trip measured there.
struct Tick {
  std::int64_t t_ns = 0;
  double cpu_s = 0;
  double ref_us = 0;
};

/// Reference handoff: a condvar baton passed between the caller and a
/// partner thread, the same mechanism as the simulator's process baton.
/// Create it after pinning the process, so both threads share one CPU.
class RefBaton {
 public:
  /// The process-wide instance (its partner thread lives until exit).
  static RefBaton& get() {
    static RefBaton r;
    return r;
  }

  RefBaton() : thread_([this] { partner(); }) {}
  ~RefBaton() {
    {
      std::lock_guard<std::mutex> g(mu_);
      quit_ = true;
      turn_ = 1;
    }
    cv_.notify_all();
    thread_.join();
  }
  RefBaton(const RefBaton&) = delete;
  RefBaton& operator=(const RefBaton&) = delete;

  /// Mean wall µs of one round trip over `n` round trips.
  double round_trip_us(int n) {
    const std::int64_t t0 = now_ns();
    {
      std::unique_lock<std::mutex> lk(mu_);
      for (int i = 0; i < n; ++i) {
        turn_ = 1;
        cv_.notify_all();
        cv_.wait(lk, [this] { return turn_ == 0; });
      }
    }
    return static_cast<double>(now_ns() - t0) * 1e-3 / n;
  }

 private:
  void partner() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [this] { return turn_ == 1; });
      if (quit_) return;
      turn_ = 0;
      cv_.notify_all();
    }
  }
  std::mutex mu_;
  std::condition_variable cv_;
  int turn_ = 0;
  bool quit_ = false;
  std::thread thread_;
};

/// A numeric field of /proc/self/status, e.g. "Threads:" (0 when absent).
inline long proc_status(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::char_traits<char>::length(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0) return std::atol(line.c_str() + n);
  }
  return 0;
}

inline int os_threads() { return static_cast<int>(proc_status("Threads:")); }

/// Peak resident set in kB.  VmHWM rather than ru_maxrss: Linux carries
/// ru_maxrss across execve, so it would report the launching process.
inline long peak_rss_kb() { return proc_status("VmHWM:"); }

/// Pin the process (and every thread it spawns later) to the first CPU it
/// may run on.  Returns that CPU, or -1 when pinning failed.
inline int pin_first_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? c : -1;
  }
  return -1;
}

/// Percentile of unsorted samples, interpolated between the two closest
/// ranks (p in [0, 100]).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// Fixed-size log-bucketed histogram of positive values (0.5% wide
/// buckets from 0.01 up), so recording many samples costs no memory
/// growth.  Percentiles interpolate geometrically inside a bucket.
class LogHist {
 public:
  void add(double v) {
    std::size_t i = 0;
    if (v > kMin) {
      i = std::min(kBuckets - 1,
                   1 + static_cast<std::size_t>(std::log(v / kMin) / kLogStep));
    }
    ++b_[i];
    ++n_;
  }
  std::uint64_t count() const { return n_; }
  double percentile(double p) const {
    if (n_ == 0) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(n_ - 1);
    double below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(b_[i]);
      if (c > 0 && below + c > rank) {
        if (i == 0) return kMin;
        const double lo = kMin * std::exp(kLogStep * static_cast<double>(i - 1));
        return lo * std::exp(kLogStep * (rank - below + 0.5) / c);
      }
      below += c;
    }
    return kMin * std::exp(kLogStep * static_cast<double>(kBuckets - 1));
  }

 private:
  static constexpr double kMin = 0.01;
  static constexpr std::size_t kBuckets = 6000;  // up to ~1e11
  static inline const double kLogStep = std::log(1.005);
  std::vector<std::uint64_t> b_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t n_ = 0;
};

/// The highest percentile in {99, 98, ..., 1} with at least ten samples
/// beyond it (0 = none: fewer than eleven samples).
inline int tail_percentile(std::size_t n) {
  for (int p = 99; p >= 1; --p) {
    if (static_cast<double>(n) * (100 - p) / 100.0 >= 10.0) return p;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Span recorder for the traced run.  Each thread appends to its own buffer
// (registered once under a mutex); a per-thread stack gives the parent.
// Spans stay in memory and are written once, after the timed phase.

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root on its thread
  std::uint16_t layer = 0;
  std::uint16_t thread = 0;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

enum Layer : std::uint16_t {
  kOp = 0,
  kRsr,
  kWait,
  kHandler,
  kPack,
  kRpcCall,
  kRpcCallBulk,
  kRpcWait,
  kRpcHandler,
  kClimateRun,
  kLayerCount
};

inline const char* layer_name(int l) {
  static const char* const names[kLayerCount] = {
      "op",          "nexus.rsr", "nexus.wait",  "nexus.handler",
      "util.pack",   "rpc.call",  "rpc.call_bulk", "rpc.wait",
      "rpc.handler", "climate.run_coupled"};
  return names[l];
}

class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  /// Op id stamped on spans opened by threads that serve another's op.
  std::atomic<std::uint64_t> current_op{0};

  struct Local {
    std::vector<Span> spans;
    std::vector<std::uint32_t> stack;
    std::uint16_t thread = 0;
  };

  Local& local() {
    thread_local Local* l = nullptr;
    if (l == nullptr) {
      std::lock_guard<std::mutex> g(mu_);
      locals_.push_back(std::make_unique<Local>());
      l = locals_.back().get();
      l->thread = static_cast<std::uint16_t>(locals_.size() - 1);
    }
    return *l;
  }

  std::uint32_t next_id() {
    return next_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Every recorded span, all threads (call once the workload has ended).
  std::vector<Span> collect() {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<Span> all;
    for (auto& l : locals_) {
      all.insert(all.end(), l->spans.begin(), l->spans.end());
    }
    return all;
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint32_t> next_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<Local>> locals_;
};

/// RAII span around one call into a layer; free (one relaxed load) when
/// tracing is off.
class Scope {
 public:
  Scope(Layer layer, std::uint64_t op) {
    Tracer& t = Tracer::get();
    if (!t.on()) return;
    local_ = &t.local();
    Span s;
    s.id = t.next_id();
    s.parent = local_->stack.empty() ? 0 : local_->stack.back();
    s.layer = layer;
    s.thread = local_->thread;
    s.op = op;
    index_ = local_->spans.size();
    local_->stack.push_back(s.id);
    s.start_ns = now_ns();
    local_->spans.push_back(s);
  }
  explicit Scope(Layer layer)
      : Scope(layer, Tracer::get().current_op.load(std::memory_order_relaxed)) {}
  ~Scope() {
    if (local_ == nullptr) return;
    local_->spans[index_].end_ns = now_ns();
    local_->stack.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer::Local* local_ = nullptr;
  std::size_t index_ = 0;
};

/// Per-layer totals derived from the spans: inclusive durations (for the
/// per-call percentiles) and self time (span minus the part of it its
/// child spans cover; children nest on the parent's thread).
struct LayerStats {
  std::vector<double> dur_us[kLayerCount];
  double self_us[kLayerCount] = {};
};

inline LayerStats summarize(const std::vector<Span>& spans) {
  LayerStats st;
  std::vector<std::int64_t> child_ns;
  std::uint32_t max_id = 0;
  for (const Span& s : spans) max_id = std::max(max_id, s.id);
  child_ns.assign(static_cast<std::size_t>(max_id) + 1, 0);
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  for (const Span& s : spans) {
    const std::int64_t d = s.end_ns - s.start_ns;
    st.dur_us[s.layer].push_back(static_cast<double>(d) * 1e-3);
    st.self_us[s.layer] += static_cast<double>(d - child_ns[s.id]) * 1e-3;
  }
  return st;
}

/// Write spans as tab-separated rows (id, parent, layer, thread, op,
/// start_ns, end_ns).  Returns false when the file cannot be written.
inline bool write_spans(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tlayer\tthread\top\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%u\t%u\t%s\t%u\t%llu\t%lld\t%lld\n", s.id, s.parent,
                 layer_name(s.layer), static_cast<unsigned>(s.thread),
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace wallbench
