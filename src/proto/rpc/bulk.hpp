// Bulk-data plane of the RPC subsystem (docs/ARCHITECTURE.md §15.3).
//
// Mercury's insight (PAPERS.md, Soumagne et al.): RPC metadata travels
// eagerly in the request, while large payloads are exposed as *handles*
// and pulled by the target in flow-controlled chunks.  Two halves:
//
//   * BulkProvider (caller side): interns SharedBytes regions under small
//     ids and serves "rpc.bulk.pull" requests by answering each with one
//     "rpc.bulk.chunk" frame aliasing the registered buffer (zero-copy on
//     the provider side).  Pulls naming an unregistered/expired handle or
//     an out-of-range window are answered with a typed "rpc.bulk.err"
//     protocol frame instead of faulting.
//
//   * BulkPuller (target side): given a descriptor {id, size} from request
//     metadata, pulls the region in rpc.bulk_chunk-sized pieces with at
//     most rpc.bulk_window outstanding (additionally clamped to the
//     reliable layer's free window credits when the route rides rel+udp),
//     reassembling into ONE preallocated buffer -- exactly one receive-side
//     allocation per transfer -- handed off as a zero-copy SharedBytes.
//
// Every pull/chunk/error frame is an rsr() carrying the owning call's
// trace id, so a stitched trace shows request -> pulls -> reply end to end.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "nexus/context.hpp"
#include "util/shared_bytes.hpp"

namespace nexus::proto::rpc {

/// Descriptor for a registered bulk region; travels in request metadata.
struct BulkHandle {
  std::uint64_t id = 0;  ///< 0 = invalid / no bulk
  std::uint64_t size = 0;
  bool valid() const noexcept { return id != 0; }
};

/// Reason codes carried by "rpc.bulk.err" frames.
enum class BulkErr : std::uint8_t {
  UnknownHandle = 1,  ///< pull names an unregistered or released handle
  OutOfRange = 2,     ///< pull window exceeds the registered region
};

/// Caller-side half: registered regions + the pull server.
class BulkProvider {
 public:
  explicit BulkProvider(Context& ctx) : ctx_(ctx) {}

  BulkHandle register_region(util::SharedBytes data);
  /// Drop a registration; later pulls against it get a typed error frame.
  void release(BulkHandle h) { regions_.erase(h.id); }
  std::size_t registered() const noexcept { return regions_.size(); }

  /// Serve one "rpc.bulk.pull" frame (wired up by rpc::Client).
  void serve_pull(util::UnpackBuffer& ub);
  /// Drop every registration (crash/restart of the owning context).
  void clear() { regions_.clear(); }

 private:
  Context& ctx_;
  std::uint64_t next_id_ = 0;
  std::map<std::uint64_t, util::SharedBytes> regions_;
  std::map<ContextId, Startpoint> routes_;
};

/// Target-side half: the flow-controlled chunk puller.
class BulkPuller {
 public:
  /// Completion callback: (key, data, ok, error).  `data` is the single
  /// reassembled zero-copy buffer when ok.
  using Done =
      std::function<void(std::uint64_t, util::SharedBytes, bool, std::string)>;

  BulkPuller(Context& ctx, Done done);

  /// Begin pulling `handle` from `owner`; progress/completion is reported
  /// through the Done callback under `key`.  `deadline` (absolute, 0 =
  /// none) bounds the transfer; `trace` stitches the frames into the
  /// owning call's trace.
  void start(std::uint64_t key, ContextId owner, BulkHandle handle,
             Time deadline, std::uint64_t trace);
  /// Handle one "rpc.bulk.chunk" frame.
  void on_chunk(util::UnpackBuffer& ub);
  /// Handle one "rpc.bulk.err" frame.
  void on_error(util::UnpackBuffer& ub);
  /// Re-pump stalled transfers and abort expired / dead-peer ones.
  void service();
  /// Abort everything (crash/restart of the owning context).
  void clear() { pulls_.clear(); }

  std::size_t active() const noexcept { return pulls_.size(); }
  /// Receive-side reassembly buffers allocated so far (exactly one per
  /// transfer; the zero-copy acceptance gate asserts on this).
  std::uint64_t reassembly_allocs() const noexcept {
    return reassembly_allocs_;
  }

 private:
  /// Chunk requests with no reply past the current lag are re-issued (the
  /// pull or its chunk rode an unreliable hop and was dropped).  The lag
  /// starts well above a tcp-class RTT and doubles on every barren retry:
  /// re-requesting a window that is merely slow duplicates every chunk on
  /// the destination's receive queue and tips the tcp incast model into
  /// its quadratic stall -- the retry cadence must back off faster than it
  /// can congest.
  static constexpr Time kRetryLagInitial = 10'000'000;  // 10 ms
  static constexpr Time kRetryLagMax = 160'000'000;     // 160 ms

  struct Pull {
    ContextId owner = kNoContext;
    std::uint64_t bulk_id = 0;
    std::uint64_t total = 0;
    std::uint64_t next_offset = 0;  ///< first byte not yet requested
    std::uint64_t received = 0;
    /// Outstanding chunk requests: offset -> length (window_-bounded).
    std::map<std::uint64_t, std::uint32_t> inflight;
    util::Bytes buffer;             ///< the one receive-side allocation
    Time deadline = 0;
    Time started_at = 0;
    Time last_progress = 0;
    Time retry_lag = kRetryLagInitial;  ///< doubles per barren retry
    std::uint64_t trace = 0;
  };

  /// Issue chunk requests up to the window (and the reliable layer's free
  /// credits toward the owner, when the route rides a rel+ wrapper).
  void pump(std::uint64_t key);
  bool request_chunk(ContextId owner, std::uint64_t bulk_id,
                     std::uint64_t key, std::uint64_t offset,
                     std::uint32_t len, std::uint64_t trace);
  Startpoint& sp_to(ContextId owner);
  void finish(std::uint64_t key, bool ok, std::string err);
  std::uint64_t credit_clamp(ContextId owner) const;

  Context& ctx_;
  Done done_;
  std::map<std::uint64_t, Pull> pulls_;
  std::map<ContextId, Startpoint> routes_;
  std::uint64_t chunk_bytes_;   ///< rpc.bulk_chunk
  std::uint64_t window_;        ///< rpc.bulk_window
  std::uint64_t reassembly_allocs_ = 0;
};

}  // namespace nexus::proto::rpc
