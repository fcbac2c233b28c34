// Handler tables: mapping RSR handler names to local procedures.
//
// An RSR names its remote procedure; on the wire the name travels as a
// 64-bit FNV-1a hash.  Each context owns a HandlerTable; registration
// detects hash collisions eagerly so dispatch can trust the id.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "nexus/types.hpp"
#include "util/error.hpp"
#include "util/pack.hpp"

namespace nexus {

class Context;
class Endpoint;

/// Remote service request handler: invoked with the owning context, the
/// endpoint the link targets, and the (unpackable) data buffer.
using Handler =
    std::function<void(Context&, Endpoint&, util::UnpackBuffer&)>;

/// How a handler is executed on arrival.  Nexus distinguishes non-threaded
/// handlers (run inline in the polling loop, must not block) from threaded
/// handlers (run on their own thread; may perform blocking operations).  In
/// the simulated fabric a threaded handler runs inline but charges a thread
/// switch cost.
enum class HandlerKind { NonThreaded, Threaded };

class HandlerTable {
 public:
  /// Register `fn` under `name`.  Throws UsageError on duplicate names or
  /// (unlikely) hash collisions.
  HandlerId add(std::string_view name, Handler fn,
                HandlerKind kind = HandlerKind::NonThreaded);

  bool contains(HandlerId id) const { return handlers_.contains(id); }

  struct Entry {
    std::string name;
    Handler fn;
    HandlerKind kind;
    /// Interned telemetry label, cached at registration so the dispatch
    /// path never touches the tracer's label table.
    std::uint16_t trace_label = 0;
  };

  /// Lookup by wire id; throws HandlerError for unknown ids.
  const Entry& lookup(HandlerId id) const;
  /// Mutable lookup for registration-time wiring (telemetry labels).
  Entry* find(HandlerId id) {
    auto it = handlers_.find(id);
    return it == handlers_.end() ? nullptr : &it->second;
  }

  static HandlerId id_of(std::string_view name) {
    return util::fnv1a(name);
  }

  std::size_t size() const { return handlers_.size(); }

 private:
  std::map<HandlerId, Entry> handlers_;
};

/// The handler an RSR names: a pre-resolved wire id, or a name hashed per
/// call.  Implicit, so one Context::rsr() signature takes either.
struct HandlerRef {
  HandlerId id = 0;
  HandlerRef(HandlerId h) : id(h) {}
  HandlerRef(std::string_view name) : id(HandlerTable::id_of(name)) {}
  HandlerRef(const char* name) : id(HandlerTable::id_of(name)) {}
  HandlerRef(const std::string& name) : id(HandlerTable::id_of(name)) {}
};

}  // namespace nexus
