#include "proto/register.hpp"

#include "nexus/context.hpp"
#include "proto/modules.hpp"
#include "proto/reliable.hpp"
#include "proto/stream.hpp"
#include "util/error.hpp"

namespace nexus::proto {

namespace {
template <typename M>
std::unique_ptr<CommModule> make(Context& ctx) {
  return std::make_unique<M>(ctx);
}

/// Methods whose transport exists only as a model refuse the realtime
/// fabric at instantiation.
ModuleRegistry::Factory sim_only(const char* name,
                                 ModuleRegistry::Factory factory) {
  return [name, factory = std::move(factory)](Context& ctx) {
    if (ctx.runtime().sim() == nullptr) {
      throw util::MethodError(std::string("method '") + name +
                              "' is only available on the simulated fabric");
    }
    return factory(ctx);
  };
}
}  // namespace

void register_builtin_modules(ModuleRegistry& registry) {
  registry.register_factory("local", make<LocalModule>);
  registry.register_factory("shm", make<ShmModule>);
  registry.register_factory("mpl", PartitionModule::mpl);
  registry.register_factory("tcp", make<TcpModule>);
  registry.register_factory("udp", make<UdpModule>);
  registry.register_factory("secure", CodecModule::secure);
  registry.register_factory("zrle", CodecModule::zrle);
  registry.register_factory("mcast", make<McastModule>);
  registry.register_factory("myrinet",
                            sim_only("myrinet", PartitionModule::myrinet));
  registry.register_factory("aal5", sim_only("aal5", aal5_module));
  registry.register_factory("stream", sim_only("stream", make<StreamModule>));
  // Reliability wrapper over the unreliable datagram transport: exactly-
  // once, in-order delivery at udp's speed rank (docs/ARCHITECTURE.md §10).
  register_reliable_wrapper(registry, "udp");
}

}  // namespace nexus::proto
