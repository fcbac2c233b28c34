#include "nexus/module.hpp"

#include "util/error.hpp"

namespace nexus {

void CommModule::bind_metrics(const telemetry::MetricsRegistry& registry,
                              telemetry::MethodMetrics& mm) noexcept {
  mm.counters.merge(*counters_);
  own_counters_ = telemetry::MethodCounters{};
  counters_ = &mm.counters;
  metrics_ = &mm;
  registry_ = &registry;
}

ModuleRegistry& ModuleRegistry::global() {
  static ModuleRegistry instance;
  return instance;
}

void ModuleRegistry::register_factory(std::string name, Factory factory) {
  factories_[std::move(name)] = std::move(factory);
}

bool ModuleRegistry::has(std::string_view name) const {
  return factories_.find(name) != factories_.end();
}

std::unique_ptr<CommModule> ModuleRegistry::create(std::string_view name,
                                                   Context& ctx) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    throw util::MethodError("no communication module registered under '" +
                            std::string(name) + "'");
  }
  return it->second(ctx);
}

std::vector<std::string> ModuleRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [k, v] : factories_) out.push_back(k);
  return out;
}

}  // namespace nexus
