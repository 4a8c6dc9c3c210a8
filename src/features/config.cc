#include "features/config.h"

#include "util/cpu.h"

namespace sato::features {

const Config& DefaultConfig() {
  static const Config config = [] {
    Config c;
    c.enable_cpu_dispatch = !util::CpuDispatchDisabledByEnv();
    return c;
  }();
  return config;
}

bool SimdEnabled(const Config& config) {
  return config.enable_cpu_dispatch && util::CpuHasAvx2();
}

std::string KernelName(const Config& config) {
  return SimdEnabled(config) ? "avx2" : "scalar";
}

}  // namespace sato::features
