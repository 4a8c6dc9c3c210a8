#ifndef SATO_FEATURES_CONFIG_H_
#define SATO_FEATURES_CONFIG_H_

#include <string>

namespace sato::features {

/// Configuration for the featurization kernels, mirroring
/// nn::gemm::Config's dispatch contract: the scalar kernels are the
/// portable baseline every SIMD kernel is parity-tested against, and the
/// escape hatch below pins them at runtime when bitwise cross-machine
/// reproducibility (or a suspected kernel bug) matters more than speed.
///
/// The SIMD featurization kernels are byte-exact with their scalar
/// baselines (they classify bytes and accumulate integers -- there is no
/// floating-point regrouping), so flipping dispatch never changes a
/// feature vector; the hatch exists for debugging and for CI's
/// scalar-coverage pass, not for determinism. A caller that wants other
/// kernels (the parity tests) passes its own Config explicitly; the
/// process-wide DefaultConfig() never changes.
struct Config {
  /// Allow the AVX2 featurization kernels (char-slot classification, the
  /// stat value scan, the tokenizer's byte classification) when the host
  /// CPU supports them. When false -- or on hosts without AVX2 -- the
  /// scalar kernels run. DefaultConfig() has it off when
  /// SATO_DISABLE_CPU_DISPATCH=1 is set in the environment before first
  /// use (the same hook gemm::DefaultConfig() honours).
  bool enable_cpu_dispatch = true;
};

/// Immutable process-wide configuration, the default of TokenCache::Build
/// and the char/stat ExtractInto kernels. Constructed once, honouring
/// SATO_DISABLE_CPU_DISPATCH.
const Config& DefaultConfig();

/// True when the AVX2 featurization kernels will actually run under
/// `config` on this host.
bool SimdEnabled(const Config& config);

/// Human-readable name of the featurization kernel `config` selects on
/// this host: "avx2" or "scalar". Surfaced as `featurize_kernel` in
/// BENCH_features.json so perf datapoints are self-describing.
std::string KernelName(const Config& config);

}  // namespace sato::features

#endif  // SATO_FEATURES_CONFIG_H_
