#ifndef SATO_FEATURES_CONFIG_H_
#define SATO_FEATURES_CONFIG_H_

#include <string>

namespace sato::features {

/// Configuration for the one featurization kernel with an AVX2 variant,
/// the stat value scan, mirroring nn::gemm::Config's dispatch contract:
/// the scalar kernel is the portable baseline the SIMD kernel is
/// parity-tested against, and the escape hatch below pins it at runtime
/// when bitwise cross-machine reproducibility (or a suspected kernel bug)
/// matters more than speed. The tokenizer and the char kernel have one
/// scalar path each: their AVX2 variants measured no faster than the
/// 256-entry byte tables they now read.
///
/// The SIMD stat scan is byte-exact with its scalar baseline (it
/// classifies bytes and accumulates integers -- there is no
/// floating-point regrouping), so flipping dispatch never changes a
/// feature vector; the hatch exists for debugging and for CI's
/// scalar-coverage pass, not for determinism. A caller that wants the
/// other kernel (the parity tests) passes its own Config explicitly; the
/// process-wide DefaultConfig() never changes.
struct Config {
  /// Allow the AVX2 stat value scan when the host CPU supports it. When
  /// false -- or on hosts without AVX2 -- the scalar kernel runs.
  /// DefaultConfig() has it off when SATO_DISABLE_CPU_DISPATCH=1 is set
  /// in the environment before first use (the same hook
  /// gemm::DefaultConfig() honours).
  bool enable_cpu_dispatch = true;
};

/// Immutable process-wide configuration, the default of the stat
/// ExtractInto kernel. Constructed once, honouring
/// SATO_DISABLE_CPU_DISPATCH.
const Config& DefaultConfig();

/// True when the AVX2 stat scan will actually run under
/// `config` on this host.
bool SimdEnabled(const Config& config);

/// Human-readable name of the featurization kernel `config` selects on
/// this host: "avx2" or "scalar". Surfaced as `featurize_kernel` in
/// BENCH_features.json so perf datapoints are self-describing.
std::string KernelName(const Config& config);

}  // namespace sato::features

#endif  // SATO_FEATURES_CONFIG_H_
