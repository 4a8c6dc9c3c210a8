#ifndef SATO_NN_GEMM_H_
#define SATO_NN_GEMM_H_

#include <cstddef>
#include <string>

#include "nn/matrix.h"

namespace sato::nn::gemm {

/// Cache-blocked, register-tiled GEMM -- the FLOP engine behind every
/// MatMul* entry point in matrix.h, and therefore behind Linear, multi-head
/// attention, the Transformer encoder and the column-wise model.
///
/// Algorithm (BLIS/Goto-style): C = op(A) * op(B) is computed over three
/// cache-blocking loops (columns of C in `nc` slabs, the shared dimension
/// in `kc` panels, rows of C in `mc` strips). Each (kc x nc) panel of B and
/// (mc x kc) strip of A is packed once into contiguous, zero-padded panel
/// storage, then a register-tiled micro-kernel computes kMicroRows x
/// kMicroCols output tiles with all accumulators in registers. The
/// transpose variants differ only in how the pack step walks A/B, so all
/// four MatMul routings share one kernel.
///
/// Numerical contract: for one (M, N, K, Config) the result is a pure
/// function of the inputs -- bitwise deterministic on any thread.
/// Different block sizes regroup the k-accumulation and may differ from
/// the reference kernel by normal floating-point rounding (~1e-15
/// relative; tests allow 1e-12).
///
/// Thread-safety: every function here is re-entrant; scratch packing
/// buffers are thread_local and recycled across calls (no steady-state
/// allocation on the serving hot path, matching the Workspace design).

/// Register micro-tile height (rows of C per micro-kernel call).
inline constexpr size_t kMicroRows = 4;
/// Register micro-tile width (columns of C per micro-kernel call).
inline constexpr size_t kMicroCols = 8;

/// Kernel tuning knobs. The defaults were measured on the serving
/// container (see docs/BENCHMARKS.md). Callers that want other values
/// (the kernel-parity tests, the microbenchmarks) pass a Config
/// explicitly; the process-wide DefaultConfig() never changes.
struct Config {
  // -- cache blocking -------------------------------------------------------
  size_t mc = 64;   ///< rows of A per packed strip (L1-resident with kc)
  size_t kc = 256;  ///< shared-dim depth per packed panel
  size_t nc = 512;  ///< columns of B per packed panel (L2-resident)

  // -- escape hatches -------------------------------------------------------
  /// Route through the naive triple-loop reference kernel instead of the
  /// blocked one. The reference kernel is the ground truth the blocked
  /// path is tested against; it is also the right choice for debugging
  /// suspected kernel issues in the field.
  bool use_reference = false;

  /// Allow the runtime CPU dispatch to select a wider-vector micro-kernel
  /// (AVX2+FMA on x86-64) when the hardware supports one. Results then
  /// depend on the host CPU (FMA changes rounding); disable to pin the
  /// portable generic micro-kernel when bitwise cross-machine
  /// reproducibility matters more than speed. Also forced off process-wide
  /// by SATO_DISABLE_CPU_DISPATCH=1 in the environment (see
  /// util::CpuDispatchDisabledByEnv), which DefaultConfig() honours.
  bool enable_cpu_dispatch = true;
};

/// Process-wide configuration used by the MatMul* wrappers in matrix.h:
/// the blocked kernel with the default blocking, CPU dispatch enabled
/// unless SATO_DISABLE_CPU_DISPATCH=1. Computed once on first use and
/// immutable afterwards, so every prediction in a process runs the same
/// arithmetic.
const Config& DefaultConfig();

/// Human-readable name of the micro-kernel `config` would run with on this
/// host: "reference", "blocked-generic" or "blocked-avx2fma". Surfaced in
/// BENCH_gemm.json so perf datapoints are self-describing.
std::string KernelName(const Config& config = DefaultConfig());

// -- blocked entry points ---------------------------------------------------
// All three resize *c and overwrite it completely; `c` must not alias `a`
// or `b`. Shape mismatches throw std::invalid_argument. Degenerate shapes
// are well-defined: M==0 or N==0 yields an empty matrix, K==0 yields
// zeros.

/// C = A * B. Shapes: [m,k] x [k,n] -> [m,n].
void Gemm(const Matrix& a, const Matrix& b, Matrix* c,
          const Config& config = DefaultConfig());

/// C = A^T * B. Shapes: [k,m] x [k,n] -> [m,n].
void GemmTransposeA(const Matrix& a, const Matrix& b, Matrix* c,
                    const Config& config = DefaultConfig());

/// C = A * B^T. Shapes: [m,k] x [n,k] -> [m,n].
void GemmTransposeB(const Matrix& a, const Matrix& b, Matrix* c,
                    const Config& config = DefaultConfig());

// -- reference kernels ------------------------------------------------------
// The pre-kernel naive loops, preserved verbatim: single-threaded,
// cache-oblivious, with strict left-to-right k-accumulation per element.
// They are the parity baseline for tests/gemm_test.cc and the
// `use_reference` escape hatch, and the "naive" side of BENCH_gemm.json.

/// Reference C = A * B (i-k-j loop order, streams rows of B and C).
void ReferenceGemm(const Matrix& a, const Matrix& b, Matrix* c);

/// Reference C = A^T * B.
void ReferenceGemmTransposeA(const Matrix& a, const Matrix& b, Matrix* c);

/// Reference C = A * B^T (row-dot-row, no transposed copy).
void ReferenceGemmTransposeB(const Matrix& a, const Matrix& b, Matrix* c);

}  // namespace sato::nn::gemm

#endif  // SATO_NN_GEMM_H_
