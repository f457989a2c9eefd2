#pragma once

#include <string>

namespace arachnet::dsp {

/// What the running CPU can do, probed once per process. On x86-64 this
/// comes from CPUID via __builtin_cpu_supports; on aarch64 the baseline
/// ABI guarantees NEON, so no HWCAP read is needed for the features we
/// dispatch on.
struct CpuFeatures {
  bool sse2 = false;
  bool avx = false;
  bool avx2 = false;
  bool fma = false;
  bool neon = false;
};

/// Cached probe result (the probe itself runs once, on first call).
const CpuFeatures& detect_cpu_features() noexcept;

/// The instruction-set tier the kSimd kernel table was resolved to.
///
///   kGeneric — portable GCC vector-extension code compiled for the
///     build's baseline ISA (SSE2 on x86-64). Always available; this is
///     the only tier on x86 hardware without AVX2+FMA.
///   kNeon — same portable code on aarch64, where the compiler lowers
///     the vector lanes straight to NEON (reported distinctly so bench
///     sidecars attribute numbers to the right silicon).
///   kAvx2 — x86-64 function-multiversioned table built with
///     target("avx2,fma"): 8-wide float32 FMA inner loops.
enum class SimdIsa {
  kGeneric,
  kNeon,
  kAvx2,
};

/// The tier the process resolved at first use: kAvx2 when CPUID reports
/// avx2+fma, otherwise the portable tier (kNeon on aarch64).
SimdIsa active_simd_isa() noexcept;

/// Test hook: re-resolve the active tier, clamped to what the CPU
/// actually supports (forcing kAvx2 on a machine without AVX2+FMA yields
/// the portable tier). Takes effect for subsequent kernel-table lookups.
void force_simd_isa(SimdIsa isa) noexcept;

/// "generic", "neon" or "avx2".
const char* to_string(SimdIsa isa) noexcept;

/// Feature-flag summary for telemetry rows, e.g. "sse2+avx+avx2+fma".
std::string cpu_feature_string();

}  // namespace arachnet::dsp
