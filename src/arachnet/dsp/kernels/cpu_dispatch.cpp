#include "arachnet/dsp/kernels/cpu_dispatch.hpp"

#include <atomic>

namespace arachnet::dsp {

namespace {

CpuFeatures probe() noexcept {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  f.sse2 = __builtin_cpu_supports("sse2") != 0;
  f.avx = __builtin_cpu_supports("avx") != 0;
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
#elif defined(__aarch64__)
  // AdvSIMD is part of the aarch64 baseline ABI.
  f.neon = true;
#endif
  return f;
}

/// Clamps a requested tier to hardware support: kAvx2 degrades to the
/// portable tier, and the portable tier maps to NEON on aarch64.
SimdIsa clamp(SimdIsa requested, const CpuFeatures& f) noexcept {
  if (requested == SimdIsa::kAvx2 && f.avx2 && f.fma) return SimdIsa::kAvx2;
  return f.neon ? SimdIsa::kNeon : SimdIsa::kGeneric;
}

// Stored as isa+1 so 0 means "not resolved yet".
std::atomic<int> g_active{0};

}  // namespace

const CpuFeatures& detect_cpu_features() noexcept {
  static const CpuFeatures features = probe();
  return features;
}

SimdIsa active_simd_isa() noexcept {
  int v = g_active.load(std::memory_order_acquire);
  if (v == 0) {
    const SimdIsa isa = clamp(SimdIsa::kAvx2, detect_cpu_features());
    v = static_cast<int>(isa) + 1;
    int expected = 0;
    if (!g_active.compare_exchange_strong(expected, v,
                                          std::memory_order_acq_rel)) {
      v = expected;
    }
  }
  return static_cast<SimdIsa>(v - 1);
}

void force_simd_isa(SimdIsa isa) noexcept {
  const SimdIsa clamped = clamp(isa, detect_cpu_features());
  g_active.store(static_cast<int>(clamped) + 1, std::memory_order_release);
}

const char* to_string(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kGeneric:
      return "generic";
    case SimdIsa::kNeon:
      return "neon";
    case SimdIsa::kAvx2:
      return "avx2";
  }
  return "generic";
}

std::string cpu_feature_string() {
  const CpuFeatures& f = detect_cpu_features();
  std::string out;
  const auto add = [&out](bool have, const char* name) {
    if (!have) return;
    if (!out.empty()) out += '+';
    out += name;
  };
  add(f.sse2, "sse2");
  add(f.avx, "avx");
  add(f.avx2, "avx2");
  add(f.fma, "fma");
  add(f.neon, "neon");
  if (out.empty()) out = "baseline";
  return out;
}

}  // namespace arachnet::dsp
