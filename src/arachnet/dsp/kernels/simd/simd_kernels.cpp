#include "arachnet/dsp/kernels/simd/simd_kernels.hpp"

#include <cstring>

#include "arachnet/dsp/kernels/cpu_dispatch.hpp"
#include "arachnet/dsp/kernels/simd/vec.hpp"

namespace arachnet::dsp::simd {
namespace {

// Portable tier: the impl compiled at the build's baseline ISA. On
// x86-64 that is SSE2; on aarch64 the very same vectors lower to NEON.
namespace generic_impl {
#define ARACHNET_SIMD_FN static
#include "arachnet/dsp/kernels/simd/simd_kernels_impl.inc"
#undef ARACHNET_SIMD_FN
constexpr KernelTable kTable{"generic",         &mix_cplx_cf32,
                             &fir_block_cf32,   &ddc_bandpass_f32,
                             &fft_dif_cf32,     &chzr_bucket_cf32,
                             &chzr_fold_f64,    &box_muller_f64};
}  // namespace generic_impl

// AVX2 tier: identical source, instantiated with per-function target
// attributes so the whole binary still runs on baseline hardware — only
// the dispatch decision (cpu_dispatch probe) routes execution here, and
// only when CPUID reports avx2+fma.
#if defined(__x86_64__) || defined(__i386__)
#define ARACHNET_HAVE_AVX2_TIER 1
namespace avx2_impl {
#define ARACHNET_SIMD_FN static __attribute__((target("avx2,fma")))
#include "arachnet/dsp/kernels/simd/simd_kernels_impl.inc"
#undef ARACHNET_SIMD_FN
constexpr KernelTable kTable{"avx2",            &mix_cplx_cf32,
                             &fir_block_cf32,   &ddc_bandpass_f32,
                             &fft_dif_cf32,     &chzr_bucket_cf32,
                             &chzr_fold_f64,    &box_muller_f64};
}  // namespace avx2_impl
#endif

}  // namespace

const KernelTable& kernels() noexcept {
#if defined(ARACHNET_HAVE_AVX2_TIER)
  if (active_simd_isa() == SimdIsa::kAvx2) return avx2_impl::kTable;
#endif
  return generic_impl::kTable;
}

}  // namespace arachnet::dsp::simd
