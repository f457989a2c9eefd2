#pragma once

#include <complex>
#include <cstddef>

namespace arachnet::dsp::simd {

/// The ISA-dispatched float32 kernel set behind KernelPolicy::kSimd.
///
/// One table per instruction-set tier; all tiers are compiled into the
/// binary from the same source (simd_kernels_impl.inc) — the portable
/// tier at the build baseline, the AVX2 tier via function target
/// attributes — and kernels() returns the one matching the tier
/// cpu_dispatch resolved at startup. Calling through the table is safe
/// on any CPU: a tier is only selectable when the probe says the ISA
/// exists.
///
/// Data conventions shared by every entry:
///   - complex float32 buffers are interleaved re,im pairs (2*n floats
///     for n complex samples);
///   - phasor lanes are 8 per-lane seeds (lre/lim) plus the 8-step
///     rotator (rre,rim), both derived from double phase by the caller;
///   - FIR coefficients arrive reversed and duplicated ("hd"):
///     hd[2j] == hd[2j+1] == h[taps-1-j], so the complex dot product is
///     a plain elementwise multiply-accumulate over the interleaved
///     window with re in even lanes and im in odd lanes. Lane partials
///     are accumulated in float32 and horizontally summed in double.
struct KernelTable {
  /// "generic" or "avx2" (matches cpu_dispatch).
  const char* isa;

  /// out[k] = in[k] * lane phasor, real input. Lanes advance by
  /// (rre,rim) every 8 samples; the tail (n % 8) uses the current lane
  /// values without advancing. Callers reseed lanes per chunk from
  /// double phase, so in-block float32 drift never accumulates.
  void (*mix_real_cf32)(const double* in, std::size_t n, const float* lre,
                        const float* lim, float rre, float rim, float* out);

  /// Same recurrence over complex<double> input (the FDMA channel mixer).
  void (*mix_cplx_cf32)(const std::complex<double>* in, std::size_t n,
                        const float* lre, const float* lim, float rre,
                        float rim, float* out);

  /// nout complex outputs from a contiguous interleaved window: output i
  /// is the hd-dot over win[2i .. 2i+2*taps).
  void (*fir_block_cf32)(const float* win, const float* hd, std::size_t taps,
                         std::size_t nout, float* out);

  /// Decimating variant writing complex<double>: `count` outputs, the
  /// j-th at window sample offset first + j*decim.
  void (*fir_decim_cf32)(const float* win, const float* hd, std::size_t taps,
                         std::size_t first, std::size_t decim,
                         std::size_t count, std::complex<double>* out);

  /// In-place float32 radix-2 transform over interleaved complex data —
  /// the FFT stage of the kSimd channelizer fast path (FftPlan::
  /// forward_f/inverse_f route here so the butterflies compile per ISA
  /// tier). `bitrev` is the plan's permutation table; `stage_tw` the
  /// stage-contiguous float twiddles (stage with `half` butterflies at
  /// float offset 2*(half-1)); `sgn` is +1 forward / -1 inverse (applied
  /// to twiddle imaginary lanes); `scale` multiplies every output (1/n
  /// for the inverse, 1 otherwise).
  void (*fft_radix2_cf32)(float* d, std::size_t n, const std::size_t* bitrev,
                          const float* stage_tw, float sgn, float scale);

  /// Single-precision polyphase branch fold — the kSimd channelizer fast
  /// path. `win` is the interleaved float32 window (`taps` complex
  /// samples, ascending in time); `hd` is the prototype duplicated
  /// elementwise (hd[2m] == hd[2m+1] == h[m], indexed by tap m directly —
  /// unlike the FIR hd convention the taps are *not* pre-reversed; the
  /// window reversal lives in the kernel's descending reads). Writes
  /// fft_size interleaved complex float32 branch outputs:
  ///   v[p] = sum_q h[p + q*fft_size] * win[taps-1-p-q*fft_size].
  /// Lane partial sums are float32; accumulator pairs combine in double
  /// before narrowing (same discipline as fir_dot_cf32). Precision
  /// analysis (DESIGN.md §7): the fold feeds an FFT whose bins drive lane
  /// decisions at ~20 samples/chip, and float32 fold noise (~1e-6
  /// relative) sits ~50 dB under the decision margin, so packets stay
  /// bit-identical to the float64 fold.
  void (*chzr_fold_cf32)(const float* win, const float* hd, std::size_t taps,
                         std::size_t fft_size, float* v);

  /// Double-precision polyphase branch fold (same recurrence as
  /// chzr_fold_cf32 over complex<double> with the plain prototype).
  /// Retained as the reference/fallback lane: benches pin it via
  /// Channelizer::Params::fold to measure the float32 speedup, and
  /// non-uniform configs that want double IQ keep it.
  void (*chzr_fold_f64)(const std::complex<double>* win, const double* h,
                        std::size_t taps, std::size_t fft_size,
                        std::complex<double>* v);
};

/// The table for the currently active SimdIsa (re-reads the dispatch
/// state, so force_simd_isa() takes effect on the next call).
const KernelTable& kernels() noexcept;

}  // namespace arachnet::dsp::simd
