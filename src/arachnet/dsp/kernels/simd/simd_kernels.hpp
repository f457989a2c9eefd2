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

  /// out[k] = in[k] * lane phasor over complex<double> input (the FDMA
  /// channel mixer). Lanes advance by (rre,rim) every 8 samples; the tail
  /// (n % 8) uses the current lane values without advancing. Callers
  /// reseed lanes per chunk from double phase, so in-block float32 drift
  /// never accumulates.
  void (*mix_cplx_cf32)(const std::complex<double>* in, std::size_t n,
                        const float* lre, const float* lim, float rre,
                        float rim, float* out);

  /// nout complex outputs from a contiguous interleaved window, one per
  /// `stride` input samples: output i is the hd-dot over
  /// win[2*i*stride .. 2*i*stride + 2*taps).
  void (*fir_block_cf32)(const float* win, const float* hd, std::size_t taps,
                         std::size_t nout, std::size_t stride, float* out);

  /// Band-pass decimating core of the Ddc (filter, then mix). On entry
  /// hist[0, taps-1) holds past samples, oldest first, with room for n
  /// more behind them. The kernel narrows in[0, n) to float32 into
  /// hist[taps-1, taps-1+n), writes `count` outputs over the windows
  /// w_j = hist + first + j*decim,
  ///   out[j] = {sum_i gre[i]*w_j[i], sum_i gim[i]*w_j[i]}, i < taps,
  /// and moves the taps-1 newest samples back to the front of hist. The
  /// complex taps gre/gim are in window order (oldest sample first) and
  /// `taps` is a multiple of 8. Lanes accumulate in float32 and are
  /// summed in double.
  void (*ddc_bandpass_f32)(const double* in, std::size_t n, float* hist,
                           const float* gre, const float* gim,
                           std::size_t taps, std::size_t first,
                           std::size_t decim, std::size_t count,
                           std::complex<double>* out);

  /// In-place float32 forward FFT of n (a power of two) interleaved
  /// complex samples, radix-2 decimation in frequency: the input is in
  /// natural order, bin b lands at position bitrev(b), and nothing is
  /// scaled. `stage_tw` is FftPlan's split twiddle table: the stage with
  /// `half` butterflies per group starts at float offset 4*(half-1) and
  /// holds 2*half duplicated real parts (c, c) followed by 2*half signed
  /// imaginary parts (-s, s), for w_k = c + js = e^{-j*pi*k/half}. The
  /// two narrowest stages (half < 4) use no table.
  void (*fft_dif_cf32)(float* d, std::size_t n, const float* stage_tw);

  /// Polyphase fold of the float32 channelizer frame. `win` is the
  /// interleaved float32 window (`taps` complex samples, ascending in
  /// time) and `hd` the prototype in the FIR convention above. Writes
  /// fft_size interleaved complex buckets, zero where no tap reaches:
  ///   v[s] = sum_q hd[s + q*fft_size] * win[s + q*fft_size]
  /// over the interleaved floats. The sums stay in float32 (at most
  /// ceil(taps/fft_size) terms each).
  void (*chzr_bucket_cf32)(const float* win, const float* hd,
                           std::size_t taps, std::size_t fft_size, float* v);

  /// Double-precision polyphase branch fold over complex<double> with
  /// the plain prototype, oldest-first window:
  ///   v[p] = sum_q h[p + q*fft_size] * win[taps-1-p-q*fft_size].
  /// The Fold::kFloat64 channelizer path; benches pin it to measure the
  /// float32 frame against it.
  void (*chzr_fold_f64)(const std::complex<double>* win, const double* h,
                        std::size_t taps, std::size_t fft_size,
                        std::complex<double>* v);

  /// Box-Muller in double, in place over `pairs` interleaved uniform
  /// pairs: (u1, u2) becomes (r cos t, r sin t), r = sqrt(-2 ln u1),
  /// t = 2 pi u2, for u1 in (0, 1) and u2 in [0, 1) (sim::Rng::BoxMuller,
  /// which Rng::normal_block drives). Vector ln, sqrt and sin/cos replace
  /// libm's; each deviate is within 1e-13 of the one Rng::normal()
  /// computes from the same pair, and a pair's result does not depend on
  /// where it sits in the block.
  void (*box_muller_f64)(double* u, std::size_t pairs);
};

/// The table for the currently active SimdIsa (re-reads the dispatch
/// state, so force_simd_isa() takes effect on the next call).
const KernelTable& kernels() noexcept;

}  // namespace arachnet::dsp::simd
