#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arachnet/dsp/kernels/fft_plan.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/dsp/kernels/nco.hpp"

namespace arachnet::dsp {

/// Uniform polyphase filterbank channelizer — the shared front-end that
/// replaces a bank of per-channel NCO-mix + full-rate-FIR stages (the
/// standard SDR/base-station receiver structure).
///
/// One windowed-sinc prototype low-pass of length L is decomposed into C
/// polyphase branches. Every `decimation` (D) input samples the commutator
/// takes the newest L-sample window, folds it through the branches
/// (v[p] = sum_q h[p + qC] * x[t - p - qC], L multiplies total regardless
/// of C), and one size-C inverse FFT turns the branch sums into all C
/// bin outputs at once:
///
///   Y_b[t] = sum_m h[m] * x[t - m] * e^{+j*2*pi*b*m/C}
///
/// i.e. the input filtered by the prototype *heterodyned up to bin b* —
/// which equals the input down-mixed by the bin frequency 2*pi*b/C and
/// low-pass filtered. A lane centered at w_k = 2*pi*f_k/fs rarely sits
/// exactly on a bin; with b_k = round(f_k*C/fs) the residual
/// delta_k = w_k - 2*pi*b_k/C (at most half a bin, pi/C) is absorbed by
/// widening the prototype passband by fs/(2C) Hz, and the final rotation
/// that moves the lane to exact DC collapses — together with the bin
/// shift — into one per-lane phasor e^{-j*w_k*t} evaluated only at frame
/// instants t = (F+1)*D - 1 (one complex multiply per lane per frame):
///
///   lane_k[F] = e^{-j*w_k*t_F} * Y_{b_k}[t_F]
///
/// Cost per input sample: L/D multiplies for the branch sums plus the
/// size-C FFT amortized over D samples — independent of the number of
/// lanes — versus `taps` multiplies *per channel* for the mixer bank.
///
/// The float32 frame (kSimd) computes the same Y_b another way. With the
/// prototype stored reversed, g[s] = h[L-1-s], and the window oldest
/// first, the fold is a stride-1 multiply-accumulate into C buckets,
/// bucket[s] = sum_q g[s+qC] * win[s+qC], and
///
///   Y_b = e^{+j*2*pi*((L-1)*b mod C)/C} * FFT_fwd(bucket)[b].
///
/// The FFT leaves its output bit-reversed and unscaled, so a lane reads
/// position bitrev(b) and its phasor carries the constant phase.
///
/// The frame grid matches the Ddc decimator: with `phase()` samples
/// consumed since the last frame, the next frame fires after
/// D - phase() further samples, and history carries across process()
/// calls, so splitting a stream into arbitrary blocks yields the exact
/// same frames.
///
/// Instances are single-threaded (process() on one thread at a time); the
/// FFT plan is shared process-wide and immutable.
class PolyphaseChannelizer {
 public:
  using cplx = std::complex<double>;

  struct Params {
    double sample_rate_hz = 0.0;  ///< input IQ rate fs
    std::size_t fft_size = 0;     ///< C: bins/branches (power of two)
    std::size_t decimation = 0;   ///< D: inputs per output frame, D <= C
    /// Prototype low-pass (odd length, unity DC gain, e.g. from
    /// design_lowpass). Passband must cover the signal bandwidth plus the
    /// worst-case bin residual fs/(2C).
    std::vector<double> prototype;
    /// Per-lane center frequencies in Hz, fixed for the instance's life.
    /// Each maps to its nearest bin; bins must be distinct and inside
    /// (0, fs/2).
    std::vector<double> center_hz;
    /// Under kSimd the frontend runs the float32 frame by default: the
    /// bucket fold, the bit-reversed forward FFT and the residual lane
    /// rotation all run in float32 through the ISA-dispatched vector
    /// kernels, with lane phasors reseeded from double masters every
    /// 4096 frames (the SimdNco chunk idiom). kScalar uses the portable
    /// scalar float64 fold. Lane outputs agree to float32 tolerance;
    /// decoded packets are bit-identical (see DESIGN.md §7 precision
    /// analysis).
    KernelPolicy kernels = default_kernel_policy();
    /// Fold precision under kSimd. kAuto selects the float32 frame
    /// above; kFloat64 pins the vectorized float64 fold + float64 FFT —
    /// benches use it as the f32-vs-f64 speedup baseline and it remains
    /// the output-precision reference. Ignored outside kSimd.
    enum class Fold { kAuto, kFloat64 };
    Fold fold = Fold::kAuto;
  };

  /// Auto-planner output for a subcarrier bank (see plan()).
  struct Plan {
    bool viable = false;
    std::string reason;  ///< why not viable (empty when viable)
    std::size_t fft_size = 0;
    std::size_t decimation = 0;
    std::size_t taps = 0;
    double cutoff_hz = 0.0;
  };

  /// The lane decimation for chips at `chip_rate` in an IQ stream at
  /// `sample_rate_hz`: the largest power of two that keeps >= 8 samples
  /// per chip (the decision chain's per-chip rule, slicer capture
  /// included, holds delivery there; DESIGN.md §7), or 1 when none does.
  /// Both FDMA banks decide at this rate. Any input, NaN included, yields
  /// a factor in [1, 2^20].
  static std::size_t lane_decimation(double sample_rate_hz,
                                     double chip_rate) noexcept;

  /// Sizes a channelizer for a set of subcarriers carrying chips at
  /// `chip_rate`: C = next power of two >= fs/chip_rate (bin residual
  /// <= chip_rate/2), D = lane_decimation(), prototype length
  /// ~3.3*fs/(1.1*chip_rate) (clamped odd to [255, 1023]) with cutoff
  /// 1.4*chip_rate + fs/(2C). Not viable when a rate is non-finite or
  /// non-positive (or fs/chip_rate exceeds 2^24), the subcarriers collide
  /// in a bin, map outside (0, fs/2), or the IQ rate leaves no room to
  /// decimate (D < 2); the reason string says which.
  /// The subcarriers need not sit on a uniform grid: every lane has its own
  /// bin and residual phasor.
  static Plan plan(double sample_rate_hz, double chip_rate,
                   const std::vector<double>& subcarriers_hz);

  /// Nearest FFT bin for a center frequency.
  static std::size_t bin_for(double hz, double sample_rate_hz,
                             std::size_t fft_size) noexcept;

  /// Builds every lane, seeded for frame 0. Throws std::invalid_argument
  /// on a bad size, rate or prototype, or a lane whose bin is at DC or
  /// Nyquist or taken by another lane.
  explicit PolyphaseChannelizer(Params params);

  /// Sizes the window and every lane buffer for process() calls of up to
  /// `n` samples, so that no such call allocates.
  void reserve(std::size_t n);

  /// Consumes `n` IQ samples, producing one frame of every lane per
  /// `decimation` inputs. Lane buffers are overwritten (not appended) each
  /// call; read them via lane() before the next call. Returns the number
  /// of frames produced. A call longer than any before (and than
  /// reserve()) grows the buffers.
  std::size_t process(const cplx* in, std::size_t n);

  /// Lane `k`'s output from the last process() call: frames() samples at
  /// sample_rate/decimation, centered at DC.
  const cplx* lane(std::size_t k) const noexcept { return lanes_[k].data(); }

  /// Frames produced by the last process() call.
  std::size_t frames() const noexcept { return last_frames_; }

  std::size_t lane_count() const noexcept { return lane_nco_.size(); }
  std::size_t fft_size() const noexcept { return params_.fft_size; }
  std::size_t decimation() const noexcept { return params_.decimation; }
  std::size_t taps() const noexcept { return params_.prototype.size(); }
  double lane_rate_hz() const noexcept {
    return params_.sample_rate_hz / static_cast<double>(params_.decimation);
  }
  /// Input samples consumed since the last frame, in [0, decimation).
  std::size_t phase() const noexcept { return phase_; }
  /// Total frames produced since construction (the lane-sample clock).
  std::uint64_t frames_produced() const noexcept { return frames_produced_; }
  /// True when process() runs the float32 frame (kSimd + Fold::kAuto).
  bool float32_path() const noexcept { return use_f32_; }

 private:
  /// Per-lane float32 residual phasor: `re/im` rotate by `rre/rim` each
  /// frame; `phase` is the double master (phase of the *next* frame,
  /// plus the lane's constant FFT phase), advanced alongside and used to
  /// recompute re/im at reseed points so float32 drift never spans more
  /// than kF32ReseedFrames frames. `pos` is where the bit-reversed FFT
  /// leaves the lane's bin.
  struct LaneF32 {
    double phase = 0.0;
    double step = 0.0;
    float re = 1.0f;
    float im = 0.0f;
    float rre = 1.0f;
    float rim = 0.0f;
    std::size_t pos = 0;
  };
  static constexpr std::size_t kF32ReseedFrames = 4096;

  std::size_t process_f32(const cplx* in, std::size_t n);

  Params params_;
  std::shared_ptr<const FftPlan> fft_;
  std::vector<double> scaled_proto_;  ///< prototype * C (absorbs the 1/C
                                      ///< scaling FftPlan::inverse applies)
  std::vector<std::size_t> bins_;     ///< per-lane FFT bin
  std::vector<PhasorNco> lane_nco_;   ///< per-lane e^{-j*w_k*t_F} phasor
  std::vector<std::vector<cplx>> lanes_;
  std::vector<cplx> work_;  ///< history (L-1 samples) + current block
  std::vector<cplx> spec_;  ///< size C: branch sums, FFT'd in place
  // Float32 frame (engaged when use_f32_): reversed float32 prototype,
  // interleaved float32 window mirror (replaces work_), bucket scratch,
  // and the per-lane phasors. lane_nco_ stays seeded in parallel, so both
  // paths share one frame clock.
  bool use_f32_ = false;
  std::vector<float> proto_f_;    ///< prototype reversed, duplicated (hd)
  std::vector<float> work_f_;     ///< interleaved history + current block
  std::vector<float> spec_f_;     ///< 2*C floats: buckets, FFT'd in place
  std::vector<LaneF32> lane_f32_;
  std::size_t f32_reseed_left_ = kF32ReseedFrames;
  std::size_t phase_ = 0;
  std::size_t last_frames_ = 0;
  std::uint64_t frames_produced_ = 0;
};

}  // namespace arachnet::dsp
