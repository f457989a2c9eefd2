#include "arachnet/dsp/kernels/channelizer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "arachnet/dsp/kernels/simd/simd_kernels.hpp"

namespace arachnet::dsp {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

}  // namespace

std::size_t PolyphaseChannelizer::bin_for(double hz, double sample_rate_hz,
                                          std::size_t fft_size) noexcept {
  return static_cast<std::size_t>(std::lround(
      hz * static_cast<double>(fft_size) / sample_rate_hz));
}

std::size_t PolyphaseChannelizer::lane_decimation(double sample_rate_hz,
                                                  double chip_rate) noexcept {
  // D = largest power of two with fs/D >= 8*chip_rate. The cap bounds
  // the loop for a zero or vanishing chip rate.
  constexpr std::size_t kMax = std::size_t{1} << 20;
  std::size_t decim = 1;
  while (decim < kMax && static_cast<double>(2 * decim) * 8.0 * chip_rate <=
                             sample_rate_hz) {
    decim *= 2;
  }
  return decim;
}

PolyphaseChannelizer::Plan PolyphaseChannelizer::plan(
    double sample_rate_hz, double chip_rate,
    const std::vector<double>& subcarriers_hz) {
  Plan p;
  // The sizing loops below double until they pass fs/chip_rate, which
  // must therefore be a finite, positive and sane ratio.
  const double ratio = sample_rate_hz / chip_rate;
  if (!std::isfinite(sample_rate_hz) || !std::isfinite(chip_rate) ||
      sample_rate_hz <= 0.0 || chip_rate <= 0.0 || !(ratio <= 0x1p24)) {
    p.reason = "sample and chip rates must be finite and positive, "
               "at most 2^24 samples per chip";
    return p;
  }
  if (subcarriers_hz.empty()) {
    p.reason = "no subcarriers";
    return p;
  }
  // Decimating by less than 2 gains nothing over the mixer bank.
  const std::size_t decim = lane_decimation(sample_rate_hz, chip_rate);
  if (decim < 2) {
    p.reason = "IQ rate below 16 samples per chip leaves no decimation room";
    return p;
  }
  // Bin width <= chip_rate, so the worst-case residual fs/(2C) the
  // prototype passband must absorb stays <= chip_rate/2.
  std::size_t fft_size = 1;
  while (static_cast<double>(fft_size) < sample_rate_hz / chip_rate) {
    fft_size *= 2;
  }
  std::vector<std::size_t> bins;
  for (double hz : subcarriers_hz) {
    const std::size_t b = bin_for(hz, sample_rate_hz, fft_size);
    if (b < 1 || b >= fft_size / 2) {
      p.reason = "subcarrier maps to the DC or Nyquist bin";
      return p;
    }
    if (std::find(bins.begin(), bins.end(), b) != bins.end()) {
      p.reason = "two subcarriers collide in one FFT bin";
      return p;
    }
    bins.push_back(b);
  }
  // Same transition-width scaling rule as the per-channel LPF, but with
  // roughly half the transition band (the passband is widened by the bin
  // residual, so the stopband edge must stay inside the channel spacing).
  p.taps = std::clamp<std::size_t>(
      static_cast<std::size_t>(3.3 * sample_rate_hz / (1.1 * chip_rate)) | 1,
      255, 1023);
  p.cutoff_hz = 1.4 * chip_rate +
                sample_rate_hz / (2.0 * static_cast<double>(fft_size));
  p.fft_size = fft_size;
  p.decimation = decim;
  p.viable = true;
  return p;
}

PolyphaseChannelizer::PolyphaseChannelizer(Params params)
    : params_(std::move(params)) {
  if (!std::has_single_bit(params_.fft_size)) {
    throw std::invalid_argument(
        "PolyphaseChannelizer: fft_size must be a power of two");
  }
  if (params_.decimation == 0 || params_.decimation > params_.fft_size) {
    throw std::invalid_argument(
        "PolyphaseChannelizer: decimation must be in [1, fft_size]");
  }
  if (params_.prototype.empty()) {
    throw std::invalid_argument("PolyphaseChannelizer: empty prototype");
  }
  if (params_.sample_rate_hz <= 0.0) {
    throw std::invalid_argument(
        "PolyphaseChannelizer: sample rate must be positive");
  }
  fft_ = FftPlan::get(params_.fft_size);
  // FftPlan::inverse scales by 1/C; fold the compensating C into the
  // prototype so the branch sums need no post-scaling.
  scaled_proto_ = params_.prototype;
  for (double& h : scaled_proto_) {
    h *= static_cast<double>(params_.fft_size);
  }
  work_.assign(scaled_proto_.size() - 1, cplx{});
  spec_.resize(params_.fft_size);
  use_f32_ = params_.kernels == KernelPolicy::kSimd &&
             params_.fold == Params::Fold::kAuto;
  if (use_f32_) {
    // Reversed for the stride-1 bucket fold; unscaled, since the forward
    // FFT applies no 1/C to undo.
    const std::size_t taps = params_.prototype.size();
    proto_f_.resize(2 * taps);
    for (std::size_t s = 0; s < taps; ++s) {
      proto_f_[2 * s] = static_cast<float>(params_.prototype[taps - 1 - s]);
      proto_f_[2 * s + 1] = proto_f_[2 * s];
    }
    work_f_.assign(2 * (taps - 1), 0.0f);
    spec_f_.resize(2 * params_.fft_size);
  }
  // The lane rotation e^{-j*w*t} is only ever evaluated at frame instants
  // t_F = (F+1)*D - 1, so it reduces to one phasor per lane, seeded at
  // t_0 = D-1 and stepping -w*D per frame.
  const double d = static_cast<double>(params_.decimation);
  const std::size_t c = params_.fft_size;
  for (double hz : params_.center_hz) {
    const std::size_t bin = bin_for(hz, params_.sample_rate_hz, c);
    if (bin < 1 || bin >= c / 2 ||
        std::find(bins_.begin(), bins_.end(), bin) != bins_.end()) {
      throw std::invalid_argument(
          "PolyphaseChannelizer: lane bin unusable or already taken");
    }
    bins_.push_back(bin);
    const double w = kTwoPi * hz / params_.sample_rate_hz;
    const double phase0 = -std::fmod(w * (d - 1.0), kTwoPi);
    const double step = -std::fmod(w * d, kTwoPi);
    lane_nco_.emplace_back(phase0, step);
    // Float32 twin (kept in sync even when the float path is inactive so
    // Params carry no mode coupling). The float32 frame reads bin b of the
    // forward FFT of the reversed-prototype buckets, which is Y_b times
    // e^{-j*2*pi*((L-1)*b mod C)/C} (DESIGN.md §7); the lane's phase, and
    // so its double master, carries the inverse of that constant.
    const std::size_t turn = (params_.prototype.size() - 1) % c * bin % c;
    LaneF32 lf;
    lf.phase = phase0 + kTwoPi * static_cast<double>(turn) /
                            static_cast<double>(c);
    lf.step = step;
    lf.re = static_cast<float>(std::cos(lf.phase));
    lf.im = static_cast<float>(std::sin(lf.phase));
    lf.rre = static_cast<float>(std::cos(step));
    lf.rim = static_cast<float>(std::sin(step));
    lf.pos = fft_->bitrev(bin);
    lane_f32_.push_back(lf);
  }
  lanes_.resize(bins_.size());
}

void PolyphaseChannelizer::reserve(std::size_t n) {
  const std::size_t history = params_.prototype.size() - 1;
  if (use_f32_) {
    work_f_.reserve(2 * (history + n));
  } else {
    work_.reserve(history + n);
  }
  // (phase_ + n) / D frames at most, with phase_ < D.
  const std::size_t frames = (params_.decimation - 1 + n) /
                             params_.decimation;
  for (auto& lane : lanes_) lane.reserve(frames);
}

std::size_t PolyphaseChannelizer::process(const cplx* in, std::size_t n) {
  if (use_f32_) return process_f32(in, n);
  const std::size_t taps = scaled_proto_.size();
  const std::size_t fft_size = params_.fft_size;
  const std::size_t decim = params_.decimation;
  work_.resize(taps - 1 + n);
  std::copy(in, in + n,
            work_.begin() + static_cast<std::ptrdiff_t>(taps - 1));
  const std::size_t count = (phase_ + n) / decim;
  for (auto& lane : lanes_) lane.resize(count);
  const cplx* w = work_.data();
  const double* h = scaled_proto_.data();
  cplx* v = spec_.data();
  std::size_t f = 0;
  // Frame grid: the first frame fires at the input index where decim
  // samples have accumulated since the last frame (the Ddc decimator's
  // alignment), i.e. the frame's newest sample is work_[taps-1 + i].
  for (std::size_t i = decim - 1 - phase_; i < n; i += decim, ++f) {
    // Oldest-first window of `taps` samples ending at the frame instant:
    // win[taps-1-m] is the sample m steps back.
    const cplx* win = w + i;
    // Branch sums: v[p] = sum_q h[p+qC] * x[t-p-qC]. Every prototype tap
    // is touched exactly once, so this costs L complex-by-real multiplies
    // per frame no matter how large C is.
    if (params_.kernels == KernelPolicy::kSimd) {
      simd::kernels().chzr_fold_f64(win, h, taps, fft_size, v);
    } else {
      for (std::size_t p = 0; p < fft_size; ++p) {
        double re = 0.0, im = 0.0;
        for (std::size_t m = p; m < taps; m += fft_size) {
          const cplx x = win[taps - 1 - m];
          re += h[m] * x.real();
          im += h[m] * x.imag();
        }
        v[p] = cplx{re, im};
      }
    }
    // inverse() gives (1/C) * sum_p v[p] e^{+j*2*pi*p*b/C}; the 1/C is
    // pre-folded into scaled_proto_, leaving Y_b exactly.
    fft_->inverse(v);
    for (std::size_t k = 0; k < lane_nco_.size(); ++k) {
      lanes_[k][f] = v[bins_[k]] * lane_nco_[k].next();
    }
  }
  phase_ = (phase_ + n) % decim;
  std::copy(work_.end() - static_cast<std::ptrdiff_t>(taps - 1),
            work_.end(), work_.begin());
  work_.resize(taps - 1);
  last_frames_ = count;
  frames_produced_ += count;
  return count;
}

std::size_t PolyphaseChannelizer::process_f32(const cplx* in, std::size_t n) {
  const std::size_t taps = params_.prototype.size();
  const std::size_t fft_size = params_.fft_size;
  const std::size_t decim = params_.decimation;
  // Interleaved float32 mirror of the window: history (taps-1 samples)
  // already sits at the front; narrow the new block in behind it.
  work_f_.resize(2 * (taps - 1 + n));
  float* wf = work_f_.data();
  for (std::size_t i = 0; i < n; ++i) {
    wf[2 * (taps - 1 + i)] = static_cast<float>(in[i].real());
    wf[2 * (taps - 1 + i) + 1] = static_cast<float>(in[i].imag());
  }
  const std::size_t count = (phase_ + n) / decim;
  for (auto& lane : lanes_) lane.resize(count);
  const float* hd = proto_f_.data();
  float* v = spec_f_.data();
  auto* vc = reinterpret_cast<std::complex<float>*>(spec_f_.data());
  const auto& kt = simd::kernels();
  std::size_t f = 0;
  // Same frame grid as the float64 path (identical phase arithmetic), so
  // frame timestamps are bit-identical across fold precisions.
  for (std::size_t i = decim - 1 - phase_; i < n; i += decim, ++f) {
    kt.chzr_bucket_cf32(wf + 2 * i, hd, taps, fft_size, v);
    fft_->forward_bitrev_f(vc);
    for (std::size_t k = 0; k < lane_f32_.size(); ++k) {
      LaneF32& c = lane_f32_[k];
      const float br = v[2 * c.pos];
      const float bi = v[2 * c.pos + 1];
      lanes_[k][f] = cplx{static_cast<double>(br * c.re - bi * c.im),
                          static_cast<double>(br * c.im + bi * c.re)};
      const float nre = c.re * c.rre - c.im * c.rim;
      const float nim = c.re * c.rim + c.im * c.rre;
      c.re = nre;
      c.im = nim;
      c.phase += c.step;
    }
    if (--f32_reseed_left_ == 0) {
      // Chunk boundary (SimdNco idiom): fold the accumulated float32
      // phase/magnitude drift back to the double master.
      f32_reseed_left_ = kF32ReseedFrames;
      for (LaneF32& c : lane_f32_) {
        c.phase = std::fmod(c.phase, kTwoPi);
        c.re = static_cast<float>(std::cos(c.phase));
        c.im = static_cast<float>(std::sin(c.phase));
      }
    }
  }
  phase_ = (phase_ + n) % decim;
  std::copy(work_f_.end() - static_cast<std::ptrdiff_t>(2 * (taps - 1)),
            work_f_.end(), work_f_.begin());
  work_f_.resize(2 * (taps - 1));
  last_frames_ = count;
  frames_produced_ += count;
  return count;
}

}  // namespace arachnet::dsp
