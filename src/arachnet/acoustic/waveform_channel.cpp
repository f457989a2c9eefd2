#include "arachnet/acoustic/waveform_channel.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "arachnet/dsp/kernels/nco.hpp"
#include "arachnet/dsp/kernels/simd/simd_kernels.hpp"

namespace arachnet::acoustic {
namespace {

/// Chip-target level of `src` at sample index `i` — the exact expression
/// the scalar path evaluates per sample.
double target_at(const BackscatterSource& src, std::size_t i, double dt) {
  double target = src.absorb_coeff;
  const double rel = static_cast<double>(i) * dt - src.start_s;
  if (rel >= 0.0 && src.chip_rate > 0.0) {
    const auto chip_idx = static_cast<std::size_t>(rel * src.chip_rate);
    if (!src.levels.empty()) {
      if (chip_idx < src.levels.size()) target = src.levels[chip_idx];
    } else if (chip_idx < src.chips.size()) {
      target = src.chips[chip_idx] ? src.reflect_coeff : src.absorb_coeff;
    }
  }
  return target;
}

/// First sample index in (i, n] where target_at() can change: the next
/// chip boundary (or burst start) of `src`. The candidate index comes from
/// the closed-form boundary time; it is then nudged against the exact
/// per-sample predicate so the segmentation agrees with the scalar path
/// even when the division rounds across a sample.
std::size_t segment_end(const BackscatterSource& src, std::size_t i,
                        std::size_t n, double dt) {
  if (src.chip_rate <= 0.0) return n;
  const double rel = static_cast<double>(i) * dt - src.start_s;
  double boundary_s;
  if (rel < 0.0) {
    boundary_s = src.start_s;  // burst not started: next change at start_s
  } else {
    const auto chip_idx = static_cast<std::size_t>(rel * src.chip_rate);
    const std::size_t chips =
        src.levels.empty() ? src.chips.size() : src.levels.size();
    if (chip_idx >= chips) return n;  // past the burst: absorptive forever
    boundary_s =
        static_cast<double>(chip_idx + 1) / src.chip_rate + src.start_s;
  }
  const double cand = std::ceil(boundary_s / dt);
  std::size_t b =
      cand <= static_cast<double>(i + 1)
          ? i + 1
          : (cand >= static_cast<double>(n) ? n
                                            : static_cast<std::size_t>(cand));
  // Exact predicate: does sample j still see the same chip state as i?
  const auto same_state = [&](std::size_t j) {
    const double rj = static_cast<double>(j) * dt - src.start_s;
    if (rel < 0.0) return rj < 0.0;
    return rj >= 0.0 && static_cast<std::size_t>(rj * src.chip_rate) ==
                            static_cast<std::size_t>(rel * src.chip_rate);
  };
  while (b > i + 1 && !same_state(b - 1)) --b;
  while (b < n && same_state(b)) ++b;
  return b;
}

/// Noise deviates per normal_block() call on the kSimd path: a bounded
/// stack chunk, however long the window.
constexpr std::size_t kNoiseChunk = 512;

/// Oscillator samples rendered per pass on the kSimd path (64 KiB of
/// scratch, however long the window; a multiple of 4, as
/// dsp::PhasorNco::Block requires).
constexpr std::size_t kOscChunk = 4096;

}  // namespace

UplinkWaveformSynth::UplinkWaveformSynth(Params params)
    : params_(params), osc_buf_(kOscChunk) {
  if (!std::isfinite(params_.sample_rate_hz) ||
      params_.sample_rate_hz <= 0.0) {
    throw std::invalid_argument(
        "UplinkWaveformSynth: sample_rate_hz must be finite and positive");
  }
}

std::size_t UplinkWaveformSynth::window_samples(double duration_s) const {
  // The sample count must be a representable size_t: NaN, negative or
  // overflowing counts are undefined in the cast below.
  const double count = duration_s * params_.sample_rate_hz;
  if (!(duration_s >= 0.0) || !(count < 0x1p64)) {
    throw std::invalid_argument(
        "UplinkWaveformSynth: duration_s must be finite, non-negative and "
        "span a sample count that fits size_t");
  }
  return static_cast<std::size_t>(count);
}

std::vector<double> UplinkWaveformSynth::synthesize(
    const std::vector<BackscatterSource>& sources, double duration_s,
    sim::Rng& rng) {
  std::vector<double> out;
  synthesize(sources, duration_s, rng, out);
  return out;
}

void UplinkWaveformSynth::synthesize(
    const std::vector<BackscatterSource>& sources, double duration_s,
    sim::Rng& rng, std::vector<double>& out) {
  const std::size_t n = window_samples(duration_s);
  out.resize(n);
  const double dt = 1.0 / params_.sample_rate_hz;
  const double w_carrier = 2.0 * std::numbers::pi * params_.carrier_hz;
  const double w_ambient = 2.0 * std::numbers::pi * params_.ambient_hz;
  // One-pole smoothing coefficient for the mechanical ring.
  const double alpha =
      params_.ring_tau_s > 0.0 ? std::exp(-dt / params_.ring_tau_s) : 0.0;

  // Per-source smoothed reflection state, seeded at the absorptive level.
  std::vector<double>& smoothed = smoothed_;
  smoothed.resize(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    smoothed[s] = sources[s].absorb_coeff;
  }

  if (params_.kernels == dsp::KernelPolicy::kScalar) {
    for (std::size_t i = 0; i < n; ++i) {
      const double t_local = static_cast<double>(i) * dt;
      const double t = t0_ + t_local;  // absolute: phases continue over calls
      double sample =
          params_.carrier_leak_amplitude * std::cos(w_carrier * t);
      for (std::size_t s = 0; s < sources.size(); ++s) {
        const auto& src = sources[s];
        // Chip value at time t: absorptive outside the burst.
        double target = src.absorb_coeff;
        const double rel = t_local - src.start_s;
        if (rel >= 0.0 && src.chip_rate > 0.0) {
          const auto chip_idx = static_cast<std::size_t>(rel * src.chip_rate);
          if (!src.levels.empty()) {
            if (chip_idx < src.levels.size()) target = src.levels[chip_idx];
          } else if (chip_idx < src.chips.size()) {
            target =
                src.chips[chip_idx] ? src.reflect_coeff : src.absorb_coeff;
          }
        }
        smoothed[s] = alpha * smoothed[s] + (1.0 - alpha) * target;
        sample += src.amplitude * smoothed[s] *
                  std::cos(w_carrier * t + src.phase_rad);
      }
      if (params_.ambient_amplitude != 0.0) {
        sample += params_.ambient_amplitude * std::sin(w_ambient * t);
      }
      sample += rng.normal(0.0, params_.noise_sigma);
      out[i] = sample;
    }
    t0_ += static_cast<double>(n) * dt;
    return;
  }

  // kSimd path. The carrier phasor e^{jw(t0+i*dt)} is rendered once with a
  // recurrence NCO; the leak term is its real part and every source term is
  // the same block rotated by the source's constant phase offset:
  // cos(wt + phi) = Re(e^{jwt}) cos(phi) - Im(e^{jwt}) sin(phi). The
  // per-sample chip lookup is hoisted into run-length segments, so the
  // inner loop is a branch-free EMA + multiply-add. The summation order
  // per sample (leak, sources in order, ambient, noise) matches the scalar
  // path. The oscillators stream through osc_buf_ kOscChunk samples at a
  // time. The noise is drawn a chunk at a time: normal_block() consumes
  // the generator exactly as one normal() per sample would, and the kernel
  // table's Box-Muller turns the uniforms into deviates.
  dsp::PhasorNco carrier_nco{w_carrier * t0_, w_carrier * dt};
  dsp::PhasorNco ambient_nco{w_ambient * t0_, w_ambient * dt};
  dsp::PhasorNco::Block carrier{carrier_nco, n};
  dsp::PhasorNco::Block ambient{ambient_nco, n};
  const std::size_t ns = sources.size();
  lanes_.resize(ns);
  for (std::size_t s = 0; s < ns; ++s) {
    lanes_[s] = {std::cos(sources[s].phase_rad),
                 std::sin(sources[s].phase_rad), 0.0, 0};
  }
  for (std::size_t c = 0; c < n; c += kOscChunk) {
    const std::size_t c_end = std::min(n, c + kOscChunk);
    carrier.next(osc_buf_.data(), c_end - c);
    // The leak and the sources in one pass. The sources advance together,
    // one run at a time, where a run ends at the next chip boundary of any
    // source (or at the chunk's end): their ring recurrences are
    // independent chains, which the pass overlaps, and each sample still
    // adds them in order.
    for (std::size_t run = c; run < c_end;) {
      std::size_t run_end = c_end;
      for (std::size_t s = 0; s < ns; ++s) {
        SourceLane& lane = lanes_[s];
        if (lane.end == run) {  // this source's chip target changes here
          lane.step = (1.0 - alpha) * target_at(sources[s], run, dt);
          lane.end = segment_end(sources[s], run, n, dt);
        }
        run_end = std::min(run_end, lane.end);
      }
      for (std::size_t k = run; k < run_end; ++k) {
        const double re = osc_buf_[k - c].real();
        const double im = osc_buf_[k - c].imag();
        double acc = params_.carrier_leak_amplitude * re;
        for (std::size_t s = 0; s < ns; ++s) {
          const SourceLane& lane = lanes_[s];
          smoothed[s] = alpha * smoothed[s] + lane.step;
          acc += sources[s].amplitude * smoothed[s] *
                 (re * lane.rot_re - im * lane.rot_im);
        }
        out[k] = acc;
      }
      run = run_end;
    }
    if (params_.ambient_amplitude != 0.0) {
      ambient.next(osc_buf_.data(), c_end - c);
      for (std::size_t k = c; k < c_end; ++k) {
        out[k] += params_.ambient_amplitude * osc_buf_[k - c].imag();
      }
    }
  }
  const sim::Rng::BoxMuller box_muller = dsp::simd::kernels().box_muller_f64;
  double z[kNoiseChunk];
  for (std::size_t i = 0; i < n; i += kNoiseChunk) {
    const std::size_t m = std::min(kNoiseChunk, n - i);
    rng.normal_block(z, m, box_muller);
    for (std::size_t k = 0; k < m; ++k) {
      out[i + k] += params_.noise_sigma * z[k];
    }
  }
  t0_ += static_cast<double>(n) * dt;
}

}  // namespace arachnet::acoustic
