#include "arachnet/acoustic/waveform_channel.hpp"

#include <cmath>
#include <numbers>

#include "arachnet/dsp/kernels/nco.hpp"

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

}  // namespace

std::vector<double> UplinkWaveformSynth::synthesize(
    const std::vector<BackscatterSource>& sources, double duration_s,
    sim::Rng& rng) {
  const auto n = static_cast<std::size_t>(duration_s * params_.sample_rate_hz);
  std::vector<double> out(n, 0.0);
  const double dt = 1.0 / params_.sample_rate_hz;
  const double w_carrier = 2.0 * std::numbers::pi * params_.carrier_hz;
  const double w_ambient = 2.0 * std::numbers::pi * params_.ambient_hz;
  // One-pole smoothing coefficient for the mechanical ring.
  const double alpha =
      params_.ring_tau_s > 0.0 ? std::exp(-dt / params_.ring_tau_s) : 0.0;

  // Per-source smoothed reflection state, seeded at the absorptive level.
  std::vector<double> smoothed(sources.size());
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
    return out;
  }

  // kSimd path. The carrier phasor e^{jw(t0+i*dt)} is rendered once with a
  // recurrence NCO; the leak term is its real part and every source term is
  // the same block rotated by the source's constant phase offset:
  // cos(wt + phi) = Re(e^{jwt}) cos(phi) - Im(e^{jwt}) sin(phi). The
  // per-sample chip lookup is hoisted into run-length segments, so the
  // inner loop is a branch-free EMA + multiply-add. The summation order
  // per sample (leak, sources in order, ambient, noise) matches the scalar
  // path; the noise draw sequence is identical.
  osc_buf_.resize(n);
  dsp::PhasorNco carrier{w_carrier * t0_, w_carrier * dt};
  carrier.fill(osc_buf_.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = params_.carrier_leak_amplitude * osc_buf_[i].real();
  }
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const auto& src = sources[s];
    const double rot_re = std::cos(src.phase_rad);
    const double rot_im = std::sin(src.phase_rad);
    double sm = smoothed[s];
    std::size_t i = 0;
    while (i < n) {
      const double target = target_at(src, i, dt);
      const std::size_t end = segment_end(src, i, n, dt);
      const double step = (1.0 - alpha) * target;
      for (std::size_t k = i; k < end; ++k) {
        sm = alpha * sm + step;
        out[k] += src.amplitude * sm *
                  (osc_buf_[k].real() * rot_re - osc_buf_[k].imag() * rot_im);
      }
      i = end;
    }
    smoothed[s] = sm;
  }
  if (params_.ambient_amplitude != 0.0) {
    dsp::PhasorNco ambient{w_ambient * t0_, w_ambient * dt};
    ambient.fill(osc_buf_.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] += params_.ambient_amplitude * osc_buf_[i].imag();
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] += rng.normal(0.0, params_.noise_sigma);
  }
  t0_ += static_cast<double>(n) * dt;
  return out;
}

}  // namespace arachnet::acoustic
