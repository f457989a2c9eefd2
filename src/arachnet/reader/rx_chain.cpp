#include "arachnet/reader/rx_chain.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <stdexcept>

namespace arachnet::reader {
namespace {

/// IQ samples of leak warm-up (and decision mute) after construction,
/// resync() and reset(), and the leak EMA rate during them.
constexpr std::size_t kLeakWarmupSamples = 300;
constexpr double kLeakWarmupAlpha = 0.05;

dsp::Ddc::Params resolve_ddc(const RxChain::Params& p) {
  // Checked first: the cutoff below and the per-chip rule divide by or
  // scale with it.
  if (!std::isfinite(p.chip_rate) || p.chip_rate <= 0.0) {
    throw std::invalid_argument(
        "RxChain: chip_rate must be finite and positive");
  }
  dsp::Ddc::Params ddc = p.ddc;
  ddc.cutoff_hz = std::clamp(3.5 * p.chip_rate, 1.5e3, 12.5e3);
  return ddc;
}

}  // namespace

RxChain::RxChain(Params params)
    : params_(params),
      ddc_(resolve_ddc(params)),
      leak_alpha_(per_sample_alpha(params.leak_ema_alpha,
                                   ddc_.output_rate_hz() / params.chip_rate)),
      decision_(
          [&] {
            // Baseband noise grows with the square root of the filter
            // bandwidth; keep the squelch floor proportional (reference:
            // 0.002 at 1.5 kHz). The axis ignores samples below it too.
            const double floor =
                0.002 * std::sqrt(ddc_.params().cutoff_hz / 1.5e3);
            return DecisionChain::Params{.rate_hz = ddc_.output_rate_hz(),
                                         .chip_rate = params.chip_rate,
                                         .slicer_floor = floor,
                                         .axis_floor = floor};
          }(),
          [this](const phy::UlPacket& pkt, std::uint64_t stamp) {
            packets_.push_back(RxPacket{
                pkt,
                static_cast<double>(stamp) / params_.ddc.sample_rate_hz});
          }) {}

void RxChain::on_iq(std::complex<double> iq, std::uint64_t stamp) {
  // A NaN or Inf (or absurdly large) sample updates no estimator: fed to
  // the leak EMA, the axis or the slicer levels it would stick there and
  // silence the chain for good. It still takes its place in time — the
  // held decision level extends the current run.
  const bool finite = dsp::AxisTracker::finite(iq);
  // Optional one-shot frequency-offset calibration (paper lists a
  // "frequency offset calibration" block): estimate from the leak-dominated
  // early samples, then derotate the live stream.
  if (params_.freq_cal_samples > 0 && !freq_calibrated_) {
    if (finite) cal_buffer_.push_back(iq);
    if (cal_buffer_.size() >= params_.freq_cal_samples) {
      freq_offset_hz_ =
          dsp::estimate_frequency_offset(cal_buffer_, ddc_.output_rate_hz());
      freq_calibrated_ = true;
      derotator_.set(0.0, derotation_step());
      cal_buffer_.clear();
      cal_buffer_.shrink_to_fit();
    }
    return;  // calibration samples are not decoded
  }
  // Derotation by -offset, phase-locked to iq_sample_index_ (a phasor
  // recurrence: no per-sample cos/sin).
  if (freq_calibrated_ && freq_offset_hz_ != 0.0) iq *= derotator_.next();
  ++iq_sample_index_;

  // Leak cancellation + axis projection. A slow complex EMA converges on
  // the static carrier-leak phasor (plus the mean reflection level); the
  // back end projects the residual onto the tag's modulation line.
  std::optional<double> envelope;
  if (finite) {
    if (params_.retain_iq_points) iq_points_.push_back(iq);
    if (!leak_primed_) {
      leak_estimate_ = iq;
      leak_primed_ = true;
    } else {
      const double alpha = iq_sample_index_ < kLeakWarmupSamples
                               ? kLeakWarmupAlpha
                               : leak_alpha_;
      leak_estimate_ += alpha * (iq - leak_estimate_);
    }
    envelope = decision_.project(iq - leak_estimate_);
  }
  // The filter/leak start-up transient would poison the slicer's primed
  // levels; keep the decision path muted until the warm-up completes.
  if (iq_sample_index_ <= kLeakWarmupSamples) return;
  decision_.decide(envelope, stamp);
}

void RxChain::process(const double* samples, std::size_t n) {
  // One pass of the DDC over the whole block, then the per-IQ decision
  // chain. Packet timestamps are the per-sample ones: an IQ sample
  // emitted at raw sample k is stamped k, reconstructed from the
  // decimation phase the DDC had when the block began.
  const std::size_t phase = ddc_.decimation_phase();
  const std::size_t base = sample_count_;
  const std::size_t decim = params_.ddc.decimation;
  iq_buf_.clear();
  const std::size_t got =
      ddc_.process(std::span<const double>{samples, n}, iq_buf_);
  for (std::size_t j = 0; j < got; ++j) {
    on_iq(iq_buf_[j], base + (decim - phase) + j * decim);
  }
  sample_count_ = base + n;
  decision_.publish(got);
}

double RxChain::derotation_step() const noexcept {
  return -2.0 * std::numbers::pi * freq_offset_hz_ / ddc_.output_rate_hz();
}

bool RxChain::collision_detected(sim::Rng& rng) const {
  return dsp::detect_collision_iq(iq_points_, rng);
}

void RxChain::resync() {
  decision_.reset();
  // Restart the leak warm-up: the next kLeakWarmupSamples IQ samples (the
  // quiet reply gap) re-estimate the baseline with the fast alpha while
  // the decision path stays muted.
  iq_sample_index_ = 0;
  derotator_.set(0.0, derotation_step());
}

void RxChain::reset() {
  ddc_.reset();
  decision_.reset();
  iq_points_.clear();
  freq_calibrated_ = false;
  freq_offset_hz_ = 0.0;
  cal_buffer_.clear();
  iq_sample_index_ = 0;
  leak_estimate_ = {0.0, 0.0};
  leak_primed_ = false;
}

}  // namespace arachnet::reader
