#include "arachnet/reader/rx_chain.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <stdexcept>

namespace arachnet::reader {
namespace {

/// Leak warm-up (and decision mute) after construction, resync() and
/// reset(). 9.6 ms is 300 IQ samples at D = 16 and 38 at D = 128: at every
/// D it ends inside the tag's 20 ms reply gap that resync() relies on.
constexpr double kLeakWarmupS = 9.6e-3;
/// The leak EMA rate during the warm-up, 0.05 per 16 raw samples (one IQ
/// sample at D = 16): its time constant is fixed too.
constexpr double kLeakWarmupAlpha = 0.05;
constexpr std::size_t kLeakWarmupAlphaSpan = 16;

/// The warm-up's leak EMA rate per IQ sample at decimation `d`: 0.05
/// compounded over d / 16 steps (0.34 at D = 128), so the warm-up cancels
/// a leak step as deeply at every D (to ~2e-7 of it). The literal keeps
/// D = 16 chains bit-identical: 1 - 0.95 is not 0.05 in floating point.
double warmup_alpha(std::size_t d) {
  if (d == kLeakWarmupAlphaSpan) return kLeakWarmupAlpha;
  const double samples_per_span =
      static_cast<double>(kLeakWarmupAlphaSpan) / static_cast<double>(d);
  return per_sample_alpha(kLeakWarmupAlpha, samples_per_span);
}

/// The caller's settings with the DDC's decimation, taps and cutoff
/// resolved from the chip rate.
RxChain::Params resolved(RxChain::Params p) {
  // Checked first: the rules below divide by or scale with it.
  if (!std::isfinite(p.chip_rate) || p.chip_rate <= 0.0) {
    throw std::invalid_argument(
        "RxChain: chip_rate must be finite and positive");
  }
  if (!std::isfinite(p.freq_cal_s) || p.freq_cal_s < 0.0) {
    throw std::invalid_argument(
        "RxChain: freq_cal_s must be finite and non-negative");
  }
  const auto d = DecisionChain::decimation(p.ddc.sample_rate_hz, p.chip_rate);
  p.ddc.decimation = d.factor;
  p.ddc.taps = d.taps;
  p.ddc.cutoff_hz = std::clamp(3.5 * p.chip_rate, 1.5e3, 12.5e3);
  return p;
}

/// IQ samples in `seconds` at `iq_rate_hz`, to the nearest.
std::size_t iq_samples_in(double seconds, double iq_rate_hz) {
  return static_cast<std::size_t>(std::llround(seconds * iq_rate_hz));
}

}  // namespace

RxChain::RxChain(Params params)
    : params_(resolved(params)),
      ddc_(params_.ddc),
      warmup_samples_(iq_samples_in(kLeakWarmupS, ddc_.output_rate_hz())),
      warmup_alpha_(warmup_alpha(params_.ddc.decimation)),
      freq_cal_samples_(
          iq_samples_in(params_.freq_cal_s, ddc_.output_rate_hz())),
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
          }()) {}

std::optional<phy::UlPacket> RxChain::on_iq(std::complex<double> iq) {
  // A NaN or Inf (or absurdly large) sample updates no estimator: fed to
  // the leak EMA, the axis or the slicer levels it would stick there and
  // silence the chain for good. It still takes its place in time — the
  // held decision level extends the current run.
  const bool finite = dsp::AxisTracker::finite(iq);
  // Optional one-shot frequency-offset calibration (paper lists a
  // "frequency offset calibration" block): estimate from the leak-dominated
  // early samples, then derotate the live stream.
  if (freq_cal_samples_ > 0 && !freq_calibrated_) {
    if (finite) cal_buffer_.push_back(iq);
    if (cal_buffer_.size() >= freq_cal_samples_) {
      freq_offset_hz_ =
          dsp::estimate_frequency_offset(cal_buffer_, ddc_.output_rate_hz());
      freq_calibrated_ = true;
      derotator_.set(0.0, derotation_step());
      cal_buffer_.clear();
      cal_buffer_.shrink_to_fit();
    }
    return std::nullopt;  // calibration samples are not decoded
  }
  // Derotation by -offset, phase-locked to iq_sample_index_ (a phasor
  // recurrence: no per-sample cos/sin).
  if (freq_calibrated_ && freq_offset_hz_ != 0.0) iq *= derotator_.next();
  ++iq_sample_index_;

  // Leak cancellation. A slow complex EMA converges on the static
  // carrier-leak phasor (plus the mean reflection level).
  if (finite) {
    if (params_.retain_iq_points) iq_points_.push_back(iq);
    if (!leak_primed_) {
      leak_estimate_ = iq;
      leak_primed_ = true;
    } else {
      const double alpha =
          iq_sample_index_ < warmup_samples_ ? warmup_alpha_ : leak_alpha_;
      leak_estimate_ += alpha * (iq - leak_estimate_);
    }
  }
  // The filter start-up transient and the residual the leak EMA is still
  // cancelling would poison the axis and the slicer's primed levels: the
  // back end sees no sample until the warm-up completes, so its axis
  // starts from scratch at the first decided sample.
  if (iq_sample_index_ <= warmup_samples_) return std::nullopt;
  // The back end projects the residual onto the tag's modulation line.
  const std::optional<double> envelope =
      finite ? decision_.project(iq - leak_estimate_) : std::nullopt;
  return decision_.decide(envelope);
}

void RxChain::process(const double* samples, std::size_t n) {
  // One pass of the DDC over the whole block, then the per-IQ decision
  // chain. Packet timestamps are the per-sample ones: a packet completed
  // by the IQ sample emitted at raw sample k is stamped k, reconstructed
  // from the decimation phase the DDC had when the block began.
  const std::size_t phase = ddc_.decimation_phase();
  const std::size_t base = sample_count_;
  const std::size_t decim = params_.ddc.decimation;  // the derived D
  iq_buf_.clear();
  const std::size_t got =
      ddc_.process(std::span<const double>{samples, n}, iq_buf_);
  for (std::size_t j = 0; j < got; ++j) {
    if (const auto pkt = on_iq(iq_buf_[j])) {
      const std::uint64_t stamp = base + (decim - phase) + j * decim;
      packets_.push_back(RxPacket{
          *pkt, static_cast<double>(stamp) / params_.ddc.sample_rate_hz});
    }
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
  // Restart the leak warm-up: the next kLeakWarmupS of IQ samples (inside
  // the quiet reply gap) re-estimate the baseline at the warm-up rate while
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
