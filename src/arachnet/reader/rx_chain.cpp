#include "arachnet/reader/rx_chain.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>

namespace arachnet::reader {
namespace {

dsp::Ddc::Params resolve_ddc(const RxChain::Params& p) {
  dsp::Ddc::Params ddc = p.ddc;
  if (p.auto_bandwidth) {
    ddc.cutoff_hz = std::clamp(3.5 * p.chip_rate, 1.5e3, 12.5e3);
  }
  return ddc;
}

}  // namespace

double per_sample_alpha(double per_chip, double samples_per_chip) {
  return 1.0 - std::pow(1.0 - per_chip, 1.0 / samples_per_chip);
}

dsp::AdaptiveSlicer::Params resolve_slicer(const RxChain::Params& p) {
  dsp::AdaptiveSlicer::Params slicer = p.slicer;
  if (p.auto_bandwidth) {
    // Baseband noise grows with the square root of the resolved filter
    // bandwidth; keep the squelch floor proportional (reference: 1.5 kHz).
    slicer.floor *= std::sqrt(resolve_ddc(p).cutoff_hz / 1.5e3);
    // The slicer's dynamics must be constant per *chip*, not per sample,
    // or slow links drain the tracked levels over their long plateaus.
    // Targets: ~98% level acquisition and ~4% decay per chip.
    const double iq_rate =
        p.ddc.sample_rate_hz / static_cast<double>(p.ddc.decimation);
    const double samples_per_chip = iq_rate / p.chip_rate;
    slicer.track_alpha = per_sample_alpha(0.98, samples_per_chip);
    slicer.leak_alpha = per_sample_alpha(0.04, samples_per_chip);
  }
  return slicer;
}

std::size_t resolve_debounce(const RxChain::Params& p) {
  const double iq_rate =
      p.ddc.sample_rate_hz / static_cast<double>(p.ddc.decimation);
  const double samples_per_chip = iq_rate / p.chip_rate;
  // Suppress glitches shorter than ~12% of a chip.
  return static_cast<std::size_t>(std::max(1.0, 0.12 * samples_per_chip));
}

double resolve_leak_alpha(const RxChain::Params& p) {
  if (!p.auto_bandwidth) return p.leak_ema_alpha;
  const double iq_rate =
      p.ddc.sample_rate_hz / static_cast<double>(p.ddc.decimation);
  return per_sample_alpha(p.leak_ema_alpha, iq_rate / p.chip_rate);
}

double resolve_axis_alpha(const RxChain::Params& p) {
  if (!p.auto_bandwidth) return p.axis_ema_alpha;
  const double iq_rate =
      p.ddc.sample_rate_hz / static_cast<double>(p.ddc.decimation);
  // ~50% convergence per chip: locks within the pilot at every rate.
  return per_sample_alpha(0.5, iq_rate / p.chip_rate);
}

RxChain::RxChain(Params params)
    : params_(params),
      ddc_(resolve_ddc(params)),
      slicer_(resolve_slicer(params)),
      debouncer_(resolve_debounce(params)),
      axis_(resolve_axis_alpha(params), slicer_.params().floor),
      leak_alpha_(resolve_leak_alpha(params)),
      fm0_(Fm0StreamDecoder::Params{.chip_duration_s = 1.0 / params.chip_rate,
                                    .tolerance = 0.35},
           /*on_bit=*/
           [this](bool bit) {
             ++bits_decoded_;
             framer_.push(bit);
           },
           /*on_desync=*/[this] { framer_.reset(); }),
      framer_([this](const phy::UlPacket& pkt) {
        packets_.push_back(RxPacket{
            pkt, static_cast<double>(sample_count_) /
                     params_.ddc.sample_rate_hz});
      }) {}

void RxChain::on_iq(std::complex<double> iq) {
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
  // shared axis step (dsp::AxisTracker) projects the residual onto the
  // tag's modulation line.
  std::optional<double> envelope;
  if (finite) {
    if (params_.retain_iq_points) iq_points_.push_back(iq);
    if (!leak_primed_) {
      leak_estimate_ = iq;
      leak_primed_ = true;
    } else {
      const double alpha = iq_sample_index_ < params_.leak_warmup_samples
                               ? params_.leak_warmup_alpha
                               : leak_alpha_;
      leak_estimate_ += alpha * (iq - leak_estimate_);
    }
    envelope = axis_.push(iq - leak_estimate_);
  }
  // The filter/leak start-up transient would poison the slicer's primed
  // levels; keep the decision path muted until the warmup completes.
  if (iq_sample_index_ <= params_.leak_warmup_samples) {
    if (iq_sample_index_ == params_.leak_warmup_samples) {
      slicer_.reset();
      debouncer_.reset();
      runs_.reset();
    }
    return;
  }
  const bool level = envelope ? debouncer_.push(slicer_.push(*envelope))
                              : debouncer_.level();
  if (const auto run = runs_.push(level)) {
    const double duration =
        static_cast<double>(run->samples) / ddc_.output_rate_hz();
    fm0_.push_run(duration);
  }
}

void RxChain::process(const double* samples, std::size_t n) {
  // One pass of the DDC over the whole block, then the per-IQ decision
  // chain. Packet timestamps are the per-sample ones: an IQ sample
  // emitted at raw sample k sees sample_count_ == k, so reconstruct that
  // count from the decimation phase the DDC had when the block began.
  const std::size_t phase = ddc_.decimation_phase();
  const std::size_t base = sample_count_;
  const std::size_t decim = params_.ddc.decimation;
  iq_buf_.clear();
  const std::size_t got =
      ddc_.process(std::span<const double>{samples, n}, iq_buf_);
  for (std::size_t j = 0; j < got; ++j) {
    sample_count_ = base + (decim - phase) + j * decim;
    on_iq(iq_buf_[j]);
  }
  sample_count_ = base + n;
}

double RxChain::derotation_step() const noexcept {
  return -2.0 * std::numbers::pi * freq_offset_hz_ / ddc_.output_rate_hz();
}

bool RxChain::collision_detected(sim::Rng& rng) const {
  return dsp::detect_collision_iq(iq_points_, rng);
}

void RxChain::resync() {
  slicer_.reset();
  debouncer_.reset();
  runs_.reset();
  fm0_.reset();
  framer_.reset();
  axis_.reset();
  // Restart the leak warmup: the next leak_warmup_samples IQ samples
  // (the quiet reply gap) re-estimate the baseline with the fast alpha
  // while the decision path stays muted.
  iq_sample_index_ = 0;
  derotator_.set(0.0, derotation_step());
}

void RxChain::reset() {
  ddc_.reset();
  slicer_.reset();
  debouncer_.reset();
  runs_.reset();
  fm0_.reset();
  framer_.reset();
  iq_points_.clear();
  freq_calibrated_ = false;
  freq_offset_hz_ = 0.0;
  cal_buffer_.clear();
  iq_sample_index_ = 0;
  leak_estimate_ = {0.0, 0.0};
  axis_.reset();
  leak_primed_ = false;
}

}  // namespace arachnet::reader
