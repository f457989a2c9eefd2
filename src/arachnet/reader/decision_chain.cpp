#include "arachnet/reader/decision_chain.hpp"

#include <algorithm>
#include <cmath>

namespace arachnet::reader {

namespace {

dsp::AdaptiveSlicer::Params slicer_params(const DecisionChain::Rule& rule,
                                          double floor) {
  dsp::AdaptiveSlicer::Params sp;
  sp.track_alpha = rule.track_alpha;
  sp.capture_alpha = rule.capture_alpha;
  sp.leak_alpha = rule.leak_alpha;
  sp.floor = floor;
  return sp;
}

}  // namespace

double per_sample_alpha(double per_chip, double samples_per_chip) {
  return 1.0 - std::pow(1.0 - per_chip, 1.0 / samples_per_chip);
}

DecisionChain::Rule DecisionChain::rule(double samples_per_chip) noexcept {
  // The dynamics must be constant per *chip*, not per sample, or slow links
  // drain the tracked levels over their long plateaus. The axis locks
  // within the pilot at every rate. Capture goes through exp2, whose
  // exponent is exactly -1 at 125/3 samples per chip, so the single chain
  // captures at exactly 0.5 per sample there; per_sample_alpha's pow need
  // not round to it.
  constexpr double kCaptureSamplesPerChip = 125.0 / 3.0;
  return Rule{
      .axis_alpha = per_sample_alpha(0.5, samples_per_chip),
      .track_alpha = per_sample_alpha(0.98, samples_per_chip),
      .leak_alpha = per_sample_alpha(0.04, samples_per_chip),
      .capture_alpha =
          1.0 - std::exp2(-kCaptureSamplesPerChip / samples_per_chip),
      .debounce = static_cast<std::size_t>(
          std::max(1.0, 0.12 * samples_per_chip)),
  };
}

DecisionChain::Decimation DecisionChain::decimation(double sample_rate_hz,
                                                    double chip_rate) noexcept {
  // The chain needs ~32 samples per chip to hold Fig. 12; past that each
  // halving of the rate halves its cost. The cap bounds the filter length
  // for any slow (or zero) chip rate.
  constexpr std::size_t kMin = 16;
  constexpr std::size_t kMax = 128;
  constexpr double kMinSamplesPerChip = 32.0;
  std::size_t factor = kMin;
  while (factor < kMax &&
         sample_rate_hz / (2.0 * static_cast<double>(factor) * chip_rate) >=
             kMinSamplesPerChip) {
    factor *= 2;
  }
  return Decimation{.factor = factor, .taps = 8 * factor + 1};
}

DecisionChain::DecisionChain(Params params)
    : DecisionChain(params, rule(params.rate_hz / params.chip_rate)) {}

DecisionChain::DecisionChain(const Params& params, const Rule& rule)
    : rate_hz_(params.rate_hz),
      axis_(rule.axis_alpha, params.axis_floor),
      slicer_(slicer_params(rule, params.slicer_floor)),
      debouncer_(rule.debounce),
      fm0_(Fm0StreamDecoder::Params{.chip_duration_s = 1.0 / params.chip_rate,
                                    .tolerance = 0.35}) {}

std::optional<phy::UlPacket> DecisionChain::decode_run(std::size_t samples) {
  using Symbol = Fm0StreamDecoder::Symbol;
  switch (fm0_.push_run(static_cast<double>(samples) / rate_hz_)) {
    case Symbol::kNone:
      return std::nullopt;
    case Symbol::kDesync:
      // Silence or noise: a body in progress cannot continue across it.
      framer_.reset();
      return std::nullopt;
    case Symbol::kZero:
      ++bits_;
      return framer_.push(false);
    case Symbol::kOne:
      ++bits_;
      return framer_.push(true);
  }
  return std::nullopt;
}

void DecisionChain::publish(std::size_t samples) {
  iq_samples_ += samples;
  const DecisionCounts now = counts();
  pub_iq_samples_.store(now.iq_samples, std::memory_order_relaxed);
  pub_bits_.store(now.bits, std::memory_order_relaxed);
  pub_frames_.store(now.frames_ok, std::memory_order_relaxed);
  pub_crc_.store(now.crc_failures, std::memory_order_relaxed);
  // Registry counters, as deltas (one pointer test when unbound).
  if (m_iq_samples_ != nullptr) {
    m_iq_samples_->add(now.iq_samples - last_published_.iq_samples);
    m_bits_->add(now.bits - last_published_.bits);
    m_frames_->add(now.frames_ok - last_published_.frames_ok);
    m_crc_->add(now.crc_failures - last_published_.crc_failures);
  }
  last_published_ = now;
}

void DecisionChain::bind(telemetry::Counter* iq_samples,
                         telemetry::Counter* bits,
                         telemetry::Counter* frames_ok,
                         telemetry::Counter* crc_failures) {
  m_iq_samples_ = iq_samples;
  m_bits_ = bits;
  m_frames_ = frames_ok;
  m_crc_ = crc_failures;
}

DecisionCounts DecisionChain::counts() const noexcept {
  return DecisionCounts{
      .iq_samples = iq_samples_,
      .bits = bits_,
      .frames_ok = framer_.packets(),
      .crc_failures = framer_.crc_failures(),
  };
}

DecisionCounts DecisionChain::published() const noexcept {
  return DecisionCounts{
      .iq_samples = pub_iq_samples_.load(std::memory_order_relaxed),
      .bits = pub_bits_.load(std::memory_order_relaxed),
      .frames_ok = pub_frames_.load(std::memory_order_relaxed),
      .crc_failures = pub_crc_.load(std::memory_order_relaxed),
  };
}

void DecisionChain::reset() {
  axis_.reset();
  slicer_.reset();
  debouncer_.reset();
  runs_.reset();
  fm0_.reset();
  framer_.reset();
}

}  // namespace arachnet::reader
