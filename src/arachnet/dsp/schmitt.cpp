#include "arachnet/dsp/schmitt.hpp"

#include <cmath>
#include <stdexcept>

namespace arachnet::dsp {

SchmittTrigger::SchmittTrigger(double low, double high, bool initial)
    : low_(low), high_(high), level_(initial) {
  if (!(high > low)) {
    throw std::invalid_argument("SchmittTrigger: high must exceed low");
  }
}

bool SchmittTrigger::push(double x) noexcept {
  if (!level_ && x >= high_) {
    level_ = true;
  } else if (level_ && x <= low_) {
    level_ = false;
  }
  return level_;
}

AdaptiveSchmitt::AdaptiveSchmitt() : params_(Params{}) {}

bool AdaptiveSchmitt::push(double x) noexcept {
  scale_ += params_.ema_alpha * (std::abs(x) - scale_);
  const double threshold =
      params_.fraction * (scale_ < params_.floor ? params_.floor : scale_);
  if (!level_ && x >= threshold) {
    level_ = true;
  } else if (level_ && x <= -threshold) {
    level_ = false;
  }
  return level_;
}

void AdaptiveSchmitt::reset() noexcept {
  scale_ = 0.0;
  level_ = false;
}

void RunLengthEncoder::reset() noexcept {
  started_ = false;
  count_ = 0;
}

}  // namespace arachnet::dsp
