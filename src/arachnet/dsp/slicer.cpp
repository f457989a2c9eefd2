#include "arachnet/dsp/slicer.hpp"

namespace arachnet::dsp {

AdaptiveSlicer::AdaptiveSlicer() : params_(Params{}) {}

void AdaptiveSlicer::reset() noexcept {
  hi_ = lo_ = 0.0;
  primed_ = false;
  level_ = false;
}

Debouncer::Debouncer(std::size_t hold) : hold_(hold == 0 ? 1 : hold) {}

void Debouncer::reset() noexcept {
  primed_ = false;
  stable_ = candidate_ = false;
  count_ = 0;
}

void RunLengthEncoder::reset() noexcept {
  started_ = false;
  count_ = 0;
}

}  // namespace arachnet::dsp
