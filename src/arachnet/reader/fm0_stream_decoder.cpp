#include "arachnet/reader/fm0_stream_decoder.hpp"

#include <cmath>

namespace arachnet::reader {

Fm0StreamDecoder::Symbol Fm0StreamDecoder::push_run(double duration_s) {
  const double chips = duration_s / params_.chip_duration_s;
  if (std::abs(chips - 1.0) <= params_.tolerance) {
    // Half a bit: the first half of a 0, or its second half.
    pending_half_ = !pending_half_;
    return pending_half_ ? Symbol::kNone : Symbol::kZero;
  }
  if (std::abs(chips - 2.0) <= 2.0 * params_.tolerance) {
    // A full-bit run: FM0 bit 1. A 2-chip run always spans a whole bit, so
    // it must start at a bit boundary; a pending half was a phase error
    // (e.g. the inter-packet silence swallowed one chip) and is dropped.
    pending_half_ = false;
    return Symbol::kOne;
  }
  pending_half_ = false;
  return Symbol::kDesync;
}

}  // namespace arachnet::reader
