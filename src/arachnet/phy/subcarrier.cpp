#include "arachnet/phy/subcarrier.hpp"

#include <cmath>
#include <stdexcept>

namespace arachnet::phy {

SubcarrierModulator::SubcarrierModulator(Params params) : params_(params) {
  const double ratio = 2.0 * params_.subcarrier_hz / params_.chip_rate;
  half_periods_ = static_cast<int>(std::lround(ratio));
  if (half_periods_ < 2 ||
      std::abs(ratio - half_periods_) > 1e-9) {
    throw std::invalid_argument(
        "SubcarrierModulator: subcarrier must fit an integer number (>= 2) "
        "of half-periods per chip");
  }
}

BitVector SubcarrierModulator::modulate(const BitVector& chips) const {
  BitVector out;
  modulate(chips, out);
  return out;
}

void SubcarrierModulator::modulate(const BitVector& chips,
                                   BitVector& out) const {
  out.clear();
  bool sub_phase = false;
  for (std::size_t i = 0; i < chips.size(); ++i) {
    for (int h = 0; h < half_periods_; ++h) {
      out.push_back(chips[i] ^ sub_phase);
      sub_phase = !sub_phase;
    }
  }
}

BitVector SubcarrierModulator::demodulate(const BitVector& subchips) const {
  BitVector chips;
  bool sub_phase = false;
  for (std::size_t pos = 0; pos + half_periods_ <=
                            subchips.size() + static_cast<std::size_t>(0);
       pos += static_cast<std::size_t>(half_periods_)) {
    int votes = 0;
    for (int h = 0; h < half_periods_; ++h) {
      votes += (subchips[pos + static_cast<std::size_t>(h)] ^ sub_phase) ? 1 : -1;
      sub_phase = !sub_phase;
    }
    chips.push_back(votes > 0);
  }
  return chips;
}

}  // namespace arachnet::phy
