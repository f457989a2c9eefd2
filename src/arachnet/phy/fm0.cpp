#include "arachnet/phy/fm0.hpp"

#include <cmath>

namespace arachnet::phy {

namespace {

/// Appends one data bit's two chips; `level` is the last chip's level.
void append_bit(BitVector& chips, bool& level, bool bit) {
  level = !level;  // transition at every bit boundary
  chips.push_back(level);
  if (!bit) level = !level;  // mid-bit transition encodes a 0
  chips.push_back(level);
}

}  // namespace

BitVector Fm0Encoder::encode(const BitVector& data, bool initial_level) {
  BitVector chips;
  bool level = initial_level;
  for (std::size_t i = 0; i < data.size(); ++i) {
    append_bit(chips, level, data[i]);
  }
  return chips;
}

BitVector Fm0Encoder::encode_frame(const BitVector& data, bool initial_level) {
  BitVector chips;
  encode_frame(data, chips, initial_level);
  return chips;
}

void Fm0Encoder::encode_frame(const BitVector& data, BitVector& chips,
                              bool initial_level) {
  chips.clear();
  bool level = initial_level;
  for (int i = 0; i < kPilotBits; ++i) append_bit(chips, level, false);
  for (std::size_t i = 0; i < data.size(); ++i) {
    append_bit(chips, level, data[i]);
  }
  append_bit(chips, level, true);  // dummy bit closing the frame
}

Fm0Decoder::Result Fm0Decoder::decode(const BitVector& chips,
                                      bool initial_level) {
  Result result;
  bool prev = initial_level;
  for (std::size_t i = 0; i + 1 < chips.size(); i += 2) {
    const bool first = chips[i];
    const bool second = chips[i + 1];
    if (first == prev) ++result.violations;  // missing boundary transition
    result.bits.push_back(first == second);  // equal chips -> FM0 bit 1
    prev = second;
  }
  return result;
}

std::optional<BitVector> Fm0Decoder::decode_runs(
    const std::vector<double>& runs, double half_bit, double tolerance) {
  // Quantize each run to 1 or 2 half-bit units.
  std::vector<int> units;
  units.reserve(runs.size());
  for (double r : runs) {
    const double halves = r / half_bit;
    if (std::abs(halves - 1.0) <= tolerance) {
      units.push_back(1);
    } else if (std::abs(halves - 2.0) <= 2.0 * tolerance) {
      units.push_back(2);
    } else {
      return std::nullopt;  // run length not representable -> desync
    }
  }

  // Walk the unit stream one bit (two half units) at a time. A 2-unit run
  // spans a whole bit (FM0 bit 1); two 1-unit runs form a bit with a mid
  // transition (FM0 bit 0). A 2-unit run may not straddle a bit boundary in
  // valid FM0, so any leftover half indicates desync.
  BitVector bits;
  std::size_t i = 0;
  while (i < units.size()) {
    if (units[i] == 2) {
      bits.push_back(true);
      ++i;
    } else {
      if (i + 1 >= units.size()) break;  // trailing half-bit: drop it
      if (units[i + 1] == 1) {
        bits.push_back(false);
        i += 2;
      } else {
        // "1,2" means the 2-run crosses a boundary: invalid FM0 framing.
        return std::nullopt;
      }
    }
  }
  return bits;
}

}  // namespace arachnet::phy
