#include "arachnet/phy/fm0.hpp"

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

}  // namespace arachnet::phy
