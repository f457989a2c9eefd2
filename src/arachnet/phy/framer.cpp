#include "arachnet/phy/framer.hpp"

#include <utility>

namespace arachnet::phy {

BitStreamFramer::BitStreamFramer(BitVector preamble, std::size_t body_bits)
    : preamble_(std::move(preamble)),
      body_bits_(body_bits),
      shift_(preamble_.size(), 0) {
  // The body holds at most one fixed-size frame: reserving it here makes
  // frame collection allocation-free from the very first frame.
  body_.reserve(body_bits_);
}

bool BitStreamFramer::shift_matches() const noexcept {
  if (shift_fill_ < shift_.size()) return false;
  for (std::size_t i = 0; i < shift_.size(); ++i) {
    if ((shift_[i] != 0) != preamble_[i]) return false;
  }
  return true;
}

const BitVector* BitStreamFramer::push(bool bit) {
  if (collecting_) {
    body_.push_back(bit);
    if (body_.size() < body_bits_) return nullptr;
    collecting_ = false;
    // Restart hunting with a clean window: the firmware's shift register
    // is reused for body collection, so history does not carry over.
    shift_fill_ = 0;
    return &body_;
  }
  // Shift-register hunt.
  for (std::size_t i = 0; i + 1 < shift_.size(); ++i) shift_[i] = shift_[i + 1];
  shift_.back() = bit ? 1 : 0;
  if (shift_fill_ < shift_.size()) ++shift_fill_;
  if (shift_matches()) {
    collecting_ = true;
    body_.clear();
  }
  return nullptr;
}

void BitStreamFramer::reset() {
  collecting_ = false;
  shift_fill_ = 0;
}

UlFramer::UlFramer()
    : framer_(ul_preamble(), static_cast<std::size_t>(kUlTidBits +
                                                      kUlPayloadBits +
                                                      kUlCrcBits)) {}

std::optional<UlPacket> UlFramer::push(bool bit) {
  const BitVector* body = framer_.push(bit);
  if (body == nullptr) return std::nullopt;
  auto pkt = UlPacket::parse_body(*body);
  ++(pkt ? packets_ : crc_failures_);
  return pkt;
}

}  // namespace arachnet::phy
