#include "arachnet/phy/packet.hpp"

#include "arachnet/phy/crc.hpp"
#include "arachnet/phy/pie.hpp"

namespace arachnet::phy {

const BitVector& ul_preamble() {
  static const BitVector preamble{1, 0, 1, 1, 0, 1, 0, 0};
  return preamble;
}

const BitVector& dl_preamble() {
  static const BitVector preamble{1, 1, 0, 1, 0, 0};
  return preamble;
}

BitVector UlPacket::serialize() const {
  BitVector frame;
  serialize(frame);
  return frame;
}

void UlPacket::serialize(BitVector& frame) const {
  frame.clear();
  frame.append(ul_preamble());
  frame.append_uint(tid & 0x0Fu, kUlTidBits);
  frame.append_uint(payload & 0x0FFFu, kUlPayloadBits);
  frame.append_uint(
      crc8_bits(frame, kUlPreambleBits, kUlTidBits + kUlPayloadBits),
      kUlCrcBits);
}

std::optional<UlPacket> UlPacket::parse(const BitVector& frame) {
  if (frame.size() != static_cast<std::size_t>(kUlPacketBits)) {
    return std::nullopt;
  }
  if (frame.slice(0, kUlPreambleBits) != ul_preamble()) return std::nullopt;
  return parse_body(frame.slice(kUlPreambleBits,
                                static_cast<std::size_t>(kUlPacketBits) -
                                    kUlPreambleBits));
}

std::optional<UlPacket> UlPacket::parse_body(const BitVector& body) {
  constexpr std::size_t kBodyBits = kUlTidBits + kUlPayloadBits + kUlCrcBits;
  if (body.size() != kBodyBits) return std::nullopt;
  const auto crc =
      static_cast<std::uint8_t>(body.read_uint(kUlTidBits + kUlPayloadBits,
                                               kUlCrcBits));
  // CRC over the protected field in place — parse_body runs per decoded
  // frame inside the reader's zero-allocation steady state, so the field
  // is ranged, not sliced into a temporary.
  if (crc8_bits(body, 0, kUlTidBits + kUlPayloadBits) != crc) {
    return std::nullopt;
  }
  UlPacket pkt;
  pkt.tid = static_cast<std::uint8_t>(body.read_uint(0, kUlTidBits));
  pkt.payload =
      static_cast<std::uint16_t>(body.read_uint(kUlTidBits, kUlPayloadBits));
  return pkt;
}

std::uint8_t DlCommand::to_nibble() const noexcept {
  std::uint8_t n = 0;
  if (ack) n |= 0x8u;
  if (empty) n |= 0x4u;
  if (reset) n |= 0x2u;
  return n;  // low bit reserved
}

DlCommand DlCommand::from_nibble(std::uint8_t nibble) noexcept {
  DlCommand cmd;
  cmd.ack = (nibble & 0x8u) != 0;
  cmd.empty = (nibble & 0x4u) != 0;
  cmd.reset = (nibble & 0x2u) != 0;
  return cmd;
}

BitVector DlBeacon::serialize() const {
  BitVector frame = dl_preamble();
  frame.append_uint(cmd.to_nibble(), kDlCmdBits);
  return frame;
}

std::optional<DlBeacon> DlBeacon::parse(const BitVector& frame) {
  if (frame.size() != static_cast<std::size_t>(kDlPacketBits)) {
    return std::nullopt;
  }
  if (frame.slice(0, kDlPreambleBits) != dl_preamble()) return std::nullopt;
  DlBeacon beacon;
  beacon.cmd = DlCommand::from_nibble(
      static_cast<std::uint8_t>(frame.read_uint(kDlPreambleBits, kDlCmdBits)));
  return beacon;
}

double ul_packet_duration(double raw_bit_rate) {
  return 2.0 * kUlPacketBits / raw_bit_rate;
}

double dl_beacon_duration(const DlBeacon& beacon, double raw_bit_rate) {
  const auto chips = PieEncoder::chip_count(beacon.serialize());
  return static_cast<double>(chips) / raw_bit_rate;
}

double dl_beacon_max_duration(double raw_bit_rate) {
  return 3.0 * kDlPacketBits / raw_bit_rate;
}

}  // namespace arachnet::phy
