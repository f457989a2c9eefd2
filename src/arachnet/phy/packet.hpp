#pragma once

#include <cstdint>
#include <optional>

#include "arachnet/phy/bits.hpp"

namespace arachnet::phy {

/// Fixed frame geometry from the paper (Fig. 5).
inline constexpr int kUlPreambleBits = 8;
inline constexpr int kUlTidBits = 4;
inline constexpr int kUlPayloadBits = 12;
inline constexpr int kUlCrcBits = 8;
inline constexpr int kUlPacketBits =
    kUlPreambleBits + kUlTidBits + kUlPayloadBits + kUlCrcBits;  // 32

inline constexpr int kDlPreambleBits = 6;
inline constexpr int kDlCmdBits = 4;
inline constexpr int kDlPacketBits = kDlPreambleBits + kDlCmdBits;  // 10

/// Default raw bit rates (chips per second on the line).
inline constexpr double kDefaultUlRawBitRate = 375.0;
inline constexpr double kDefaultDlRawBitRate = 250.0;

/// UL preamble: chosen for low autocorrelation sidelobes so the reader's
/// correlator can frame packets amid noise.
const BitVector& ul_preamble();

/// DL preamble the tags' shift-register matcher looks for.
const BitVector& dl_preamble();

/// Uplink data packet: sensor reading from tag to reader.
struct UlPacket {
  std::uint8_t tid = 0;        ///< tag id, 4 bits (up to 16 tags)
  std::uint16_t payload = 0;   ///< sensor data, 12 bits

  /// Full on-air frame: preamble | TID | payload | CRC-8(TID|payload).
  BitVector serialize() const;

  /// The same frame, written into `frame` (cleared first; a reused
  /// `frame` keeps its capacity, so this allocates nothing once warm).
  void serialize(BitVector& frame) const;

  /// Parses a 32-bit frame; returns nullopt on preamble or CRC mismatch.
  static std::optional<UlPacket> parse(const BitVector& frame);

  /// Parses the 24 bits following an already-matched preamble.
  static std::optional<UlPacket> parse_body(const BitVector& body);

  friend bool operator==(const UlPacket&, const UlPacket&) = default;
};

/// Downlink beacon command flags — the 4-bit CMD field. The reader
/// broadcasts one beacon per slot boundary; it carries no tag ID by design
/// (Sec. 4.2): relevance is decided tag-side.
struct DlCommand {
  bool ack = false;    ///< true: last slot's transmission acknowledged
  bool empty = false;  ///< true: current slot predicted unoccupied (Eq. 4)
  bool reset = false;  ///< true: all tags must reset protocol state

  std::uint8_t to_nibble() const noexcept;
  static DlCommand from_nibble(std::uint8_t nibble) noexcept;

  friend bool operator==(const DlCommand&, const DlCommand&) = default;
};

/// Downlink beacon frame: preamble | CMD. Deliberately CRC-free (Sec. 4.2);
/// the protocol tolerates occasional mis-decodes.
struct DlBeacon {
  DlCommand cmd;

  BitVector serialize() const;
  static std::optional<DlBeacon> parse(const BitVector& frame);

  friend bool operator==(const DlBeacon&, const DlBeacon&) = default;
};

/// On-air duration of a full UL packet at the given raw (chip) bit rate.
/// FM0 spends two chips per data bit.
double ul_packet_duration(double raw_bit_rate = kDefaultUlRawBitRate);

/// On-air duration of a DL beacon at the given raw (chip) bit rate. PIE
/// spends 2 chips per 0-bit and 3 per 1-bit, so duration depends on content.
double dl_beacon_duration(const DlBeacon& beacon,
                          double raw_bit_rate = kDefaultDlRawBitRate);

/// Worst-case DL beacon duration (all bits 1) — used for slot budgeting.
double dl_beacon_max_duration(double raw_bit_rate = kDefaultDlRawBitRate);

}  // namespace arachnet::phy
