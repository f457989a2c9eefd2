#pragma once

#include <cstddef>
#include <functional>
#include <optional>

#include "arachnet/phy/bits.hpp"
#include "arachnet/phy/packet.hpp"

namespace arachnet::phy {

/// Streaming frame synchronizer: consumes decoded bits one at a time,
/// hunts for a preamble with a shift register, then collects a fixed-size
/// body and emits it. This mirrors both the tag's DL beacon matcher and the
/// reader's UL framer.
class BitStreamFramer {
 public:
  using FrameHandler = std::function<void(const BitVector& body)>;

  /// `preamble` is matched exactly; `body_bits` bits following it are
  /// collected and handed to `on_frame`. While collecting a body the framer
  /// does not hunt, matching the firmware's behaviour.
  BitStreamFramer(BitVector preamble, std::size_t body_bits,
                  FrameHandler on_frame);

  /// Feed one decoded bit.
  void push(bool bit);

  /// Abandon any partial frame and restart hunting (e.g. after signal loss).
  void reset();

  /// True while a body is being collected.
  bool collecting() const noexcept { return collecting_; }

  /// Frames emitted so far.
  std::size_t frames_emitted() const noexcept { return frames_; }

 private:
  bool shift_matches() const noexcept;

  BitVector preamble_;
  std::size_t body_bits_;
  FrameHandler on_frame_;
  std::vector<std::uint8_t> shift_;  // circularly managed match window
  std::size_t shift_fill_ = 0;
  BitVector body_;
  /// Completed body handed to on_frame_ (swapped from body_, so both
  /// buffers stay warm and a frame emission never allocates).
  BitVector emit_;
  bool collecting_ = false;
  std::size_t frames_ = 0;
};

/// Convenience: framer preconfigured for UL packets; parses and validates
/// the body (CRC) and invokes the handler only for valid packets. Invalid
/// bodies are counted. Pinned: the inner framer's callback captures `this`,
/// so copy and move are deleted.
class UlFramer {
 public:
  using PacketHandler = std::function<void(const UlPacket&)>;

  explicit UlFramer(PacketHandler on_packet);
  UlFramer(const UlFramer&) = delete;
  UlFramer& operator=(const UlFramer&) = delete;
  void push(bool bit);
  void reset();
  std::size_t crc_failures() const noexcept { return crc_failures_; }
  std::size_t packets() const noexcept { return packets_; }

 private:
  PacketHandler on_packet_;
  std::size_t crc_failures_ = 0;
  std::size_t packets_ = 0;
  BitStreamFramer framer_;
};

/// Convenience: framer preconfigured for DL beacons. Pinned like UlFramer.
class DlFramer {
 public:
  using BeaconHandler = std::function<void(const DlBeacon&)>;

  explicit DlFramer(BeaconHandler on_beacon);
  DlFramer(const DlFramer&) = delete;
  DlFramer& operator=(const DlFramer&) = delete;
  void push(bool bit);
  void reset();
  std::size_t beacons() const noexcept { return beacons_; }

 private:
  BeaconHandler on_beacon_;
  std::size_t beacons_ = 0;
  BitStreamFramer framer_;
};

}  // namespace arachnet::phy
