#pragma once

#include <cstddef>
#include <optional>

#include "arachnet/phy/bits.hpp"
#include "arachnet/phy/packet.hpp"

namespace arachnet::phy {

/// Streaming frame synchronizer: consumes decoded bits one at a time,
/// hunts for a preamble with a shift register, then collects a fixed-size
/// body and returns it. UlFramer's engine; a plain value that owns its
/// buffers, so a copy carries on from where the original stood.
class BitStreamFramer {
 public:
  /// `preamble` is matched exactly; the `body_bits` bits following it are
  /// collected. While collecting a body the framer does not hunt, matching
  /// the firmware's behaviour.
  BitStreamFramer(BitVector preamble, std::size_t body_bits);

  /// Feeds one decoded bit; returns the body it completed, else nullptr.
  /// The body stays intact until the next preamble match.
  const BitVector* push(bool bit);

  /// Abandon any partial frame and restart hunting (e.g. after signal loss).
  void reset();

 private:
  bool shift_matches() const noexcept;

  BitVector preamble_;
  std::size_t body_bits_;
  std::vector<std::uint8_t> shift_;  // circularly managed match window
  std::size_t shift_fill_ = 0;
  BitVector body_;
  bool collecting_ = false;
};

/// The reader's UL framer: hunts for the UL preamble, parses each body and
/// checks its CRC. Returns the valid packets and counts both outcomes.
class UlFramer {
 public:
  UlFramer();

  /// Feeds one decoded bit; returns the packet it completed when the body
  /// passes its CRC. A body that fails it is counted, not returned.
  std::optional<UlPacket> push(bool bit);

  void reset() { framer_.reset(); }
  std::size_t crc_failures() const noexcept { return crc_failures_; }
  std::size_t packets() const noexcept { return packets_; }

 private:
  BitStreamFramer framer_;
  std::size_t crc_failures_ = 0;
  std::size_t packets_ = 0;
};

}  // namespace arachnet::phy
