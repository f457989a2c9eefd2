#pragma once

#include "arachnet/phy/bits.hpp"

namespace arachnet::phy {

/// FM0 (bi-phase space) line code used on the ARACHNET uplink.
///
/// Each data bit occupies two half-bit chips. The level always transitions
/// at a bit boundary; a data 0 carries an additional mid-bit transition, a
/// data 1 does not. Equivalently (the paper's phrasing): chip pairs 10/01
/// encode FM0 bit 0, chip pairs 00/11 encode FM0 bit 1. The reader
/// decodes it from run lengths (reader::Fm0StreamDecoder).
class Fm0Encoder {
 public:
  /// Encodes data bits into half-bit chips (each chip is one OOK level the
  /// tag holds for half a bit period). `initial_level` is the level of the
  /// chip *preceding* the stream; the first chip is its inverse.
  static BitVector encode(const BitVector& data, bool initial_level = false);

  /// Number of pilot bits prepended to every transmitted frame.
  static constexpr int kPilotBits = 8;

  /// Encodes a frame for transmission: a pilot of kPilotBits zero bits,
  /// the data bits, then a dummy terminator bit (as in EPC Gen2 FM0, which
  /// uses leading zeros and a trailing dummy-1). The pilot's mid-bit
  /// transitions let the receiver's run-length decoder lock its half-bit
  /// phase before the preamble arrives; the terminator's boundary
  /// transition closes the last data bit before the channel goes quiet.
  static BitVector encode_frame(const BitVector& data,
                                bool initial_level = false);

  /// The same chips, written into `chips` (cleared first; a reused
  /// `chips` keeps its capacity, so this allocates nothing once warm).
  static void encode_frame(const BitVector& data, BitVector& chips,
                           bool initial_level = false);
};

}  // namespace arachnet::phy
