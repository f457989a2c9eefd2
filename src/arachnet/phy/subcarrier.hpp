#pragma once

#include "arachnet/phy/bits.hpp"

namespace arachnet::phy {

/// FDMA subcarrier modulation for parallel backscatter (the paper's
/// Sec. 6.3 extension path, following underwater-backscatter FDMA).
///
/// Instead of reflecting baseband FM0 chips directly, a tag XORs its chip
/// stream with a square subcarrier at `subcarrier_hz`. At the reader the
/// tag's energy appears at carrier +/- subcarrier_hz, so tags on distinct
/// subcarriers occupy disjoint spectrum and can transmit simultaneously.
///
/// The subcarrier stream is produced at an oversampled "sub-chip" rate:
/// each FM0 chip spans an integer number of subcarrier half-periods.
class SubcarrierModulator {
 public:
  struct Params {
    /// Data chip rate (FM0 chips per second).
    double chip_rate = 375.0;
    /// Square subcarrier frequency; must be an integer multiple of half
    /// the chip rate so chip boundaries align with subcarrier edges.
    double subcarrier_hz = 3000.0;
  };

  explicit SubcarrierModulator(Params params);

  /// Half-periods of the subcarrier per data chip.
  int half_periods_per_chip() const noexcept { return half_periods_; }

  /// Sub-chip rate of the emitted stream (2 * subcarrier_hz).
  double subchip_rate() const noexcept { return 2.0 * params_.subcarrier_hz; }

  /// Expands FM0 chips into the subcarrier-mixed reflection stream:
  /// each chip becomes `half_periods_per_chip()` sub-chips, XORed with the
  /// alternating subcarrier phase.
  BitVector modulate(const BitVector& chips) const;

  /// The same stream, written into `out` (cleared first; a reused `out`
  /// keeps its capacity, so this allocates nothing once warm).
  void modulate(const BitVector& chips, BitVector& out) const;

  /// Demodulates a sub-chip stream back to chips (majority vote over each
  /// chip after XOR with the subcarrier). Inverse of modulate() when
  /// aligned.
  BitVector demodulate(const BitVector& subchips) const;

  const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  int half_periods_ = 0;
};

}  // namespace arachnet::phy
