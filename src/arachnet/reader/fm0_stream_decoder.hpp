#pragma once

#include <cstdint>

namespace arachnet::reader {

/// Streaming FM0 bit recovery from Schmitt-trigger run lengths.
///
/// FM0 guarantees a transition at every bit boundary, so valid runs last
/// one or two half-bit (chip) periods. The decoder tracks whether it is at
/// a bit boundary or mid-bit ("pending half"). A 2-chip run arriving while
/// mid-bit means the initial phase guess was wrong; re-interpreting it as
/// straddling the boundary (emit the pending 0, keep one half pending)
/// self-corrects the phase within one data-0 bit. Runs that do not
/// quantize to 1 or 2 chips (silence between packets, noise bursts) reset
/// the decoder and come back as a desync, on which the caller restarts its
/// framer. A plain value: one bool of phase state besides its settings.
class Fm0StreamDecoder {
 public:
  struct Params {
    double chip_duration_s = 1.0 / 375.0;
    /// Acceptance window around 1 and 2 chips, as a fraction of the chip.
    double tolerance = 0.35;
  };

  /// What one run completed.
  enum class Symbol : std::uint8_t {
    kNone,    ///< the first half of a 0 bit
    kZero,    ///< FM0 bit 0
    kOne,     ///< FM0 bit 1
    kDesync,  ///< a run of neither 1 nor 2 chips; the phase restarted
  };

  explicit Fm0StreamDecoder(Params params) : params_(params) {}

  /// Feeds one completed run of `duration_s` seconds. The run's level is
  /// irrelevant: FM0 bit values depend only on transition positions.
  Symbol push_run(double duration_s);

  /// Forces a resynchronization (e.g. between slots).
  void reset() { pending_half_ = false; }

 private:
  Params params_;
  bool pending_half_ = false;
};

}  // namespace arachnet::reader
