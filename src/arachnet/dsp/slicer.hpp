#pragma once

#include <cstddef>
#include <optional>

namespace arachnet::dsp {

/// Decision-directed two-level slicer for OOK envelopes: the Schmitt-trigger
/// block of the reader's decision chain (reader::DecisionChain).
///
/// Tracks the high and low signal levels directly (whichever the sample is
/// closer to, with fast capture for samples outside the current band) and
/// slices at their midpoint with hysteresis proportional to the level
/// separation. Unlike AC-coupling + fixed-threshold slicing this has no
/// settling transient at packet start and no droop on long runs, so it
/// works unchanged from 93.75 to 3000 chips/s.
///
/// A squelch keeps the output frozen while the level separation is below
/// `floor` (channel noise between packets), and both levels leak slowly
/// toward the input so a strong packet's levels do not mask a following
/// weak one.
class AdaptiveSlicer {
 public:
  struct Params {
    double track_alpha = 0.05;  ///< in-band level tracking rate
    double capture_alpha = 0.5; ///< out-of-band fast capture rate
    double leak_alpha = 0.002;  ///< always-on decay toward the input
    double hysteresis = 0.25;   ///< band half-width as fraction of separation
    double floor = 0.002;       ///< minimum separation for slicing (squelch)
  };

  AdaptiveSlicer();  // default params
  explicit AdaptiveSlicer(Params params) : params_(params) {}

  /// Feeds one envelope sample; returns the sliced level.
  bool push(double x) noexcept;

  bool level() const noexcept { return level_; }
  double high() const noexcept { return hi_; }
  double low() const noexcept { return lo_; }
  double separation() const noexcept { return hi_ - lo_; }
  bool squelched() const noexcept { return separation() < params_.floor; }

  void reset() noexcept;

  const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  double hi_ = 0.0;
  double lo_ = 0.0;
  bool primed_ = false;
  bool level_ = false;
};

/// Debouncer: a level transition is accepted only after `hold` consecutive
/// samples of the new level. Suppresses noise glitches shorter than a
/// fraction of a chip; both edges shift by the same `hold` samples, so run
/// durations are preserved.
class Debouncer {
 public:
  explicit Debouncer(std::size_t hold = 1);

  /// Feeds one raw level; returns the debounced level.
  bool push(bool level) noexcept;

  bool level() const noexcept { return stable_; }
  void reset() noexcept;

 private:
  std::size_t hold_;
  bool stable_ = false;
  bool candidate_ = false;
  std::size_t count_ = 0;
  bool primed_ = false;
};

/// Converts a binary level stream into run lengths: emits the duration (in
/// samples) of each completed constant-level segment.
class RunLengthEncoder {
 public:
  struct Run {
    bool level;
    std::size_t samples;
  };

  /// Feeds one level; returns the completed run when the level changed.
  std::optional<Run> push(bool level) noexcept {
    if (!started_) {
      started_ = true;
      current_ = level;
      count_ = 1;
      return std::nullopt;
    }
    if (level == current_) {
      ++count_;
      return std::nullopt;
    }
    const Run completed{current_, count_};
    current_ = level;
    count_ = 1;
    return completed;
  }

  /// Duration of the currently open run.
  std::size_t open_run() const noexcept { return count_; }

  void reset() noexcept;

 private:
  bool started_ = false;
  bool current_ = false;
  std::size_t count_ = 0;
};

// The per-sample steps are defined here so the decision loops inline them.

inline bool AdaptiveSlicer::push(double x) noexcept {
  if (!primed_) {
    hi_ = lo_ = x;
    primed_ = true;
    return level_;
  }

  // Fast capture outside the band, gated tracking inside.
  if (x > hi_) {
    hi_ += params_.capture_alpha * (x - hi_);
  } else if (x < lo_) {
    lo_ += params_.capture_alpha * (x - lo_);
  } else {
    const double mid = 0.5 * (hi_ + lo_);
    if (x >= mid) {
      hi_ += params_.track_alpha * (x - hi_);
    } else {
      lo_ += params_.track_alpha * (x - lo_);
    }
  }
  // Slow leak so stale levels from a strong burst decay during silence.
  hi_ += params_.leak_alpha * (x - hi_);
  lo_ += params_.leak_alpha * (x - lo_);
  if (lo_ > hi_) lo_ = hi_;

  const double separation = hi_ - lo_;
  if (separation < params_.floor) return level_;  // squelched: hold

  const double mid = 0.5 * (hi_ + lo_);
  const double band = params_.hysteresis * separation;
  if (!level_ && x >= mid + band) {
    level_ = true;
  } else if (level_ && x <= mid - band) {
    level_ = false;
  }
  return level_;
}

inline bool Debouncer::push(bool level) noexcept {
  if (!primed_) {
    primed_ = true;
    stable_ = candidate_ = level;
    count_ = hold_;
    return stable_;
  }
  if (level == stable_) {
    candidate_ = stable_;
    count_ = 0;
    return stable_;
  }
  if (level == candidate_) {
    if (++count_ >= hold_) {
      stable_ = candidate_;
      count_ = 0;
    }
  } else {
    candidate_ = level;
    count_ = 1;
    if (count_ >= hold_) {
      stable_ = candidate_;
      count_ = 0;
    }
  }
  return stable_;
}

}  // namespace arachnet::dsp
