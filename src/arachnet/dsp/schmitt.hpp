#pragma once

#include <cstddef>
#include <optional>

namespace arachnet::dsp {

/// Schmitt trigger with fixed hysteresis thresholds: output goes high when
/// the input crosses `high`, low when it crosses `low`. The gap rejects
/// noise chatter around a single threshold.
class SchmittTrigger {
 public:
  SchmittTrigger(double low, double high, bool initial = false);

  /// Feeds one sample; returns the binary output level.
  bool push(double x) noexcept;

  bool level() const noexcept { return level_; }
  void reset(bool level = false) noexcept { level_ = level; }

 private:
  double low_;
  double high_;
  bool level_;
};

/// Schmitt trigger whose thresholds adapt to the signal scale: tracks an
/// exponential moving average of |x| and places the thresholds at
/// +/- `fraction` of it around zero. Suited to the DC-blocked envelope
/// where modulation depth varies tag by tag.
class AdaptiveSchmitt {
 public:
  struct Params {
    double fraction = 0.5;    ///< threshold as a fraction of mean |x|
    double ema_alpha = 0.01;  ///< scale-tracking rate
    /// Squelch: minimum scale. Keeps the trigger quiet on channel noise
    /// between packets; set several times the baseband noise RMS.
    double floor = 0.004;
  };

  AdaptiveSchmitt();  // default params
  explicit AdaptiveSchmitt(Params params) : params_(params) {}

  bool push(double x) noexcept;

  bool level() const noexcept { return level_; }
  double scale() const noexcept { return scale_; }
  void reset() noexcept;

 private:
  Params params_;
  double scale_ = 0.0;
  bool level_ = false;
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

}  // namespace arachnet::dsp
