#pragma once

#include <cmath>
#include <complex>
#include <optional>

namespace arachnet::dsp {

/// e^{j·arg(pv)/2}: the unit vector at half the angle of `pv`, on the
/// branch std::arg gives (real part >= 0). With pv = x + jy and r = |pv|,
///
///   x >= 0:  (r + x, y)            / sqrt(2r(r + x))
///   x <  0:  (|y|, sgn(y)·(r - x)) / sqrt(2r(r - x))
///
/// — two square roots and one divide, and neither branch subtracts nearly
/// equal numbers, so the result stays accurate next to the negative real
/// axis. Each component is within a few ulps of
/// std::polar(1.0, 0.5 * std::arg(pv)) and the norm within 1e-15 of 1
/// (DESIGN.md §7). Where r² is zero, not finite, or outside
/// [2^-900, 2^900] (the squares would lose precision or overflow), it
/// returns that std::polar expression itself: (1, 0) at pv = 0, the
/// direction std::arg assigns an infinite component, and (NaN, NaN) when a
/// component is NaN.
[[nodiscard]] inline std::complex<double> half_angle_axis(
    std::complex<double> pv) noexcept {
  const double x = pv.real();
  const double y = pv.imag();
  const double r2 = x * x + y * y;
  if (!(r2 >= 0x1p-900 && r2 <= 0x1p+900)) [[unlikely]] {
    return std::polar(1.0, 0.5 * std::arg(pv));
  }
  const double r = std::sqrt(r2);
  if (x >= 0.0) {
    const double a = r + x;
    const double inv = 1.0 / std::sqrt(2.0 * r * a);
    return {a * inv, y * inv};
  }
  const double b = r - x;
  const double inv = 1.0 / std::sqrt(2.0 * r * b);
  return {std::abs(y) * inv, std::copysign(b, y) * inv};
}

/// Projection of `s` on the unit vector `axis`.
[[nodiscard]] inline double project(std::complex<double> s,
                                    std::complex<double> axis) noexcept {
  return s.real() * axis.real() + s.imag() * axis.imag();
}

/// The modulation-axis step of reader::DecisionChain, the back end shared by
/// RxChain and both FDMA bank modes. A backscatter tag's OOK (or the
/// subcarrier fundamental after its shift to DC) lives on a line through
/// the origin of the IQ plane whose direction is half the angle of the
/// complex pseudo-variance E[s²]; projecting onto that line recovers the
/// full modulation depth whatever the reflection phase (no quadrature
/// fading). Per sample: an EMA of s², its half-angle axis, a sign flip
/// that keeps the axis continuous (the half angle is only defined modulo
/// pi, and a flip mid-packet would invert the envelope), and the
/// projection.
class AxisTracker {
 public:
  /// `alpha` is the pseudo-variance EMA rate per sample. Only samples with
  /// |s| >= `floor` update the EMA (noise-only samples would let the axis
  /// decay and spin between plateaus); 0 updates on every sample.
  explicit AxisTracker(double alpha, double floor = 0.0) noexcept
      : alpha_(alpha), floor_sq_(floor * floor) {}

  /// False for a sample with a NaN or Inf component, or one so large that
  /// |s|² exceeds 2^1000: such a sample must update no estimator.
  [[nodiscard]] static bool finite(std::complex<double> s) noexcept {
    return power(s) <= kMaxPower;
  }

  /// Feeds one leak-free baseband sample and returns its projection on
  /// the tracked axis. A sample that is not finite() changes no state and
  /// returns nullopt: the caller holds its decision level, so the bad
  /// sample extends the current run instead of poisoning the EMA.
  [[nodiscard]] std::optional<double> push(std::complex<double> s) noexcept {
    const double p = power(s);
    if (!(p <= kMaxPower)) return std::nullopt;
    if (p >= floor_sq_) {
      const double x = s.real();
      const double y = s.imag();
      pv_ += alpha_ * (std::complex<double>{x * x - y * y, 2.0 * (x * y)} -
                       pv_);
    }
    std::complex<double> axis = half_angle_axis(pv_);
    if (project(axis, axis_) < 0.0) axis = -axis;
    axis_ = axis;
    return project(s, axis);
  }

  /// Forgets the axis (slot boundary or restart).
  void reset() noexcept {
    pv_ = {0.0, 0.0};
    axis_ = {1.0, 0.0};
  }

  std::complex<double> axis() const noexcept { return axis_; }
  std::complex<double> pseudo_variance() const noexcept { return pv_; }

 private:
  static constexpr double kMaxPower = 0x1p+1000;

  static double power(std::complex<double> s) noexcept {
    return s.real() * s.real() + s.imag() * s.imag();
  }

  double alpha_;
  double floor_sq_;
  std::complex<double> pv_{0.0, 0.0};
  std::complex<double> axis_{1.0, 0.0};
};

}  // namespace arachnet::dsp
