// Tests for the reader DSP blocks: Welch PSD + band SNR, FIR design, DDC,
// frequency-offset estimation, the adaptive slicer (the chain's Schmitt
// trigger) / debouncer / run-length coding, the modulation-axis tracker
// against its trig reference, IQ k-means clustering, and the SPSC ring
// buffer with back-pressure.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <limits>
#include <numbers>
#include <thread>
#include <vector>

#include "arachnet/dsp/axis_tracker.hpp"
#include "arachnet/dsp/cluster.hpp"
#include "arachnet/dsp/ddc.hpp"
#include "arachnet/dsp/fir.hpp"
#include "arachnet/dsp/psd.hpp"
#include "arachnet/dsp/ring_buffer.hpp"
#include "arachnet/dsp/slicer.hpp"
#include "arachnet/sim/rng.hpp"

namespace {

using namespace arachnet::dsp;
using arachnet::sim::Rng;
using cplx = std::complex<double>;

// ---------------------------------------------------------------------- PSD

TEST(Psd, ToneSnrIsLarge) {
  WelchPsd psd{{.segment_size = 4096, .sample_rate_hz = 500e3}};
  Rng rng{7};
  std::vector<double> signal(50000);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    signal[i] = std::cos(2.0 * std::numbers::pi * 90e3 * i / 500e3) +
                rng.normal(0.0, 0.01);
  }
  const auto spectrum = psd.estimate(signal);
  const double snr = band_snr_db(spectrum, psd.bin_width(), 90e3, 2e3, 40e3);
  EXPECT_GT(snr, 30.0);
}

TEST(Psd, NoiseOnlySnrNearZero) {
  WelchPsd psd{{.segment_size = 2048, .sample_rate_hz = 500e3}};
  Rng rng{9};
  std::vector<double> signal(50000);
  for (auto& s : signal) s = rng.normal(0.0, 1.0);
  const auto spectrum = psd.estimate(signal);
  const double snr = band_snr_db(spectrum, psd.bin_width(), 90e3, 2e3, 40e3);
  EXPECT_NEAR(snr, 0.0, 2.0);
}

TEST(Psd, WhiteNoiseDensityIsFlatAndCorrect) {
  WelchPsd psd{{.segment_size = 1024, .sample_rate_hz = 100e3}};
  Rng rng{11};
  const double sigma = 0.5;
  std::vector<double> signal(200000);
  for (auto& s : signal) s = rng.normal(0.0, sigma);
  const auto spectrum = psd.estimate(signal);
  // Total integrated power should be sigma^2.
  double total = 0.0;
  for (double v : spectrum) total += v * psd.bin_width();
  EXPECT_NEAR(total, sigma * sigma, 0.02 * sigma * sigma);
}

TEST(Psd, RejectsShortSignal) {
  WelchPsd psd{{.segment_size = 4096, .sample_rate_hz = 500e3}};
  EXPECT_THROW(psd.estimate(std::vector<double>(100)), std::invalid_argument);
}

TEST(Psd, RejectsBadParams) {
  EXPECT_THROW((WelchPsd{{.segment_size = 1000, .sample_rate_hz = 500e3}}),
               std::invalid_argument);
  EXPECT_THROW((WelchPsd{{.segment_size = 1024, .sample_rate_hz = -1.0}}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------- FIR

TEST(Fir, LowpassPassesDcBlocksHighFrequency) {
  const auto coeffs = design_lowpass(5e3, 500e3, 129);
  FirFilter<double> lpf{coeffs};
  // DC gain ~1.
  double dc_out = 0.0;
  for (int i = 0; i < 400; ++i) dc_out = lpf.push(1.0);
  EXPECT_NEAR(dc_out, 1.0, 1e-3);
  // 100 kHz tone heavily attenuated.
  lpf.reset();
  double peak = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double out =
        lpf.push(std::cos(2.0 * std::numbers::pi * 100e3 * i / 500e3));
    if (i > 300) peak = std::max(peak, std::abs(out));
  }
  EXPECT_LT(peak, 0.01);
}

TEST(Fir, GroupDelayIsSymmetricCentre) {
  const auto coeffs = design_lowpass(5e3, 500e3, 129);
  FirFilter<double> lpf{coeffs};
  EXPECT_DOUBLE_EQ(lpf.group_delay(), 64.0);
  EXPECT_EQ(lpf.taps(), 129u);
}

TEST(Fir, DesignValidation) {
  EXPECT_THROW(design_lowpass(5e3, 500e3, 128), std::invalid_argument);
  EXPECT_THROW(design_lowpass(0.0, 500e3, 129), std::invalid_argument);
  EXPECT_THROW(design_lowpass(300e3, 500e3, 129), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(design_lowpass(nan, 500e3, 129), std::invalid_argument);
  EXPECT_THROW(design_lowpass(5e3, nan, 129), std::invalid_argument);
  EXPECT_THROW(design_lowpass(5e3, -500e3, 129), std::invalid_argument);
  EXPECT_THROW(design_lowpass(5e3, std::numeric_limits<double>::infinity(),
                              129),
               std::invalid_argument);
}

TEST(Fir, ProcessInPlaceMatchesPush) {
  const auto coeffs = design_lowpass(4e3, 31.25e3, 63);
  FirFilter<double> pushed{coeffs};
  FirFilter<double> blocked{coeffs};
  Rng rng{21};
  std::vector<double> buf(300), want(300);
  for (auto& v : buf) v = rng.normal(0.0, 1.0);
  for (std::size_t i = 0; i < buf.size(); ++i) want[i] = pushed.push(buf[i]);
  blocked.process(buf.data(), buf.data(), buf.size());  // in-place
  EXPECT_EQ(buf, want);
}

// ---------------------------------------------------------------------- DDC

TEST(Ddc, CarrierMixesToDc) {
  Ddc ddc{Ddc::Params{}};
  std::vector<double> samples(20000);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = std::cos(2.0 * std::numbers::pi * 90e3 * i / 500e3);
  }
  const auto iq = ddc.process(samples);
  ASSERT_GT(iq.size(), 500u);
  // After the filter settles the IQ should be a constant phasor of
  // magnitude ~0.5 (mixer splits power between 0 and 2f).
  for (std::size_t i = 400; i < iq.size(); ++i) {
    EXPECT_NEAR(std::abs(iq[i]), 0.5, 0.01);
  }
}

TEST(Ddc, OffsetToneShowsAsRotation) {
  Ddc ddc{Ddc::Params{}};
  const double offset = 500.0;  // 90.5 kHz input
  std::vector<double> samples(100000);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = std::cos(2.0 * std::numbers::pi * (90e3 + offset) * i / 500e3);
  }
  const auto iq = ddc.process(samples);
  const std::vector<std::complex<double>> tail(iq.begin() + 500, iq.end());
  const double estimated = estimate_frequency_offset(tail, ddc.output_rate_hz());
  EXPECT_NEAR(estimated, offset, 5.0);
}

TEST(Ddc, FrequencyOffsetEstimateSurvivesLowSnr) {
  // The calibration block runs on leak-dominated (high-SNR) samples, but
  // it must degrade gracefully: at 0 dB SNR the lag-product estimator's
  // error scales as sqrt(var/N), ~15 Hz over 64k samples — the estimate
  // must stay in that statistical envelope, not collapse or alias.
  const double rate = 31250.0;
  const double offset = 200.0;
  Rng rng{33};
  const auto make_iq = [&](double sigma) {
    std::vector<std::complex<double>> iq(65536);
    for (std::size_t i = 0; i < iq.size(); ++i) {
      const double ph = 2.0 * std::numbers::pi * offset * i / rate;
      iq[i] = std::complex<double>{std::cos(ph), std::sin(ph)} +
              std::complex<double>{rng.normal(0.0, sigma),
                                   rng.normal(0.0, sigma)};
    }
    return iq;
  };
  // 0 dB SNR (noise power == tone power): within the ~3-sigma envelope.
  EXPECT_NEAR(estimate_frequency_offset(make_iq(0.707), rate), offset, 45.0);
  // 14 dB SNR: within a few Hz.
  EXPECT_NEAR(estimate_frequency_offset(make_iq(0.1), rate), offset, 5.0);
}

TEST(Ddc, DecimationRatio) {
  Ddc::Params p;
  p.decimation = 16;
  Ddc ddc{p};
  EXPECT_DOUBLE_EQ(ddc.output_rate_hz(), 500e3 / 16.0);
  const auto iq = ddc.process(std::vector<double>(1600, 0.0));
  EXPECT_EQ(iq.size(), 100u);
}

TEST(Ddc, RejectsInvalidParams) {
  // The simd path designs its band-pass taps from the carrier and the
  // rate: a NaN there would silently yield an all-NaN filter.
  for (const auto policy : {KernelPolicy::kScalar, KernelPolicy::kSimd}) {
    Ddc::Params p;
    p.kernels = policy;
    p.decimation = 0;
    EXPECT_THROW(Ddc{p}, std::invalid_argument);
    p.decimation = 16;
    p.carrier_hz = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(Ddc{p}, std::invalid_argument);
    p.carrier_hz = std::numeric_limits<double>::infinity();
    EXPECT_THROW(Ddc{p}, std::invalid_argument);
    p.carrier_hz = 90e3;
    for (const double rate : {0.0, -500e3,
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
      p.sample_rate_hz = rate;
      EXPECT_THROW(Ddc{p}, std::invalid_argument) << "rate " << rate;
    }
  }
}

// ------------------------------------------------------------- Level logic

TEST(Slicer, LearnsLevelsAndSlices) {
  AdaptiveSlicer slicer;
  // Feed a clean two-level waveform.
  for (int rep = 0; rep < 20; ++rep) {
    for (int i = 0; i < 50; ++i) slicer.push(1.0);
    for (int i = 0; i < 50; ++i) slicer.push(0.0);
  }
  EXPECT_NEAR(slicer.high(), 1.0, 0.1);
  EXPECT_NEAR(slicer.low(), 0.0, 0.1);
  EXPECT_FALSE(slicer.squelched());
  slicer.push(0.9);
  EXPECT_TRUE(slicer.level());
  slicer.push(0.1);
  EXPECT_FALSE(slicer.level());
}

TEST(Slicer, SquelchHoldsOnNoise) {
  AdaptiveSlicer slicer;
  Rng rng{13};
  bool initial = slicer.level();
  int transitions = 0;
  for (int i = 0; i < 20000; ++i) {
    const bool level = slicer.push(rng.normal(0.0, 0.0003));
    if (level != initial) {
      ++transitions;
      initial = level;
    }
  }
  EXPECT_EQ(transitions, 0);  // noise below floor never slices
}

TEST(Slicer, RecoversFromStrongToWeak) {
  AdaptiveSlicer slicer;
  for (int rep = 0; rep < 10; ++rep) {
    for (int i = 0; i < 20; ++i) slicer.push(0.5);
    for (int i = 0; i < 20; ++i) slicer.push(-0.5);
  }
  // Long silence: levels leak toward zero.
  for (int i = 0; i < 5000; ++i) slicer.push(0.0);
  EXPECT_LT(slicer.separation(), 0.05);
  // A weak signal must still slice after recovery.
  int transitions = 0;
  bool prev = slicer.level();
  for (int rep = 0; rep < 10; ++rep) {
    for (int i = 0; i < 20; ++i) {
      if (slicer.push(0.01) != prev) { ++transitions; prev = slicer.level(); }
    }
    for (int i = 0; i < 20; ++i) {
      if (slicer.push(-0.01) != prev) { ++transitions; prev = slicer.level(); }
    }
  }
  EXPECT_GE(transitions, 15);
}

TEST(Debouncer, SuppressesShortGlitches) {
  Debouncer d{5};
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(d.push(false));
  // 3-sample glitch: shorter than hold, must not pass.
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(d.push(true));
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(d.push(false));
  // Real transition passes after `hold` samples.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(d.push(true));
  EXPECT_TRUE(d.push(true));
}

TEST(Debouncer, PreservesRunDurations) {
  Debouncer d{4};
  RunLengthEncoder rle;
  std::vector<std::pair<bool, std::size_t>> runs;
  // 30 low, 50 high, 30 low.
  auto feed = [&](bool level, int n) {
    for (int i = 0; i < n; ++i) {
      if (const auto run = rle.push(d.push(level))) {
        runs.push_back({run->level, run->samples});
      }
    }
  };
  feed(false, 30);
  feed(true, 50);
  feed(false, 30);
  feed(true, 10);  // flush
  // Interior runs keep their duration: both edges are delayed by `hold`,
  // so the 50-sample high run and the 30-sample low run survive intact.
  bool saw_high = false, saw_mid_low = false;
  for (const auto& [level, samples] : runs) {
    if (level && samples == 50) saw_high = true;
    if (!level && samples == 30) saw_mid_low = true;
  }
  EXPECT_TRUE(saw_high);
  EXPECT_TRUE(saw_mid_low);
}

TEST(RunLength, EncodesRuns) {
  RunLengthEncoder rle;
  std::vector<std::pair<bool, std::size_t>> runs;
  const std::vector<int> levels{0, 0, 0, 1, 1, 0, 1, 1, 1, 1};
  for (int v : levels) {
    if (const auto run = rle.push(v != 0)) runs.push_back({run->level, run->samples});
  }
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (std::pair<bool, std::size_t>{false, 3}));
  EXPECT_EQ(runs[1], (std::pair<bool, std::size_t>{true, 2}));
  EXPECT_EQ(runs[2], (std::pair<bool, std::size_t>{false, 1}));
  EXPECT_EQ(rle.open_run(), 4u);
}

// ------------------------------------------------------------- AxisTracker

// The reference the algebraic half-angle form replaces.
std::complex<double> polar_half_angle(std::complex<double> pv) {
  return std::polar(1.0, 0.5 * std::arg(pv));
}

void expect_matches_reference(std::complex<double> pv) {
  const auto got = half_angle_axis(pv);
  const auto want = polar_half_angle(pv);
  EXPECT_NEAR(got.real(), want.real(), 1e-12) << "pv=" << pv;
  EXPECT_NEAR(got.imag(), want.imag(), 1e-12) << "pv=" << pv;
  EXPECT_NEAR(std::hypot(got.real(), got.imag()), 1.0, 1e-15) << "pv=" << pv;
}

TEST(AxisTracker, HalfAngleMatchesPolarAcrossScalesAndQuadrants) {
  // |pv| from 1e-300 to 1e300 (the fast path and both fallback ends) in
  // all four quadrants, and next to the negative real axis, where
  // cos(arg/2) is the small component the algebraic form must not lose.
  Rng rng{41};
  for (int e = -300; e <= 300; e += 5) {
    const double mag = std::pow(10.0, e) * rng.uniform(1.0, 9.9);
    for (int k = 0; k < 16; ++k) {
      const double theta =
          -std::numbers::pi + (k + rng.uniform()) * std::numbers::pi / 8.0;
      expect_matches_reference(std::polar(mag, theta));
    }
    for (const double off : {1e-3, 1e-8, 1e-13}) {
      expect_matches_reference(std::polar(mag, std::numbers::pi - off));
      expect_matches_reference(std::polar(mag, -std::numbers::pi + off));
    }
  }
}

TEST(AxisTracker, HalfAngleOnTheRealAxesAndAtZero) {
  // Both real half-axes with a signed-zero or ever smaller imaginary part,
  // down to the subnormals: the sign of y picks the +-pi/2 branch exactly
  // as std::arg does.
  for (const double x : {1.0, -1.0, 3e-120, -3e-120, 7e150, -7e150}) {
    for (const double y : {0.0, -0.0, 1e-3, -1e-3, 1e-200, -1e-200,
                           1e-310, -1e-310, 5e-324, -5e-324}) {
      expect_matches_reference({x, y * std::abs(x)});
      expect_matches_reference({x, y});
    }
  }
  EXPECT_EQ(half_angle_axis({1.0, 0.0}), std::complex<double>(1.0, 0.0));
  EXPECT_EQ(half_angle_axis({-4.0, 0.0}), std::complex<double>(0.0, 1.0));
  EXPECT_EQ(half_angle_axis({-4.0, -0.0}), std::complex<double>(0.0, -1.0));
  EXPECT_EQ(half_angle_axis({0.0, 0.0}), std::complex<double>(1.0, 0.0));
}

TEST(AxisTracker, NonFinitePseudoVarianceGivesTheDocumentedAxis) {
  // Infinite components fall back to std::arg's direction; NaN stays NaN.
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(half_angle_axis({inf, 0.0}), std::complex<double>(1.0, 0.0));
  EXPECT_EQ(half_angle_axis({inf, 5.0}), polar_half_angle({inf, 5.0}));
  EXPECT_EQ(half_angle_axis({-inf, 1.0}), polar_half_angle({-inf, 1.0}));
  EXPECT_EQ(half_angle_axis({inf, -inf}), polar_half_angle({inf, -inf}));
  EXPECT_NEAR(std::abs(half_angle_axis({-inf, inf})), 1.0, 1e-15);
  for (const std::complex<double> pv :
       {std::complex<double>{nan, 0.0}, {1.0, nan}, {nan, inf}}) {
    const auto axis = half_angle_axis(pv);
    EXPECT_TRUE(std::isnan(axis.real()) && std::isnan(axis.imag()));
  }
}

TEST(AxisTracker, FollowsTheTrigReferenceThroughTheContinuityFlip) {
  // The tracker against the trig step it replaces, on a residual whose
  // line spins twice round the plane: its pseudo-variance crosses the
  // negative real axis four times, and each crossing jumps the half-angle
  // branch by pi for the continuity flip to undo. The flipped axis (sign
  // included) and the projection must follow the reference step for step;
  // the squelch floor gates both alike.
  const double alpha = 0.05;
  const double floor = 0.02;
  AxisTracker tracker{alpha, floor};
  std::complex<double> pv{0.0, 0.0};
  std::complex<double> prev{1.0, 0.0};
  Rng rng{43};
  int flips = 0;
  for (int i = 0; i < 8000; ++i) {
    const double line = 4.0 * std::numbers::pi * i / 8000.0;
    const double level = (i / 37) % 2 == 0 ? 0.3 : -0.3;
    const std::complex<double> s =
        std::polar(level, line) +
        std::complex<double>{rng.normal(0.0, 0.01), rng.normal(0.0, 0.01)};
    if (std::abs(s) >= floor) pv += alpha * (s * s - pv);
    std::complex<double> axis = polar_half_angle(pv);
    if (axis.real() * prev.real() + axis.imag() * prev.imag() < 0.0) {
      axis = -axis;
      ++flips;
    }
    prev = axis;
    const auto envelope = tracker.push(s);
    ASSERT_TRUE(envelope.has_value());
    ASSERT_NEAR(tracker.axis().real(), axis.real(), 1e-12) << "sample " << i;
    ASSERT_NEAR(tracker.axis().imag(), axis.imag(), 1e-12) << "sample " << i;
    ASSERT_NEAR(*envelope, s.real() * axis.real() + s.imag() * axis.imag(),
                1e-12)
        << "sample " << i;
  }
  EXPECT_GE(flips, 4);
}

TEST(AxisTracker, NonFiniteSampleChangesNothing) {
  AxisTracker tracker{0.1};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tracker.push({0.2 * (i % 2 == 0 ? 1 : -1), 0.1}));
  }
  const auto pv = tracker.pseudo_variance();
  const auto axis = tracker.axis();
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::complex<double> bad :
       {std::complex<double>{nan, 0.0}, {0.0, nan}, {inf, 0.0}, {0.0, -inf},
        {1e200, 0.0}, {-3e150, 3e150}}) {
    EXPECT_FALSE(AxisTracker::finite(bad)) << bad;
    EXPECT_FALSE(tracker.push(bad).has_value()) << bad;
    EXPECT_EQ(tracker.pseudo_variance(), pv);
    EXPECT_EQ(tracker.axis(), axis);
  }
  EXPECT_TRUE(AxisTracker::finite({1e100, -1e100}));
  EXPECT_TRUE(tracker.push({0.2, 0.1}).has_value());
  tracker.reset();
  EXPECT_EQ(tracker.pseudo_variance(), std::complex<double>(0.0, 0.0));
  EXPECT_EQ(tracker.axis(), std::complex<double>(1.0, 0.0));
}

// ----------------------------------------------------------------- Cluster

std::vector<std::complex<double>> make_clusters(
    Rng& rng, const std::vector<std::complex<double>>& centres,
    std::size_t per_cluster, double sigma) {
  std::vector<std::complex<double>> points;
  for (const auto& c : centres) {
    for (std::size_t i = 0; i < per_cluster; ++i) {
      points.emplace_back(c.real() + rng.normal(0.0, sigma),
                          c.imag() + rng.normal(0.0, sigma));
    }
  }
  return points;
}

TEST(Cluster, KMeansFindsCentroids) {
  Rng rng{17};
  const auto points = make_clusters(rng, {{0, 0}, {4, 4}}, 200, 0.2);
  const auto result = kmeans(points, 2, rng);
  ASSERT_EQ(result.centroids.size(), 2u);
  // Each true centre must be within 0.1 of some centroid.
  for (const auto& centre : {cplx{0, 0}, cplx{4, 4}}) {
    double best = 1e9;
    for (const auto& c : result.centroids) best = std::min(best, std::abs(c - centre));
    EXPECT_LT(best, 0.1);
  }
}

TEST(Cluster, CountsSingleTagAsTwoClusters) {
  // One backscattering tag: leak+absorb and leak+reflect states.
  Rng rng{19};
  const auto points = make_clusters(rng, {{1, 0}, {1.5, 0.3}}, 300, 0.03);
  EXPECT_EQ(estimate_cluster_count(points, rng), 2u);
  EXPECT_FALSE(detect_collision_iq(points, rng));
}

TEST(Cluster, DetectsCollisionAsMoreClusters) {
  // Two overlapping tags: 4 composite states.
  Rng rng{21};
  const auto points = make_clusters(
      rng, {{1, 0}, {1.5, 0.3}, {1.2, -0.4}, {1.7, -0.1}}, 300, 0.03);
  EXPECT_GT(estimate_cluster_count(points, rng), 2u);
  EXPECT_TRUE(detect_collision_iq(points, rng));
}

TEST(Cluster, SinglePointCloudIsOneCluster) {
  Rng rng{23};
  const auto points = make_clusters(rng, {{2, 2}}, 500, 0.05);
  EXPECT_EQ(estimate_cluster_count(points, rng), 1u);
}

TEST(Cluster, EmptyAndTinyInputs) {
  Rng rng{25};
  EXPECT_EQ(estimate_cluster_count({}, rng), 0u);
  EXPECT_EQ(estimate_cluster_count({{1, 1}, {1, 1}}, rng), 1u);
  EXPECT_THROW(kmeans({}, 2, rng), std::invalid_argument);
}

// ------------------------------------------------------------- Ring buffer

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> buf{8};
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(buf.push(i));
  for (int i = 0; i < 5; ++i) {
    const auto v = buf.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(RingBuffer, TryPushFailsWhenFull) {
  RingBuffer<int> buf{2};
  EXPECT_TRUE(buf.try_push(1));
  EXPECT_TRUE(buf.try_push(2));
  EXPECT_FALSE(buf.try_push(3));
  EXPECT_EQ(buf.size(), 2u);
}

TEST(RingBuffer, BackPressureBlocksProducer) {
  RingBuffer<int> buf{2};
  ASSERT_TRUE(buf.push(1));
  ASSERT_TRUE(buf.push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    buf.push(3);  // blocks until a pop frees space
    third_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(buf.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
}

TEST(RingBuffer, CloseDrainsThenStops) {
  RingBuffer<int> buf{4};
  buf.push(1);
  buf.push(2);
  buf.close();
  EXPECT_FALSE(buf.push(3));  // closed: push fails
  EXPECT_EQ(buf.pop().value(), 1);
  EXPECT_EQ(buf.pop().value(), 2);
  EXPECT_FALSE(buf.pop().has_value());  // drained
}

TEST(RingBuffer, CloseWakesBlockedConsumer) {
  RingBuffer<int> buf{4};
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    const auto v = buf.pop();  // blocks until close
    EXPECT_FALSE(v.has_value());
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load());
  buf.close();
  consumer.join();
  EXPECT_TRUE(done.load());
}

}  // namespace
