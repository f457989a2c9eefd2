// Tests for the PZT transducer model, the BiW structural graph, the link
// model, the ONVO-L60 deployment calibration anchors, and the uplink
// waveform synthesizer.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "arachnet/acoustic/biw_graph.hpp"
#include "arachnet/acoustic/deployment.hpp"
#include "arachnet/acoustic/link_model.hpp"
#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/energy/harvester.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/pzt/transducer.hpp"
#include "arachnet/sim/rng.hpp"
#include "arachnet/sim/units.hpp"

namespace {

using namespace arachnet;
using namespace arachnet::acoustic;
using arachnet::pzt::PztState;
using arachnet::pzt::Transducer;

// --------------------------------------------------------------- Transducer

TEST(Transducer, UnityResponseAtResonance) {
  Transducer t;
  EXPECT_NEAR(t.frequency_response(90e3), 1.0, 1e-12);
}

TEST(Transducer, ResponseFallsOffResonance) {
  Transducer t;
  EXPECT_LT(t.frequency_response(45e3), 0.1);
  EXPECT_LT(t.frequency_response(180e3), 0.1);
  EXPECT_GT(t.frequency_response(89e3), 0.7);
}

TEST(Transducer, LowFrequencyVehicleVibrationIsRejected) {
  // Paper Sec. 2.2 discussion: road/engine vibration sits below 0.1 kHz and
  // is separated from the 90 kHz carrier by the resonance.
  Transducer t;
  EXPECT_LT(t.frequency_response(100.0), 1e-4);
}

TEST(Transducer, BandwidthMatchesQ) {
  Transducer t;
  EXPECT_NEAR(t.bandwidth_hz(), 90e3 / 18.0, 1e-9);
  // Half-power points roughly at f0 +/- BW/2.
  const double half_bw = t.bandwidth_hz() / 2.0;
  EXPECT_NEAR(t.frequency_response(90e3 + half_bw), 1.0 / std::sqrt(2.0),
              0.03);
}

TEST(Transducer, ReflectionStatesDiffer) {
  Transducer t;
  const double reflect = t.reflection_coefficient(PztState::kReflective);
  const double absorb = t.reflection_coefficient(PztState::kAbsorptive);
  EXPECT_GT(reflect, absorb);  // short circuit reflects more
  EXPECT_NEAR(t.modulation_depth(), reflect - absorb, 1e-12);
  EXPECT_GT(t.modulation_depth(), 0.3);  // usable OOK depth
}

TEST(Transducer, StateIsSwitchable) {
  Transducer t;
  t.set_state(PztState::kReflective);
  EXPECT_EQ(t.state(), PztState::kReflective);
  t.set_state(PztState::kAbsorptive);
  EXPECT_EQ(t.state(), PztState::kAbsorptive);
}

TEST(Transducer, RingTimeConstant) {
  Transducer t;
  EXPECT_NEAR(t.ring_time_constant(), 18.0 / (std::numbers::pi * 90e3), 1e-12);
  EXPECT_LT(t.ring_time_constant(), 100e-6);
}

TEST(Transducer, TransductionScalesLinearly) {
  Transducer t;
  EXPECT_NEAR(t.open_circuit_voltage(2.0, 90e3),
              2.0 * t.params().rx_sensitivity, 1e-12);
  EXPECT_NEAR(t.emitted_amplitude(36.0, 90e3), 36.0 * t.params().tx_gain,
              1e-12);
}

TEST(Transducer, InvalidParamsThrow) {
  Transducer::Params p;
  p.resonant_hz = -1.0;
  EXPECT_THROW(Transducer{p}, std::invalid_argument);
}

// ----------------------------------------------------------------- BiwGraph

BiwGraph line_graph() {
  BiwGraph g;
  const auto a = g.add_node("a", {0, 0, 0});
  const auto b = g.add_node("b", {1, 0, 0});
  const auto c = g.add_node("c", {2, 0, 0});
  g.add_edge(a, b, EdgeKind::kContinuousPanel);
  g.add_edge(b, c, EdgeKind::kSeamWeld);
  return g;
}

TEST(BiwGraph, PathAccumulatesLossAndDistance) {
  const auto g = line_graph();
  const auto budget = g.path(0, 2);
  ASSERT_TRUE(budget.reachable());
  const auto panel = default_acoustics(EdgeKind::kContinuousPanel);
  const auto seam = default_acoustics(EdgeKind::kSeamWeld);
  EXPECT_NEAR(budget.loss_db,
              panel.propagation_loss_db_per_m + seam.propagation_loss_db_per_m +
                  seam.junction_loss_db,
              1e-9);
  EXPECT_NEAR(budget.distance_m, 2.0, 1e-9);
  EXPECT_NEAR(budget.delay_s, 2.0 / sim::kSteelGroupVelocityMps, 1e-12);
  EXPECT_EQ(budget.nodes, (std::vector<NodeId>{0, 1, 2}));
}

TEST(BiwGraph, PicksMinimumLossRoute) {
  BiwGraph g;
  const auto a = g.add_node("a", {0, 0, 0});
  const auto b = g.add_node("b", {1, 0, 0});
  const auto c = g.add_node("c", {0.5, 1, 0});
  // Direct but lossy (bolted), vs. a longer continuous detour.
  g.add_edge(a, b, EdgeKind::kBoltedJoint);
  g.add_edge(a, c, EdgeKind::kContinuousPanel);
  g.add_edge(c, b, EdgeKind::kContinuousPanel);
  const auto budget = g.path(a, b);
  EXPECT_EQ(budget.nodes.size(), 3u);  // took the detour
}

TEST(BiwGraph, UnreachableNodes) {
  BiwGraph g;
  g.add_node("a", {0, 0, 0});
  g.add_node("b", {1, 0, 0});
  const auto budget = g.path(0, 1);
  EXPECT_FALSE(budget.reachable());
  EXPECT_TRUE(std::isinf(g.path_loss_db(0, 1)));
}

TEST(BiwGraph, SelfPathIsFree) {
  const auto g = line_graph();
  const auto budget = g.path(1, 1);
  EXPECT_DOUBLE_EQ(budget.loss_db, 0.0);
  EXPECT_DOUBLE_EQ(budget.distance_m, 0.0);
}

TEST(BiwGraph, RejectsBadEdges) {
  BiwGraph g;
  const auto a = g.add_node("a", {0, 0, 0});
  const auto b = g.add_node("b", {1, 0, 0});
  EXPECT_THROW(g.add_edge(a, a, EdgeKind::kSeamWeld), std::invalid_argument);
  EXPECT_THROW(g.add_edge(a, 7, EdgeKind::kSeamWeld), std::out_of_range);
  // Metal path can't be shorter than the straight line.
  EXPECT_THROW(g.add_edge(a, b, EdgeKind::kSeamWeld, 0.5),
               std::invalid_argument);
}

TEST(BiwGraph, FindByName) {
  const auto g = line_graph();
  ASSERT_TRUE(g.find("b").has_value());
  EXPECT_EQ(*g.find("b"), 1u);
  EXPECT_FALSE(g.find("zz").has_value());
}

TEST(BiwGraph, JunctionLossOrdering) {
  EXPECT_LT(default_acoustics(EdgeKind::kContinuousPanel).junction_loss_db,
            default_acoustics(EdgeKind::kSeamWeld).junction_loss_db);
  EXPECT_LT(default_acoustics(EdgeKind::kSeamWeld).junction_loss_db,
            default_acoustics(EdgeKind::kPerpendicularJunction).junction_loss_db);
  EXPECT_LT(
      default_acoustics(EdgeKind::kPerpendicularJunction).junction_loss_db,
      default_acoustics(EdgeKind::kBoltedJoint).junction_loss_db);
}

// ------------------------------------------------------------- ChannelModel

TEST(ChannelModel, LinkIncludesMountLossTwice) {
  const auto g = line_graph();
  ChannelModel::Params params;
  const ChannelModel model{&g, params};
  const auto link = model.link(0, 2);
  const auto path = g.path(0, 2);
  EXPECT_NEAR(link.loss_db, path.loss_db + 2.0 * params.mount_loss_db, 1e-9);
  EXPECT_NEAR(link.gain, std::pow(10.0, -link.loss_db / 20.0), 1e-12);
}

TEST(ChannelModel, RoundTripIsGainSquared) {
  const auto g = line_graph();
  const ChannelModel model{&g, {}};
  const auto link = model.link(0, 2);
  EXPECT_NEAR(model.roundtrip_gain(0, 2), link.gain * link.gain, 1e-15);
}

TEST(ChannelModel, NoiseScalesWithSqrtBandwidth) {
  const auto g = line_graph();
  const ChannelModel model{&g, {}};
  EXPECT_NEAR(model.noise_rms(400.0), 2.0 * model.noise_rms(100.0), 1e-12);
}

TEST(ChannelModel, NullGraphThrows) {
  EXPECT_THROW((ChannelModel{nullptr, {}}), std::invalid_argument);
}

// --------------------------------------------------------------- Deployment

class DeploymentTest : public ::testing::Test {
 protected:
  Deployment d = Deployment::onvo_l60();

  double amplified_16x(int tid) const {
    energy::Harvester h{energy::Harvester::Params{}};
    h.set_pzt_peak_voltage(d.tag_pzt_peak_voltage(tid));
    return h.amplified_voltage();
  }

  double charge_time(int tid) const {
    energy::Harvester h{energy::Harvester::Params{}};
    h.set_pzt_peak_voltage(d.tag_pzt_peak_voltage(tid));
    return h.charge_time(0.0, h.cutoff().high_threshold());
  }
};

TEST_F(DeploymentTest, TwelveTagsInThreeAreas) {
  ASSERT_EQ(d.tags().size(), 12u);
  int front = 0, second = 0, cargo = 0;
  for (const auto& t : d.tags()) {
    if (t.area == BiwArea::kFrontRow) ++front;
    if (t.area == BiwArea::kSecondRow) ++second;
    if (t.area == BiwArea::kCargoArea) ++cargo;
  }
  EXPECT_EQ(front, 3);   // tags 1-3
  EXPECT_EQ(second, 5);  // tags 4-8
  EXPECT_EQ(cargo, 4);   // tags 9-12
}

TEST_F(DeploymentTest, AllTagsReachable) {
  for (const auto& t : d.tags()) {
    EXPECT_GT(d.reader_link(t.tid).gain, 0.0) << "tag " << t.tid;
  }
}

TEST_F(DeploymentTest, AnchorTag8NearestAndStrongest) {
  for (const auto& t : d.tags()) {
    if (t.tid == 8) continue;
    EXPECT_GE(d.reader_link(t.tid).loss_db, d.reader_link(8).loss_db)
        << "tag " << t.tid;
  }
}

TEST_F(DeploymentTest, PaperVoltageAnchors) {
  // Paper Sec. 6.2: Tag 4 reaches 4.74 V and Tag 11 2.70 V at 16x; the
  // strongest tags reach ~20+ V.
  EXPECT_NEAR(amplified_16x(4), 4.74, 0.6);
  EXPECT_NEAR(amplified_16x(11), 2.70, 0.35);
  EXPECT_GT(amplified_16x(8), 15.0);
  EXPECT_LT(amplified_16x(8), 26.0);
}

TEST_F(DeploymentTest, AllTagsExceedActivationThresholdAt8Stages) {
  for (const auto& t : d.tags()) {
    EXPECT_GE(amplified_16x(t.tid), 2.3) << "tag " << t.tid;
  }
}

TEST_F(DeploymentTest, ChargingTimesSpanPaperRange) {
  // Paper: 4.5 s to 56.2 s across the deployment.
  double t_min = 1e9, t_max = 0.0;
  for (const auto& t : d.tags()) {
    const double ct = charge_time(t.tid);
    ASSERT_GT(ct, 0.0) << "tag " << t.tid;
    t_min = std::min(t_min, ct);
    t_max = std::max(t_max, ct);
  }
  EXPECT_NEAR(t_min, 4.5, 1.0);
  EXPECT_NEAR(t_max, 56.2, 8.0);
}

TEST_F(DeploymentTest, NetChargingPowerAnchors) {
  // 587.8 uW (fastest) and 47.1 uW (slowest) in the paper.
  energy::Harvester h8{energy::Harvester::Params{}};
  h8.set_pzt_peak_voltage(d.tag_pzt_peak_voltage(8));
  energy::Harvester h11{energy::Harvester::Params{}};
  h11.set_pzt_peak_voltage(d.tag_pzt_peak_voltage(11));
  const double hth = h8.cutoff().high_threshold();
  EXPECT_NEAR(h8.net_charging_power(hth) * 1e6, 587.8, 100.0);
  EXPECT_NEAR(h11.net_charging_power(hth) * 1e6, 47.1, 10.0);
}

TEST_F(DeploymentTest, CargoTagsWeakerThanSecondRowOnAverage) {
  double second = 0.0, cargo = 0.0;
  for (const auto& t : d.tags()) {
    if (t.area == BiwArea::kSecondRow) second += d.reader_link(t.tid).loss_db;
    if (t.area == BiwArea::kCargoArea) cargo += d.reader_link(t.tid).loss_db;
  }
  EXPECT_GT(cargo / 4.0, second / 5.0);
}

TEST_F(DeploymentTest, UnknownTagThrows) {
  EXPECT_THROW(d.tag(13), std::out_of_range);
  EXPECT_THROW(d.tag(0), std::out_of_range);
}

TEST_F(DeploymentTest, BackscatterPhaseDeterministic) {
  EXPECT_DOUBLE_EQ(d.backscatter_phase(5), d.backscatter_phase(5));
  // Different routes give different phases for at least some pairs.
  EXPECT_NE(d.backscatter_phase(8), d.backscatter_phase(11));
}

// --------------------------------------------------------- WaveformChannel

TEST(WaveformSynth, CarrierOnlySpectrumPeaksAt90kHz) {
  UplinkWaveformSynth::Params p;
  p.noise_sigma = 0.0;
  UplinkWaveformSynth synth{p};
  sim::Rng rng{1};
  const auto samples = synth.synthesize({}, 0.01, rng);
  ASSERT_EQ(samples.size(), 5000u);
  // Goertzel power at the carrier vs an off-carrier probe.
  const auto goertzel = [&](double hz) {
    double re = 0.0, im = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const double ph = 2.0 * std::numbers::pi * hz * i / 500e3;
      re += samples[i] * std::cos(ph);
      im += samples[i] * std::sin(ph);
    }
    return re * re + im * im;
  };
  EXPECT_GT(goertzel(90e3), 100.0 * goertzel(70e3));
}

TEST(WaveformSynth, BackscatterModulationChangesEnvelope) {
  UplinkWaveformSynth::Params p;
  p.noise_sigma = 0.0;
  p.carrier_leak_amplitude = 0.0;  // isolate the tag's reflection
  UplinkWaveformSynth synth{p};
  BackscatterSource src;
  src.chips = phy::BitVector{1, 1, 1, 1, 0, 0, 0, 0};
  src.chip_rate = 400.0;  // 2.5 ms per chip -> 20 ms total
  src.amplitude = 1.0;
  sim::Rng rng{2};
  const auto samples = synth.synthesize({src}, 0.02, rng);
  // RMS over the reflective half vs the absorptive half.
  double rms_hi = 0.0, rms_lo = 0.0;
  const std::size_t half = samples.size() / 2;
  for (std::size_t i = 0; i < half; ++i) rms_hi += samples[i] * samples[i];
  for (std::size_t i = half; i < samples.size(); ++i) {
    rms_lo += samples[i] * samples[i];
  }
  EXPECT_GT(std::sqrt(rms_hi / half), 1.8 * std::sqrt(rms_lo / half));
}

TEST(WaveformSynth, RingLimitsTransitionSpeed) {
  UplinkWaveformSynth::Params p;
  p.noise_sigma = 0.0;
  p.carrier_leak_amplitude = 0.0;
  p.ring_tau_s = 2e-3;  // exaggerated ring
  UplinkWaveformSynth synth{p};
  BackscatterSource src;
  src.chips = phy::BitVector{1};
  src.chip_rate = 100.0;
  src.amplitude = 1.0;
  src.phase_rad = 0.0;
  sim::Rng rng{3};
  const auto samples = synth.synthesize({src}, 0.01, rng);
  // Envelope right after the transition must still be far from its final
  // value because of the ring time constant.
  double early_peak = 0.0, late_peak = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    early_peak = std::max(early_peak, std::abs(samples[i]));
  }
  for (std::size_t i = samples.size() - 500; i < samples.size(); ++i) {
    late_peak = std::max(late_peak, std::abs(samples[i]));
  }
  EXPECT_LT(early_peak, 0.6 * late_peak);
}

TEST(WaveformSynth, NoiseIsReproducibleWithSeed) {
  UplinkWaveformSynth synth_a{UplinkWaveformSynth::Params{}};
  UplinkWaveformSynth synth_b{UplinkWaveformSynth::Params{}};
  sim::Rng rng1{42}, rng2{42};
  const auto a = synth_a.synthesize({}, 0.001, rng1);
  const auto b = synth_b.synthesize({}, 0.001, rng2);
  EXPECT_EQ(a, b);
}

TEST(WaveformSynth, ConsecutiveCallsArePhaseContinuous) {
  // The reader transmits continuously: rendering two windows must equal
  // rendering one window of the combined duration.
  UplinkWaveformSynth::Params p;
  p.noise_sigma = 0.0;
  UplinkWaveformSynth split{p}, whole{p};
  sim::Rng rng{1};
  auto first = split.synthesize({}, 0.001, rng);
  const auto second = split.synthesize({}, 0.001, rng);
  first.insert(first.end(), second.begin(), second.end());
  const auto reference = whole.synthesize({}, 0.002, rng);
  ASSERT_EQ(first.size(), reference.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_NEAR(first[i], reference[i], 1e-9) << "sample " << i;
  }
  EXPECT_NEAR(split.now(), 0.002, 1e-12);
  split.reset();
  EXPECT_DOUBLE_EQ(split.now(), 0.0);
}

TEST(WaveformSynth, CallerBufferFormMatchesByValueForm) {
  // The by-value form wraps the caller-buffer form; a reused buffer is
  // resized to each window, shorter or longer than the last.
  UplinkWaveformSynth by_value{UplinkWaveformSynth::Params{}};
  UplinkWaveformSynth into{UplinkWaveformSynth::Params{}};
  sim::Rng rng_a{9}, rng_b{9};
  std::vector<double> out;
  for (const double seconds : {0.002, 0.0005, 0.003}) {
    const auto want = by_value.synthesize({}, seconds, rng_a);
    into.synthesize({}, seconds, rng_b, out);
    EXPECT_EQ(out, want) << seconds << " s";
  }
}

TEST(WaveformSynth, RejectsInvalidDurationAndRate) {
  // The sample count is duration x rate cast to size_t: from NaN, a
  // negative or an overflowing product that cast is undefined, so both
  // forms refuse the duration before rendering anything.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  UplinkWaveformSynth synth{UplinkWaveformSynth::Params{}};
  sim::Rng rng{1};
  std::vector<double> out;
  for (const double bad : {kNan, -0.001, kInf, -kInf, 1e300}) {
    EXPECT_THROW(synth.synthesize({}, bad, rng), std::invalid_argument)
        << bad;
    EXPECT_THROW(synth.synthesize({}, bad, rng, out), std::invalid_argument)
        << bad;
  }
  EXPECT_DOUBLE_EQ(synth.now(), 0.0);
  EXPECT_TRUE(synth.synthesize({}, 0.0, rng).empty());
  for (const double bad_rate : {0.0, -500e3, kNan, kInf}) {
    UplinkWaveformSynth::Params p;
    p.sample_rate_hz = bad_rate;
    EXPECT_THROW(UplinkWaveformSynth{p}, std::invalid_argument) << bad_rate;
  }
}

}  // namespace
