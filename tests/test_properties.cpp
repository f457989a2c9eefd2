// Property-based sweeps (parameterized gtest): invariants that must hold
// across whole parameter ranges rather than at hand-picked points —
// line-code round trips under jitter at every rate, protocol convergence
// for random feasible workloads, energy-chain monotonicity, and CRC
// burst-error detection.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "arachnet/core/slot_network.hpp"
#include "arachnet/energy/harvester.hpp"
#include "arachnet/mcu/dl_demodulator.hpp"
#include "arachnet/phy/crc.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/phy/pie.hpp"
#include "arachnet/sim/rng.hpp"
#include "fm0_runs.hpp"

namespace {

using namespace arachnet;

// ---------------------------------------------------- FM0 under jitter

class Fm0JitterSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(Fm0JitterSweep, RoundTripSurvivesTimingJitter) {
  const auto [rate, jitter] = GetParam();
  sim::Rng rng{static_cast<std::uint64_t>(rate * 1000 + jitter * 100)};
  const double chip = 1.0 / rate;
  for (int trial = 0; trial < 40; ++trial) {
    phy::BitVector data;
    for (int i = 0; i < 32; ++i) data.push_back(rng.bernoulli(0.5));
    const auto chips = phy::Fm0Encoder::encode(data);
    std::vector<double> runs;
    bool level = chips[0];
    double run = chip * rng.uniform(1.0 - jitter, 1.0 + jitter);
    for (std::size_t i = 1; i < chips.size(); ++i) {
      if (chips[i] == level) {
        run += chip * rng.uniform(1.0 - jitter, 1.0 + jitter);
      } else {
        runs.push_back(run);
        run = chip * rng.uniform(1.0 - jitter, 1.0 + jitter);
        level = chips[i];
      }
    }
    runs.push_back(run);
    const auto decoded = test::stream_decode(runs, chip);
    ASSERT_TRUE(decoded.has_value())
        << "rate " << rate << " jitter " << jitter;
    EXPECT_EQ(*decoded, data);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperRates, Fm0JitterSweep,
    ::testing::Combine(::testing::Values(93.75, 187.5, 375.0, 750.0, 1500.0,
                                         3000.0),
                       ::testing::Values(0.0, 0.05, 0.12)));

// ---------------------------------------------------- PIE under jitter

class PieJitterSweep : public ::testing::TestWithParam<double> {};

TEST_P(PieJitterSweep, PulseClassificationStable) {
  const double jitter = GetParam();
  sim::Rng rng{99};
  const double chip = 1.0 / 250.0;
  for (int trial = 0; trial < 200; ++trial) {
    const bool bit = rng.bernoulli(0.5);
    const double nominal = bit ? 2.0 * chip : chip;
    const double measured = nominal * rng.uniform(1.0 - jitter, 1.0 + jitter);
    const auto decoded = phy::PieDecoder::classify_pulse(measured, chip);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, bit);
  }
}

INSTANTIATE_TEST_SUITE_P(JitterLevels, PieJitterSweep,
                         ::testing::Values(0.0, 0.05, 0.10, 0.20));

// ------------------------------------------------ UL packet round trips

class PacketSweep : public ::testing::TestWithParam<int> {};

TEST_P(PacketSweep, SerializeParseRoundTripThroughFm0) {
  const int tid = GetParam();
  sim::Rng rng{static_cast<std::uint64_t>(tid) + 1};
  for (int trial = 0; trial < 64; ++trial) {
    const phy::UlPacket pkt{
        .tid = static_cast<std::uint8_t>(tid),
        .payload = static_cast<std::uint16_t>(rng.uniform_int(1u << 12))};
    // Through the line code and the reader's FM0 decoder, and back.
    const double chip = 1.0 / 750.0;
    const auto decoded = test::stream_decode(
        test::chip_runs(phy::Fm0Encoder::encode(pkt.serialize()), chip),
        chip);
    ASSERT_TRUE(decoded.has_value());
    const auto parsed = phy::UlPacket::parse(*decoded);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, pkt);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTids, PacketSweep, ::testing::Range(0, 16));

// -------------------------------------------------- CRC burst detection

class CrcBurstSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrcBurstSweep, DetectsBurstsUpToEightBits) {
  // CRC-8 detects all burst errors of length <= 8.
  const int burst_len = GetParam();
  sim::Rng rng{static_cast<std::uint64_t>(burst_len) * 31};
  for (int trial = 0; trial < 200; ++trial) {
    phy::BitVector bits;
    for (int i = 0; i < 16; ++i) bits.push_back(rng.bernoulli(0.5));
    const auto reference = phy::crc8_bits(bits);
    const auto start = rng.uniform_int(bits.size() - burst_len + 1);
    phy::BitVector corrupted;
    bool any_flip = false;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      bool b = bits[i];
      if (i >= start && i < start + static_cast<std::size_t>(burst_len)) {
        // Flip the endpoints always; interior bits randomly (a burst).
        const bool flip = (i == start ||
                           i + 1 == start + static_cast<std::size_t>(burst_len))
                              ? true
                              : rng.bernoulli(0.5);
        if (flip) {
          b = !b;
          any_flip = true;
        }
      }
      corrupted.push_back(b);
    }
    ASSERT_TRUE(any_flip);
    EXPECT_NE(phy::crc8_bits(corrupted), reference)
        << "burst " << burst_len << " at " << start;
  }
}

INSTANTIATE_TEST_SUITE_P(BurstLengths, CrcBurstSweep, ::testing::Range(1, 9));

// ----------------------------------------- Convergence as a property

struct RandomWorkload {
  std::uint64_t seed;
};

class ConvergenceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConvergenceSweep, RandomFeasibleWorkloadConverges) {
  // Appendix C: any workload with U <= 1 reaches the absorbing
  // collision-free state. Generate a random period mix with U <= 0.95 and
  // verify.
  sim::Rng rng{GetParam()};
  std::vector<core::SlotNetwork::TagSpec> specs;
  double util = 0.0;
  int tid = 1;
  for (int attempt = 0; attempt < 60 && specs.size() < 12; ++attempt) {
    const int period = 1 << (1 + rng.uniform_int(5));  // 2..32
    if (util + 1.0 / period > 0.95) continue;  // draw again (smaller share)
    util += 1.0 / period;
    // Appendix C's model assumes negligible beacon loss; disable the
    // stochastic disturbances so the absorbing state, once reached, holds.
    specs.push_back(
        {.tid = tid++, .period = period, .dl_loss = 0.0, .ul_loss = 0.0});
  }
  ASSERT_GE(specs.size(), 2u);

  core::SlotNetwork::Params params;
  params.seed = GetParam() * 31 + 7;
  core::SlotNetwork net{params, specs};
  const auto conv = net.measure_convergence(40000);
  ASSERT_TRUE(conv.has_value()) << "did not converge, U=" << util;
  // The reader's 32-clean-slot criterion can fire while a long-period tag
  // is still quietly migrating; give stragglers time, then the schedule
  // must be absorbing.
  net.run(4000);
  EXPECT_TRUE(net.all_settled_collision_free());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergenceSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// ----------------------------------------- Energy chain monotonicities

class HarvesterSweep : public ::testing::TestWithParam<double> {};

TEST_P(HarvesterSweep, MoreVoltageNeverChargesSlower) {
  const double vp = GetParam();
  energy::Harvester a{energy::Harvester::Params{}};
  energy::Harvester b{energy::Harvester::Params{}};
  a.set_pzt_peak_voltage(vp);
  b.set_pzt_peak_voltage(vp * 1.25);
  const double ta = a.charge_time(0.0, 2.306);
  const double tb = b.charge_time(0.0, 2.306);
  if (ta > 0.0) {
    ASSERT_GT(tb, 0.0);
    EXPECT_LE(tb, ta * 1.001);
  }
}

INSTANTIATE_TEST_SUITE_P(LinkStrengths, HarvesterSweep,
                         ::testing::Values(0.3, 0.4, 0.6, 0.9, 1.4, 1.9));

class MultiplierSweep : public ::testing::TestWithParam<int> {};

TEST_P(MultiplierSweep, OutputMonotoneInInputVoltage) {
  energy::VoltageMultiplier::Params p;
  p.stages = GetParam();
  const energy::VoltageMultiplier mult{p};
  double prev = -1.0;
  for (double vp = 0.05; vp < 2.5; vp += 0.05) {
    const double v = mult.output_voltage(vp);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(StageCounts, MultiplierSweep,
                         ::testing::Values(1, 2, 4, 6, 8, 12));

// --------------------------------------------- DL loss monotone in rate

class DlRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(DlRateSweep, LossWithinUnitIntervalAndReproducible) {
  const double rate = GetParam();
  mcu::DlDemodulator::Params p;
  p.chip_rate = rate;
  const mcu::DlDemodulator demod{p};
  const phy::DlBeacon beacon{.cmd = {.ack = true, .empty = true}};
  sim::Rng a{5}, b{5};
  const double la = demod.loss_rate(beacon, 2.0, a, 500);
  const double lb = demod.loss_rate(beacon, 2.0, b, 500);
  EXPECT_GE(la, 0.0);
  EXPECT_LE(la, 1.0);
  EXPECT_DOUBLE_EQ(la, lb);  // deterministic given the seed
}

INSTANTIATE_TEST_SUITE_P(Rates, DlRateSweep,
                         ::testing::Values(125.0, 250.0, 500.0, 1000.0,
                                           2000.0));

}  // namespace
