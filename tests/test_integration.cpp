// Cross-module integration tests: the MAC protocol running over the real
// waveform channel and receive chain (collisions detected from IQ
// clusters, feedback resolving them), the threaded real-time reader with
// back-pressure, and the firmware + sensing stack end to end.
#include <gtest/gtest.h>

#include <map>

#include "arachnet/acoustic/deployment.hpp"
#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/core/reader_controller.hpp"
#include "arachnet/core/tag_firmware.hpp"
#include "arachnet/core/tag_state_machine.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/reader/realtime_reader.hpp"
#include "arachnet/reader/rx_chain.hpp"
#include "arachnet/sensing/strain.hpp"
#include "arachnet/sim/event_queue.hpp"

namespace {

using namespace arachnet;

// ------------------------------------------------ waveform-in-the-loop MAC

struct WaveformTag {
  int tid;
  core::TagStateMachine machine;
  double amplitude;
  double phase;
};

// Runs the distributed protocol with the PHY entirely at waveform level:
// transmitting tags' FM0 chips are synthesized into one 500 kS/s slot
// waveform; the reader chain decodes and the IQ-cluster detector flags
// collisions; ACK/NACK feedback drives the state machines.
TEST(WaveformMac, ThreeTagsConvergeOverRealChannel) {
  sim::Rng rng{8};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};
  reader::RxChain rx{reader::RxChain::Params{}};
  core::ReaderController reader;

  core::TagStateMachine::Config base;
  base.empty_gating = false;
  std::vector<WaveformTag> tags;
  const int periods[3] = {2, 4, 8};  // U = 0.875: room to settle
  const double amps[3] = {0.3, 0.12, 0.05};
  for (int i = 0; i < 3; ++i) {
    auto cfg = base;
    cfg.period = periods[i];
    tags.push_back(WaveformTag{i + 1, core::TagStateMachine{cfg, 40u + i},
                               amps[i], 0.5 + i});
    reader.register_tag(i + 1, periods[i]);
  }

  rx.process(synth.synthesize({}, 0.05, rng));  // settle the chain

  phy::DlCommand beacon{.ack = false, .empty = true, .reset = false};
  const double slot_len = 0.30;  // s: one UL packet + margin at 375 bps
  int clean_streak = 0;
  int slots_run = 0;
  sim::Rng cluster_rng{5};

  const auto all_settled = [&] {
    for (const auto& tag : tags) {
      if (tag.machine.state() != core::TagState::kSettle) return false;
    }
    return true;
  };
  for (int s = 0; s < 250 && !(clean_streak >= 12 && all_settled());
       ++s, ++slots_run) {
    std::vector<acoustic::BackscatterSource> sources;
    std::vector<int> transmitters;
    for (auto& tag : tags) {
      if (tag.machine.on_beacon(beacon)) {
        transmitters.push_back(tag.tid);
        const phy::UlPacket pkt{
            .tid = static_cast<std::uint8_t>(tag.tid),
            .payload = static_cast<std::uint16_t>(0x400 + s)};
        acoustic::BackscatterSource src;
        src.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
        src.chip_rate = 375.0;
        src.start_s = 0.02;
        src.amplitude = tag.amplitude;
        src.phase_rad = tag.phase;
        sources.push_back(src);
      }
    }

    rx.clear_packets();
    rx.clear_iq_points();
    rx.resync();  // re-baseline on the quiet reply gap at slot start
    rx.process(synth.synthesize(sources, slot_len, rng));

    core::SlotObservation obs;
    const bool truth_collision = transmitters.size() >= 2;
    obs.collision_detected =
        transmitters.size() >= 1 && rx.collision_detected(cluster_rng);
    if (!rx.packets().empty()) {
      obs.decoded_tid = rx.packets().front().packet.tid;
    }
    // The detector must call real collisions; clean slots may rarely be
    // flagged (conservative), which the protocol tolerates.
    if (truth_collision) {
      EXPECT_TRUE(obs.collision_detected) << "slot " << s;
    }
    beacon = reader.close_slot(obs);
    clean_streak = truth_collision ? 0 : clean_streak + 1;
  }

  EXPECT_LT(slots_run, 250);  // reached 12 consecutive clean slots
  for (auto& tag : tags) {
    EXPECT_EQ(tag.machine.state(), core::TagState::kSettle)
        << "tag " << tag.tid;
  }
}

TEST(WaveformMac, SingleCleanSlotDecodesAndAcks) {
  sim::Rng rng{3};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};
  reader::RxChain rx{reader::RxChain::Params{}};
  rx.process(synth.synthesize({}, 0.05, rng));

  const phy::UlPacket pkt{.tid = 7, .payload = 0x2AB};
  acoustic::BackscatterSource src;
  src.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
  src.chip_rate = 375.0;
  src.start_s = 0.02;
  src.amplitude = 0.1;
  src.phase_rad = 1.0;
  rx.clear_iq_points();
  rx.process(synth.synthesize({src}, 0.3, rng));

  ASSERT_EQ(rx.packets().size(), 1u);
  EXPECT_EQ(rx.packets().front().packet, pkt);
  sim::Rng crng{9};
  EXPECT_FALSE(rx.collision_detected(crng));

  core::ReaderController reader;
  reader.register_tag(7, 4);
  const auto cmd = reader.close_slot(
      {.decoded_tid = 7, .collision_detected = false});
  EXPECT_TRUE(cmd.ack);
}

// --------------------------------------------- firmware + sensing stack

TEST(FullStack, StrainReadingsTravelThroughFirmware) {
  sim::EventQueue queue;
  core::TagFirmware::Params params;
  params.tid = 5;
  params.protocol.period = 2;
  params.protocol.empty_gating = false;
  core::TagFirmware fw{&queue, params, 77};
  fw.set_link(1.9);

  sensing::StrainSensorModule module{sensing::StrainSensorModule::Params{}};
  sim::Rng sensor_rng{31};
  double displacement = -0.10;
  fw.set_sensor([&] { return module.sample(displacement, sensor_rng); });

  std::vector<std::uint16_t> readings;
  fw.on_transmit([&](const phy::UlPacket& pkt, double) {
    readings.push_back(pkt.payload);
  });
  fw.start();
  queue.run_until(10.0);
  ASSERT_TRUE(fw.activated());

  // Sweep displacement across slots; readings must rise.
  for (int s = 0; s < 20; ++s) {
    displacement = -0.10 + s * 0.01;
    queue.schedule_in(0.01, [&] {
      fw.deliver_beacon(phy::DlBeacon{{.ack = true, .empty = true}});
    });
    queue.run_until(queue.now() + 1.0);
  }
  ASSERT_GE(readings.size(), 5u);
  EXPECT_GT(readings.back(), readings.front());
  for (auto code : readings) EXPECT_LT(code, 1u << 12);
}

// -------------------------------------------- deployment-driven topology

TEST(FullStack, DeploymentLinksFeedTheProtocolConsistently) {
  // The calibrated deployment's weakest tag must still clear activation
  // and run the MAC; its charging time bounds the worst-case join delay.
  const auto car = acoustic::Deployment::onvo_l60();
  sim::EventQueue queue;
  core::TagFirmware::Params params;
  params.tid = 11;
  params.protocol.period = 8;
  params.protocol.empty_gating = false;
  core::TagFirmware fw{&queue, params, 123};
  fw.set_link(car.tag_pzt_peak_voltage(11));
  fw.start();
  queue.run_until(70.0);
  ASSERT_TRUE(fw.activated());  // 58 s charge, then operational
  int sent = 0;
  fw.on_transmit([&](const phy::UlPacket&, double) { ++sent; });
  for (int s = 0; s < 40; ++s) {
    queue.schedule_in(0.01, [&] {
      fw.deliver_beacon(phy::DlBeacon{{.ack = true, .empty = true}});
    });
    queue.run_until(queue.now() + 1.0);
  }
  EXPECT_GE(sent, 3);
  EXPECT_EQ(fw.brownouts(), 0);
  EXPECT_TRUE(fw.activated());
}


// ------------------------------------------------------ real-time reader

TEST(RealtimeReader, DecodesAcrossThreadWithBackPressure) {
  sim::Rng rng{42};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};

  reader::RealtimeReader::Params params;
  params.input_capacity = 2;  // force back-pressure
  reader::RealtimeReader rtr{params};
  rtr.start();

  // Stream 6 packets in 16k-sample blocks through the threaded path.
  std::vector<phy::UlPacket> sent;
  std::vector<double> stream = synth.synthesize({}, 0.05, rng);
  for (int i = 0; i < 6; ++i) {
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(i + 1),
                            .payload = static_cast<std::uint16_t>(0x600 + i)};
    sent.push_back(pkt);
    acoustic::BackscatterSource s;
    s.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
    s.chip_rate = 375.0;
    s.start_s = 0.02;
    s.amplitude = 0.2;
    s.phase_rad = 1.0;
    const auto wave = synth.synthesize({s}, 0.30, rng);
    stream.insert(stream.end(), wave.begin(), wave.end());
  }
  const std::size_t block_size = 16384;
  std::uint64_t total = 0;
  for (std::size_t pos = 0; pos < stream.size(); pos += block_size) {
    const auto end = std::min(stream.size(), pos + block_size);
    ASSERT_TRUE(rtr.submit({stream.begin() + static_cast<std::ptrdiff_t>(pos),
                            stream.begin() + static_cast<std::ptrdiff_t>(end)}));
    total += end - pos;
  }
  rtr.stop();
  EXPECT_EQ(rtr.samples_processed(), total);

  std::vector<phy::UlPacket> received;
  while (const auto p = rtr.poll_packet()) received.push_back(p->packet);
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i], sent[i]) << "packet " << i;
  }
}

TEST(RealtimeReader, StopWithoutStartIsSafe) {
  reader::RealtimeReader rtr{reader::RealtimeReader::Params{}};
  rtr.stop();  // no worker: must not hang or crash
  EXPECT_FALSE(rtr.poll_packet().has_value());
}

}  // namespace
