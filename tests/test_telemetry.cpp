// Telemetry subsystem tests: metrics registry, scoped tracing, structured
// logging, the JSONL exporter, and — the load-bearing guarantee — that
// turning instrumentation on does not change what the receive chains
// decode (bit-exact parity).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/reader/realtime_reader.hpp"
#include "arachnet/sim/rng.hpp"
#include "arachnet/telemetry/telemetry.hpp"

using namespace arachnet;
using namespace arachnet::telemetry;

// ------------------------------------------------------------ instruments

TEST(Metrics, CounterGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Metrics, HistogramBinsUnderOverflowAndExtremes) {
  LatencyHistogram h{0.0, 10.0, 10};
  h.record(0.0);    // lo inclusive -> bin 0
  h.record(9.99);   // top bin
  h.record(-5.0);   // underflow
  h.record(10.0);   // hi exclusive -> overflow
  h.record(123.0);  // overflow
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 123.0);
  EXPECT_NEAR(h.sum(), 0.0 + 9.99 - 5.0 + 10.0 + 123.0, 1e-12);
}

TEST(Metrics, RegistryReturnsStableInstrumentsByName) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);  // same name -> same instrument
  a.add(3);
  EXPECT_EQ(b.value(), 3u);

  LatencyHistogram& h1 = reg.histogram("x.lat", 0.0, 100.0, 10);
  // Later lookups ignore the range arguments.
  LatencyHistogram& h2 = reg.histogram("x.lat", 5.0, 7.0, 3);
  EXPECT_EQ(&h1, &h2);
  EXPECT_DOUBLE_EQ(h2.hi(), 100.0);
}

TEST(Metrics, SnapshotCapturesAllInstruments) {
  MetricsRegistry reg;
  reg.counter("c1").add(7);
  reg.gauge("g1").set(1.5);
  auto& h = reg.histogram("h1", 0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.record(0.05 + 0.099 * i);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "c1");
  EXPECT_EQ(snap.counters[0].value, 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 100u);
  // Roughly uniform over [0, 10): the median estimate sits near 5.
  EXPECT_NEAR(snap.histograms[0].percentile(0.5), 5.0, 1.0);
  EXPECT_LE(snap.histograms[0].percentile(0.0),
            snap.histograms[0].percentile(1.0));
}

TEST(Metrics, ConcurrentCounterAddsAreExact) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hits");
  LatencyHistogram& h = reg.histogram("lat", 0.0, 1000.0, 16);
  constexpr int kThreads = 4, kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(static_cast<double>((i + t) % 1000));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t binned = h.underflow() + h.overflow();
  for (std::size_t i = 0; i < h.bins(); ++i) binned += h.bin_count(i);
  EXPECT_EQ(binned, h.count());
}

// ----------------------------------------------------------------- tracing

TEST(Trace, SpansRecordOnlyWhileEnabled) {
  auto& rec = TraceRecorder::instance();
  rec.clear();
  { TraceSpan off{"not.recorded"}; }
  EXPECT_EQ(rec.event_count(), 0u);

  rec.enable();
  {
    ARACHNET_TRACE_SPAN("outer");
    ARACHNET_TRACE_SPAN("inner");
  }
  rec.disable();
  { TraceSpan late{"also.not.recorded"}; }
#ifdef ARACHNET_TELEMETRY_DISABLED
  EXPECT_EQ(rec.event_count(), 0u);
#else
  EXPECT_EQ(rec.event_count(), 2u);
#endif

  std::ostringstream out;
  rec.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
#ifndef ARACHNET_TELEMETRY_DISABLED
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
#endif
  rec.clear();
  EXPECT_EQ(rec.event_count(), 0u);
}

TEST(Trace, RingWrapCountsDropped) {
  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.enable(/*events_per_thread=*/8);
  // A fresh thread gets a ring sized by the enable() above.
  std::thread t{[] {
    for (int i = 0; i < 20; ++i) TraceSpan span{"wrap"};
  }};
  t.join();
  rec.disable();
#ifndef ARACHNET_TELEMETRY_DISABLED
  EXPECT_LE(rec.event_count(), 8u + 8u);  // this thread's ring may persist
  EXPECT_GE(rec.dropped(), 12u);
#endif
  rec.clear();
}

TEST(Trace, ExportCarriesWallClockAnchor) {
  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.enable();
  { ARACHNET_TRACE_SPAN("anchored"); }
  rec.disable();

  // enable() captured both clocks back to back; the steady epoch is ts 0.
  EXPECT_NE(rec.wall_anchor_ns(), 0);
  EXPECT_NE(rec.epoch_ns(), 0u);

  std::ostringstream out;
  rec.write_chrome_trace(out);
  const std::string json = out.str();
  // One anchor record per file, in otherData and as an instant event.
  EXPECT_NE(json.find("\"clock_sync\""), std::string::npos);
  EXPECT_NE(json.find("\"clock_anchor\""), std::string::npos);
  EXPECT_NE(json.find("\"steady_epoch_ns\":" +
                      std::to_string(rec.epoch_ns())),
            std::string::npos);
  EXPECT_NE(json.find("\"wall_ns\":" + std::to_string(rec.wall_anchor_ns())),
            std::string::npos);
  rec.clear();
}

// -------------------------------------------------------------------- json

TEST(Json, NonFiniteDoublesSerializeAsNull) {
  JsonWriter w;
  w.begin_object();
  w.key("nan");
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.key("inf");
  w.value(std::numeric_limits<double>::infinity());
  w.key("ninf");
  w.value(-std::numeric_limits<double>::infinity());
  w.key("ok");
  w.value(1.5);
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"nan\":null,\"inf\":null,\"ninf\":null,\"ok\":1.5}");
}

// ----------------------------------------------------------------- logging

namespace {

struct CapturedLog {
  std::vector<std::string> lines;
};

void capture_sink(const LogRecord& r, void* user) {
  auto* cap = static_cast<CapturedLog*>(user);
  std::string line{to_string(r.level)};
  line += ' ';
  line.append(r.component);
  line += ": ";
  line.append(r.message);
  for (std::size_t i = 0; i < r.field_count; ++i) {
    const LogField& f = r.fields[i];
    line += ' ';
    line.append(f.key);
    line += '=';
    switch (f.kind) {
      case LogField::Kind::kInt: line += std::to_string(f.i); break;
      case LogField::Kind::kUint: line += std::to_string(f.u); break;
      case LogField::Kind::kDouble: line += std::to_string(f.d); break;
      case LogField::Kind::kBool: line += f.b ? "true" : "false"; break;
      case LogField::Kind::kString: line.append(f.s); break;
    }
  }
  cap->lines.push_back(std::move(line));
}

}  // namespace

TEST(Log, SinkReceivesStructuredFieldsAndLevelGateHolds) {
  CapturedLog cap;
  set_log_sink(&capture_sink, &cap);
  set_log_level(LogLevel::kInfo);

  ARACHNET_LOG_DEBUG("test", "below the level");  // suppressed
  ARACHNET_LOG_INFO("test", "hello", {"n", 3}, {"ok", true});
  ARACHNET_LOG_WARN("test", "watch out", {"ratio", 0.5});

  set_log_sink(&stderr_log_sink);
  set_log_level(LogLevel::kWarn);
#ifdef ARACHNET_TELEMETRY_DISABLED
  EXPECT_TRUE(cap.lines.empty());
#else
  ASSERT_EQ(cap.lines.size(), 2u);
  EXPECT_EQ(cap.lines[0], "INFO test: hello n=3 ok=true");
  EXPECT_EQ(cap.lines[1], "WARN test: watch out ratio=0.500000");
#endif
}

// ------------------------------------------------------------ JSONL export

TEST(Export, EnvelopeAndEscaping) {
  JsonlExporter ex{std::string{JsonlExporter::kBenchSchema}, "unit_test"};
  ex.add_metric("plain", 1.5, "ms");
  ex.add_counter("count", 7);
  ex.add_gauge("g\"q", 2.0);  // quote must be escaped
  ex.add_percentiles("p", {{0.5, 10.0}, {0.99, 20.0}}, "us");
  EXPECT_EQ(ex.line_count(), 4u);

  std::ostringstream out;
  ex.write(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"schema\":\"arachnet.bench.v1\""), std::string::npos);
  EXPECT_NE(text.find("\"bench\":\"unit_test\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"metric\""), std::string::npos);
  EXPECT_NE(text.find("\"unit\":\"ms\""), std::string::npos);
  EXPECT_NE(text.find("g\\\"q"), std::string::npos);
  EXPECT_NE(text.find("\"p50\":10"), std::string::npos);
  // One JSON object per line, no trailing garbage.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
            static_cast<long>(ex.line_count()));
}

TEST(Export, SnapshotRoundTrip) {
  MetricsRegistry reg;
  reg.counter("a").add(2);
  reg.gauge("b").set(3.5);
  reg.histogram("c", 0.0, 4.0, 4).record(1.0);

  JsonlExporter ex{"arachnet.metrics.v1", "test"};
  ex.add_snapshot(reg.snapshot());
  EXPECT_EQ(ex.line_count(), 3u);
  std::ostringstream out;
  ex.write(out);
  EXPECT_NE(out.str().find("\"kind\":\"histogram\""), std::string::npos);
}

// ----------------------------------------------- instrumentation parity

namespace {

std::vector<double> fdma_capture(int round, sim::Rng& rng,
                                 acoustic::UplinkWaveformSynth& synth) {
  std::vector<acoustic::BackscatterSource> srcs;
  for (int k = 0; k < 4; ++k) {
    const phy::UlPacket pkt{
        .tid = static_cast<std::uint8_t>(k + 1),
        .payload = static_cast<std::uint16_t>(0x400 + 8 * round + k)};
    phy::SubcarrierModulator mod{{375.0, 3000.0 + 1500.0 * k}};
    acoustic::BackscatterSource s;
    s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.03;
    s.amplitude = 0.12 + 0.01 * k;
    s.phase_rad = 0.5 + 0.4 * k;
    srcs.push_back(s);
  }
  return synth.synthesize(srcs, 0.3, rng);
}

reader::FdmaRxChain::Params four_channel_params(
    telemetry::MetricsRegistry* metrics) {
  reader::FdmaRxChain::Params fp;
  fp.ddc.decimation = 8;
  fp.workers = 2;
  // Pinned: the test covers the channelizer's instruments, and kAuto keeps
  // four channels on the per-channel bank.
  fp.bank = reader::FdmaRxChain::BankPolicy::kChannelizer;
  for (int k = 0; k < 4; ++k) fp.channels.push_back({3000.0 + 1500.0 * k});
  fp.metrics = metrics;
  return fp;
}

}  // namespace

// The telemetry guarantee: a fully instrumented bank (metrics registry,
// tracing enabled, debug logging) decodes bit-identically to a bare one.
TEST(TelemetryParity, InstrumentedFdmaBankMatchesBareBitExactly) {
  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.enable();
  set_log_level(LogLevel::kError);  // keep test output quiet but live

  MetricsRegistry registry;
  reader::FdmaRxChain bare{four_channel_params(nullptr)};
  reader::FdmaRxChain instrumented{four_channel_params(&registry)};

  sim::Rng rng_a{42}, rng_b{42};
  acoustic::UplinkWaveformSynth synth_a{acoustic::UplinkWaveformSynth::Params{}};
  acoustic::UplinkWaveformSynth synth_b{acoustic::UplinkWaveformSynth::Params{}};

  std::size_t total = 0;
  for (int round = 0; round < 2; ++round) {
    const auto wave_a = fdma_capture(round, rng_a, synth_a);
    const auto wave_b = fdma_capture(round, rng_b, synth_b);
    ASSERT_EQ(wave_a, wave_b);
    constexpr std::size_t kBlock = 12500;
    for (std::size_t off = 0; off < wave_a.size(); off += kBlock) {
      const std::size_t len = std::min(kBlock, wave_a.size() - off);
      const std::vector<double> block(wave_a.begin() + off,
                                      wave_a.begin() + off + len);
      bare.process(block);
      instrumented.process(block);
    }
  }
  rec.disable();
  set_log_level(LogLevel::kInfo);

  for (std::size_t c = 0; c < bare.channel_count(); ++c) {
    ASSERT_EQ(bare.packets(c), instrumented.packets(c)) << "channel " << c;
    total += bare.packets(c).size();
    // The registry counters must agree with the bank's own statistics.
    const auto st = instrumented.channel_stats(c);
    char name[48];
    std::snprintf(name, sizeof(name), "fdma.ch%zu.frames", c);
    EXPECT_EQ(registry.counter(name).value(), st.frames_ok);
    std::snprintf(name, sizeof(name), "fdma.ch%zu.bits", c);
    EXPECT_EQ(registry.counter(name).value(), st.bits);
  }
  EXPECT_GE(total, 6u) << "capture failed to decode; parity vacuous";
  // Channelizer instrumentation: the pinned bank engages the shared
  // channelizer on this uniform four-channel grid, and says so.
  EXPECT_EQ(instrumented.active_bank(),
            reader::FdmaRxChain::BankPolicy::kChannelizer);
  EXPECT_DOUBLE_EQ(registry.gauge("fdma.bank_policy").value(), 1.0);
  const auto chzr_frames = registry.counter("fdma.chzr.frames").value();
  EXPECT_GT(chzr_frames, 0u);
  // In lane mode a channel consumes exactly one lane sample per frame.
  EXPECT_EQ(chzr_frames, instrumented.channel_stats(0).iq_samples);
  registry.counter("fdma.chzr.fft_us");  // bound; value is hw-dependent
#ifndef ARACHNET_TELEMETRY_DISABLED
  EXPECT_GT(rec.event_count(), 0u);  // spans actually fired
#endif
  rec.clear();
}

TEST(TelemetryParity, RealtimeReaderPublishesQueueAndPacketMetrics) {
  MetricsRegistry registry;
  reader::RealtimeReader::Params params;
  params.metrics = &registry;
  reader::RealtimeReader rt{params};
  rt.start();

  sim::Rng rng{7};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};
  const phy::UlPacket pkt{.tid = 9, .payload = 0x5C3};
  acoustic::BackscatterSource src;
  src.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
  src.chip_rate = 375.0;
  src.start_s = 0.03;
  src.amplitude = 0.2;
  src.phase_rad = 1.2;
  const auto wave = synth.synthesize({src}, 0.35, rng);

  constexpr std::size_t kBlock = 12500;
  std::size_t blocks = 0;
  for (std::size_t off = 0; off < wave.size(); off += kBlock, ++blocks) {
    const std::size_t len = std::min(kBlock, wave.size() - off);
    ASSERT_TRUE(rt.submit({wave.begin() + off, wave.begin() + off + len}));
  }
  rt.stop();

  std::size_t fetched = 0;
  bool saw_pkt = false;
  while (auto p = rt.poll_packet()) {
    saw_pkt |= (p->packet == pkt);
    ++fetched;
  }
  EXPECT_TRUE(saw_pkt);

  const auto stats = rt.stats();
  EXPECT_EQ(stats.packets_emitted, fetched);
  EXPECT_GE(stats.backpressure_stall_s, 0.0);
  EXPECT_EQ(registry.counter("reader.packets_emitted").value(), fetched);
  EXPECT_EQ(registry.counter("reader.blocks").value(), blocks);
  const auto snap = registry.snapshot();
  const auto hist = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& h) { return h.name == "reader.block_ms"; });
  ASSERT_NE(hist, snap.histograms.end());
  EXPECT_EQ(hist->count, blocks);
}

// ------------------------------------------------------------ scoping

TEST(Metrics, ScopedNamePrefixesOnlyWhenScopeSet) {
  EXPECT_EQ(scoped_name("", "reader.blocks"), "reader.blocks");
  EXPECT_EQ(scoped_name("r0.", "reader.blocks"), "r0.reader.blocks");
  EXPECT_EQ(scoped_name("fleet.", "bus.depth"), "fleet.bus.depth");
}

TEST(Metrics, ScopedInstancesShareRegistryWithoutColliding) {
  // Two instruments that differ only by scope are distinct rows; the
  // unscoped name keeps its historical identity.
  MetricsRegistry reg;
  reg.counter(scoped_name("r0.", "reader.blocks")).add(3);
  reg.counter(scoped_name("r1.", "reader.blocks")).add(5);
  reg.counter("reader.blocks").add(7);
  EXPECT_EQ(reg.counter("r0.reader.blocks").value(), 3u);
  EXPECT_EQ(reg.counter("r1.reader.blocks").value(), 5u);
  EXPECT_EQ(reg.counter("reader.blocks").value(), 7u);
}
