#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numbers>
#include <stdexcept>

#include <malloc.h>
#include <sched.h>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/dsp/ddc.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/sim/rng.hpp"
#include "arachnet/telemetry/json.hpp"
#include "ledger.hpp"

namespace ledger {

namespace acoustic = arachnet::acoustic;
namespace dsp = arachnet::dsp;
namespace phy = arachnet::phy;
namespace sim = arachnet::sim;
namespace telemetry = arachnet::telemetry;
using arachnet::reader::RxPacket;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void spin_until_ns(std::uint64_t t_ns) noexcept {
  while (now_ns() < t_ns) {
  }
}

Plan make_plan(const Options& opt, int segments, double segment_s) {
  Plan p;
  p.segments = segments;
  p.segment_s = segment_s;
  if (opt.smoke) {
    p.segment_s = p.paced_s() / 20.0;
    p.segments = 1;
    p.rounds = 1;
    p.setups_per_round = 1;
    p.burst_s = 0.1 * p.segment_s;
    p.overhead_burst_s = p.burst_s;
    p.overhead_pairs = 1;
  }
  return p;
}

Progress::Progress(std::size_t capacity) {
  marks_.resize(capacity);  // touch every page now, not mid-measurement
  marks_.clear();
}

void Progress::mark(std::uint64_t samples) noexcept {
  if (!marks_.empty() && marks_.back().samples == samples) return;
  if (marks_.size() == marks_.capacity()) return;
  marks_.push_back(Mark{now_ns(), samples});
}

double Progress::best_rate(double window_s) const noexcept {
  if (marks_.size() < 2) return 0.0;
  const auto rate = [](const Mark& a, const Mark& b) {
    return static_cast<double>(b.samples - a.samples) / kSampleRate /
           (static_cast<double>(b.t_ns - a.t_ns) * 1e-9);
  };
  const auto window = static_cast<std::uint64_t>(window_s * 1e9);
  double best = 0.0;
  bool any = false;
  std::size_t j = 0;
  for (std::size_t i = 0; i < marks_.size(); ++i) {
    while (j < marks_.size() && marks_[j].t_ns - marks_[i].t_ns < window) ++j;
    if (j == marks_.size()) break;
    best = std::max(best, rate(marks_[i], marks_[j]));
    any = true;
  }
  return any ? best : rate(marks_.front(), marks_.back());
}

void Untraced::report(Outcome& out) const {
  out.add("setup_s", median(setup_s), "s");
  out.add("rtf_per_core", *std::max_element(rtf.begin(), rtf.end()), "x");
  out.add("mem_mib", median(mem_mib), "MiB");
}

void Outcome::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Outcome::expect(bool ok, std::string what) {
  if (!ok) errors.push_back(std::move(what));
}

// ------------------------------------------------------------ ground truth

namespace {

/// Log-uniform draw across a link-budget amplitude range.
double link_amplitude(sim::Rng& rng, double lo, double hi) {
  return lo * std::pow(hi / lo, rng.uniform());
}

/// Samples from a window's start to the source's last chip.
std::uint64_t packet_end(const acoustic::BackscatterSource& s) {
  return static_cast<std::uint64_t>(
      std::llround((s.start_s + static_cast<double>(s.chips.size()) /
                                    s.chip_rate) *
                   kSampleRate));
}

void append_window(Capture& cap, acoustic::UplinkWaveformSynth& synth,
                   const std::vector<acoustic::BackscatterSource>& srcs,
                   sim::Rng& rng) {
  const auto wave = synth.synthesize(
      srcs, static_cast<double>(cap.window_samples) / kSampleRate, rng);
  if (wave.size() != cap.window_samples) {
    throw std::runtime_error("capture window rendered to the wrong length");
  }
  cap.samples.insert(cap.samples.end(), wave.begin(), wave.end());
}

}  // namespace

std::vector<double> fdma_grid() {
  std::vector<double> hz;
  for (int k = 0; k < 32; ++k) hz.push_back(3375.0 + 1500.0 * k);
  return hz;
}

Capture render_single(std::uint64_t seed, std::size_t windows) {
  Capture cap;
  cap.window_samples = 140000;  // 0.28 s: a 375 bps packet plus guard
  cap.windows = windows;
  cap.samples.reserve(windows * cap.window_samples);
  sim::Rng rng{seed};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};
  for (std::size_t w = 0; w < windows; ++w) {
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(1 + w % 15),
                            .payload = static_cast<std::uint16_t>(w)};
    acoustic::BackscatterSource s;
    s.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
    s.chip_rate = phy::kDefaultUlRawBitRate;
    s.start_s = 0.03;
    // From a Tag-11-class link (the weakest deployed tag) to a strong one.
    s.amplitude = link_amplitude(rng, 0.013, 0.2);
    s.phase_rad = rng.uniform(0.0, 2.0 * std::numbers::pi);
    cap.packet_end = packet_end(s);
    append_window(cap, synth, {s}, rng);
    cap.truth.push_back(pkt);
  }
  return cap;
}

Capture render_fdma(std::uint64_t seed, std::size_t windows) {
  const auto grid = fdma_grid();
  Capture cap;
  cap.window_samples = 150000;  // 0.3 s
  cap.windows = windows;
  cap.lanes = grid.size();
  cap.samples.reserve(windows * cap.window_samples);
  sim::Rng rng{seed};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<acoustic::BackscatterSource> srcs;
    for (std::size_t c = 0; c < grid.size(); ++c) {
      const phy::UlPacket pkt{
          .tid = static_cast<std::uint8_t>(1 + c % 15),
          .payload = static_cast<std::uint16_t>((c << 5) | (w & 0x1F))};
      phy::SubcarrierModulator mod{{phy::kDefaultUlRawBitRate, grid[c]}};
      acoustic::BackscatterSource s;
      s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
      s.chip_rate = mod.subchip_rate();
      s.start_s = 0.03;
      // A narrower range than the single chain: 32 tags share the band,
      // and a weak tag beside strong neighbours is lost to leakage.
      s.amplitude = link_amplitude(rng, 0.15, 0.25);
      s.phase_rad = rng.uniform(0.0, 2.0 * std::numbers::pi);
      cap.packet_end = packet_end(s);
      srcs.push_back(std::move(s));
      cap.truth.push_back(pkt);
    }
    append_window(cap, synth, srcs, rng);
  }
  return cap;
}

PacketLog::PacketLog(std::size_t capacity) {
  entries_.resize(capacity);  // touch every page now, not mid-measurement
  entries_.clear();
}

void PacketLog::push(const RxPacket& p, std::uint64_t emit_ns,
                     std::uint32_t stream) noexcept {
  if (entries_.size() == entries_.capacity()) {
    ++overflow_;
    return;
  }
  entries_.push_back(Delivered{p, emit_ns, stream});
}

Scorer::Scorer(const Capture& cap, std::uint64_t offset_blocks,
               std::uint64_t stream_samples)
    : cap_(cap),
      offset_samples_(offset_blocks * kBlock),
      seen_(((offset_samples_ + stream_samples) / cap.window_samples + 1) *
                cap.lanes,
            false) {}

void Scorer::set_phase(std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t w = cap_.window_samples;
  phase_begin_ = (offset_samples_ + begin + w - 1) / w;
  phase_end_ = std::max(phase_begin_, (offset_samples_ + end) / w);
}

std::optional<double> Scorer::score(const RxPacket& p) {
  const double t = p.time_s * kSampleRate;
  if (!(t >= 0.0) || p.channel >= cap_.lanes) {
    ++spurious_;
    return std::nullopt;
  }
  // The packet's window: the one its clock points at or a later one, as a
  // front half that dropped blocks runs its clock behind the stream.
  // Payloads repeat only once per capture cycle, so the first match
  // within half a cycle is the window.
  const std::uint64_t clock =
      offset_samples_ + static_cast<std::uint64_t>(std::llround(t));
  const std::uint64_t at = clock / cap_.window_samples;
  const auto truth = [&](std::uint64_t w) -> const phy::UlPacket& {
    return cap_.truth[(w % cap_.windows) * cap_.lanes + p.channel];
  };
  std::uint64_t window = at;
  while (window <= at + cap_.windows / 2 && !(p.packet == truth(window))) {
    ++window;
  }
  const std::uint64_t key = window * cap_.lanes + p.channel;
  if (window > at + cap_.windows / 2 || key >= seen_.size() || seen_[key]) {
    ++spurious_;
    return std::nullopt;
  }
  seen_[key] = true;
  if (window < phase_begin_ || window >= phase_end_) return std::nullopt;
  ++delivered_;
  // The samples the clock lags by: whole dropped blocks, the gap between
  // the clock and where the window's packets end in the stream.
  const double behind =
      static_cast<double>(window * cap_.window_samples + cap_.packet_end) -
      static_cast<double>(clock);
  return t + std::max(0.0, std::round(behind / kBlock)) * kBlock;
}

std::uint64_t PhaseClock::due_ns(double sample) const noexcept {
  const double dt_s =
      (sample - static_cast<double>(s0)) / kSampleRate / rate_x;
  return t0_ns + static_cast<std::uint64_t>(std::max(0.0, dt_s) * 1e9);
}

void score_stream(const Capture& cap, const PacketLog& log,
                  std::uint32_t stream, std::uint64_t offset_blocks,
                  std::uint64_t stream_samples, const PhaseClock& clock,
                  Paced& paced) {
  Scorer scorer{cap, offset_blocks, stream_samples};
  scorer.set_phase(clock.s0, clock.s1);
  for (const auto& d : log.entries()) {
    if (d.stream != stream) continue;
    const auto sample = scorer.score(d.rx);
    if (!sample) continue;
    const std::uint64_t due = clock.due_ns(*sample);
    paced.latency_ms.push_back(
        static_cast<double>(static_cast<std::int64_t>(d.emit_ns - due)) *
        1e-6);
  }
  paced.transmitted += scorer.transmitted();
  paced.delivered += scorer.delivered();
  paced.spurious += scorer.spurious();
}

void Paced::report(Outcome& out, const Options& opt) const {
  out.attempted = attempted;
  out.failed = failed;
  out.expect(delivered > 0, "the paced phase delivered no packet");
  out.expect(opt.smoke || delivered >= kPhasePackets,
             "the paced phase delivered " + std::to_string(delivered) +
                 " packets, fewer than its p99 needs");
  out.expect(spurious == 0,
             std::to_string(spurious) + " spurious packet(s) decoded");
  if (!opt.trace) {
    out.add("emit_p50_ms", quantile(latency_ms, 0.50), "ms");
    out.diagnostics.push_back(
        Metric{"emit_p99_ms", quantile(latency_ms, 0.99), "ms"});
    out.add("delivery_ratio",
            transmitted ? static_cast<double>(delivered) /
                              static_cast<double>(transmitted)
                        : 0.0,
            "fraction");
    return;
  }
  out.add("bench.packets", static_cast<double>(delivered), "count");
  out.add("bench.gen_late_p99_ms", quantile(late_ms, 0.99), "ms");
  out.add("spurious_packets", static_cast<double>(spurious), "count");
  out.add("drop_frac",
          attempted ? static_cast<double>(failed) /
                          static_cast<double>(attempted)
                    : 0.0,
          "fraction");
  out.add("reader.steady_allocs", static_cast<double>(steady_allocs),
          "count");
}

// ------------------------------------------------------------------ spans

SpanLog::SpanLog(std::size_t capacity, int tid) : tid_(tid) {
  spans_.reserve(capacity);
}

std::uint32_t SpanLog::begin(const char* name, std::uint64_t block,
                             std::uint32_t parent) noexcept {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return 0;
  }
  spans_.push_back(Span{name, now_ns(), 0, block, parent});
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanLog::end(std::uint32_t id) noexcept {
  if (id != 0) spans_[id - 1].end_ns = now_ns();
}

std::vector<double> SpanLog::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.end_ns != 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

double SpanLog::total_ns(std::string_view name) const {
  double total = 0.0;
  for (const auto& s : spans_) {
    if (s.end_ns != 0 && name == s.name) {
      total += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return total;
}

double SpanLog::duration_ns(std::uint32_t id) const noexcept {
  if (id == 0 || spans_[id - 1].end_ns == 0) return 0.0;
  return static_cast<double>(spans_[id - 1].end_ns - spans_[id - 1].start_ns);
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs) {
  std::uint64_t origin = UINT64_MAX;
  for (const auto* log : logs) {
    for (const auto& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();
  for (const auto* log : logs) {
    std::uint32_t id = 0;
    for (const auto& s : log->spans()) {
      ++id;
      if (s.end_ns == 0) continue;
      w.begin_object();
      w.key("name");
      w.value(s.name);
      w.key("cat");
      w.value("ledger");
      w.key("ph");
      w.value("X");
      w.key("ts");
      w.value(static_cast<double>(s.start_ns - origin) * 1e-3);
      w.key("dur");
      w.value(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      w.key("pid");
      w.value(1);
      w.key("tid");
      w.value(log->tid());
      w.key("args");
      w.begin_object();
      w.key("id");
      w.value(static_cast<std::uint64_t>(id));
      w.key("parent");
      w.value(static_cast<std::uint64_t>(s.parent));
      w.key("block");
      w.value(s.block);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  std::ofstream out{path};
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

void save_trace(const Options& opt, const std::vector<const SpanLog*>& logs,
                Outcome& out) {
  for (const auto* log : logs) {
    out.expect(log->dropped() == 0, "a span log overflowed");
  }
  if (opt.smoke) return;
  const std::string path = opt.out_dir + "/TRACE_" + opt.workload + ".json";
  out.expect(write_chrome_trace(path, logs), "cannot write " + path);
}

// ---------------------------------------------------------------- helpers

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

double proc_status_mib(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  const std::size_t n = std::strlen(field);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, n) == 0) {
      kib = std::strtod(line + n, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace

double rss_mib() { return proc_status_mib("VmRSS:"); }
double peak_rss_mib() { return proc_status_mib("VmHWM:"); }

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f{"/proc/self/clear_refs"};
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

namespace {

const telemetry::MetricsSnapshot::HistogramValue* find_hist(
    const telemetry::MetricsSnapshot& s, std::string_view name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::uint64_t find_counter(const telemetry::MetricsSnapshot& s,
                           std::string_view name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

}  // namespace

HistDelta hist_delta(const telemetry::MetricsSnapshot& before,
                     const telemetry::MetricsSnapshot& after,
                     std::string_view name) {
  HistDelta d;
  if (const auto* h = find_hist(after, name)) {
    d.sum = h->sum;
    d.count = h->count;
  }
  if (const auto* h = find_hist(before, name)) {
    d.sum -= h->sum;
    d.count -= h->count;
  }
  return d;
}

std::uint64_t counter_delta(const telemetry::MetricsSnapshot& before,
                            const telemetry::MetricsSnapshot& after,
                            std::string_view name) {
  return find_counter(after, name) - find_counter(before, name);
}

double gauge_value(const telemetry::MetricsSnapshot& snap,
                   std::string_view name) {
  for (const auto& g : snap.gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

void pin_to_fastest_cores(std::size_t k) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<double> block(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    block[i] = std::cos(0.37 * static_cast<double>(i));
  }
  std::vector<std::complex<double>> iq;
  iq.reserve(kBlock);
  std::vector<std::pair<double, int>> probe;  // (best ns, cpu)
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    dsp::Ddc ddc{dsp::Ddc::Params{}};
    double best = 1e300;
    for (int rep = 0; rep < 4; ++rep) {
      const std::uint64_t t0 = now_ns();
      for (int b = 0; b < 16; ++b) {
        iq.clear();
        ddc.process(std::span<const double>{block}, iq);
      }
      best = std::min(best, static_cast<double>(now_ns() - t0));
    }
    probe.emplace_back(best, cpu);
  }
  std::sort(probe.begin(), probe.end());
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (std::size_t i = 0; i < probe.size() && i < k; ++i) {
    CPU_SET(probe[i].second, &pinned);
  }
  if (probe.empty() || sched_setaffinity(0, sizeof pinned, &pinned) != 0) {
    sched_setaffinity(0, sizeof allowed, &allowed);
  }
}

// ----------------------------------------------------------- layer replay

arachnet::reader::RxChain::Params single_chain_params() {
  arachnet::reader::RxChain::Params p;
  p.leak_ema_alpha = kStreamLeakAlpha;
  p.retain_iq_points = false;  // what the streaming front halves force
  return p;
}

void ReplayCost::report_counters(Outcome& out) const {
  out.add("reader.bits", static_cast<double>(bits), "count");
  out.add("reader.frames_ok", static_cast<double>(frames_ok), "count");
  out.add("reader.crc_failures", static_cast<double>(crc_failures), "count");
  const std::uint64_t framed = frames_ok + crc_failures;
  out.add("reader.crc_ok_ratio",
          framed ? static_cast<double>(frames_ok) / static_cast<double>(framed)
                 : 0.0,
          "fraction");
}

namespace {

dsp::Ddc::Params single_ddc_params() {
  const auto params = single_chain_params();
  // RxChain's documented auto-bandwidth cutoff (RxChain::Params).
  dsp::Ddc::Params dp = params.ddc;
  dp.cutoff_hz = std::clamp(3.5 * params.chip_rate, 1.5e3, 12.5e3);
  return dp;
}

}  // namespace

SingleReplay::SingleReplay(SpanLog& spans)
    : spans_(spans), ddc_(single_ddc_params()), chain_(single_chain_params()) {
  iq_.reserve(kBlock / ddc_.params().decimation + 1);
}

void SingleReplay::feed(const double* block, std::uint64_t id, bool timed) {
  if (timed && timed_blocks_++ == 0) {
    bits0_ = chain_.bits_decoded();
    crc0_ = chain_.crc_failures();
  }
  // The chain goes first, meeting the block as cold as the front half
  // does; the standalone DDC then finds it cached.
  const std::uint32_t parent = timed ? spans_.begin("replay.block", id) : 0;
  std::uint32_t span = timed ? spans_.begin("reader.rx_chain", id, parent) : 0;
  chain_.process(block, kBlock);
  if (timed) frames_ok_ += chain_.packets().size();
  chain_.clear_packets();
  spans_.end(span);
  span = timed ? spans_.begin("dsp.ddc", id, parent) : 0;
  iq_.clear();
  ddc_.process(std::span<const double>{block, kBlock}, iq_);
  spans_.end(span);
  spans_.end(parent);
}

ReplayCost SingleReplay::cost() const {
  ReplayCost c;
  c.samples = static_cast<double>(timed_blocks_ * kBlock);
  c.ddc_ns = spans_.total_ns("dsp.ddc");
  c.chain_ns = spans_.total_ns("reader.rx_chain");
  c.bits = chain_.bits_decoded() - bits0_;
  c.frames_ok = frames_ok_;
  c.crc_failures = chain_.crc_failures() - crc0_;
  return c;
}

}  // namespace ledger
