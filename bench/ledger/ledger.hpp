#pragma once

// Shared pieces of the reader perf ledger (see README.md): run options and
// phase sizing, metric rows, the ground-truth capture and packet scorer,
// bench-side spans, and process/statistics helpers.

#include <complex>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arachnet/dsp/ddc.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/reader/rx_chain.hpp"
#include "arachnet/telemetry/counting_alloc.hpp"
#include "arachnet/telemetry/metrics.hpp"

namespace ledger {

inline constexpr double kSampleRate = 500e3;  ///< the paper's DAQ rate
inline constexpr std::size_t kBlock = 10000;  ///< 20 ms DAQ blocks
inline constexpr double kBlockS = static_cast<double>(kBlock) / kSampleRate;
/// Leak tracking (per chip) for the streamed single chain. The chain's
/// default freezes its leak estimate and relies on a slotted resync() to
/// re-baseline; a stream that changes tag every window has no slot
/// boundaries the front halves can see, and the frozen estimate loses
/// about one window in five.
inline constexpr double kStreamLeakAlpha = 0.2;

std::uint64_t now_ns() noexcept;
/// Busy-waits until `t_ns`. The paced generators stand in for the DAQ,
/// which delivers on a hardware clock: a sleeping thread on a shared VM
/// wakes late, in some runs by more than 1 ms on a third of its ticks, and
/// that lateness would read as the front half's latency.
void spin_until_ns(std::uint64_t t_ns) noexcept;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;  ///< result and trace files; none with --smoke
  std::string commit = "unknown";
};

/// Phase sizing, fixed per workload so that two commits always measure the
/// same work. The paced phase is `segments` segments of `segment_s`,
/// together sized to deliver at least kPhasePackets packets. The untraced
/// run runs each segment on a freshly built front half, and spreads
/// `rounds` rounds over the gaps before the segments. A round is
/// `setups_per_round` fresh constructions, each timed (setup_s: the
/// median), the last running one closed-loop burst (rtf_per_core: the
/// best kRateWindowS stretch of any burst; mem_mib: the median peak). On
/// a shared host the cores run this code at a speed that changes many
/// times a second (other tenants); interference only ever slows a stretch,
/// so the best stretch is what repeats. The traced run paces the segments
/// as one phase, and its overhead compares six pairs of plain and traced
/// bursts. --smoke runs one of each at 1/20 of the length and only checks
/// the outputs.
struct Plan {
  int segments = 3;
  double segment_s = 10.0 / 3.0;
  int rounds = 9;
  int setups_per_round = 3;
  double burst_s = 1.0;
  double overhead_burst_s = 0.25;
  int overhead_pairs = 6;

  double paced_s() const noexcept { return segments * segment_s; }
};
Plan make_plan(const Options& opt, int segments, double segment_s);

/// Delivered packets a paced phase is sized for: its 99th percentile then
/// has at least ten samples beyond it.
inline constexpr std::size_t kPhasePackets = 1000;

/// The shortest stretch of a closed-loop burst rtf_per_core is taken over.
inline constexpr double kRateWindowS = 0.05;

/// Progress of one closed-loop burst: (wall time, DAQ samples done)
/// checkpoints, one whenever the count moves. Its pages are touched at
/// construction, so recording neither allocates nor shows up in mem_mib;
/// a full log stops recording, and the rate is taken over what it holds.
class Progress {
 public:
  explicit Progress(std::size_t capacity = 1 << 16);
  void clear() noexcept { marks_.clear(); }
  void mark(std::uint64_t samples) noexcept;
  /// DAQ-seconds per wall-second over the fastest stretch between two
  /// checkpoints at least `window_s` apart; over the whole log when it is
  /// shorter than that.
  double best_rate(double window_s) const noexcept;

 private:
  struct Mark {
    std::uint64_t t_ns;
    std::uint64_t samples;
  };
  std::vector<Mark> marks_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: metric rows, diagnostic rows (written
/// to the result file only), the paced phase's attempted and failed
/// operations, and every output check that failed.
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<Metric> diagnostics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit);
  void expect(bool ok, std::string what);
};

// ------------------------------------------------------------ ground truth

/// A cyclic DAQ capture with exact per-window ground truth. Windows are
/// rendered by consecutive UplinkWaveformSynth calls, so the carrier runs
/// on without a break, and every window is a multiple of 50 samples, so
/// the 90 kHz carrier (9 cycles per 50 samples) is phase-continuous where
/// cyclic replay wraps. Each window carries one packet per lane; the
/// payload encodes the window index.
struct Capture {
  std::vector<double> samples;
  std::size_t window_samples = 0;
  std::size_t windows = 0;
  std::size_t lanes = 1;
  std::uint64_t packet_end = 0;  ///< window start -> its packets' last chip
  std::vector<arachnet::phy::UlPacket> truth;  ///< [window * lanes + lane]

  std::size_t blocks() const noexcept { return samples.size() / kBlock; }
  /// Block `k` of the cyclic replay.
  const double* block(std::uint64_t k) const noexcept {
    return samples.data() + (k % blocks()) * kBlock;
  }
};

/// single_375 / service16: one 375 bps tag per 0.28 s window.
Capture render_single(std::uint64_t seed, std::size_t windows);
/// fdma32_grid: one tag per subcarrier of fdma_grid() per 0.3 s window.
Capture render_fdma(std::uint64_t seed, std::size_t windows);
/// 32 subcarriers on a uniform 1 500 Hz grid from 3 375 Hz.
std::vector<double> fdma_grid();

/// One decoded packet and the wall time its consumer received it.
struct Delivered {
  arachnet::reader::RxPacket rx;
  std::uint64_t emit_ns = 0;
  std::uint32_t stream = 0;  ///< service session index (0 elsewhere)
};

/// Fixed-capacity packet log: its pages are touched at construction, so
/// recording neither allocates nor shows up in mem_mib. A full log counts
/// the overflow instead of growing.
class PacketLog {
 public:
  explicit PacketLog(std::size_t capacity);
  void push(const arachnet::reader::RxPacket& p, std::uint64_t emit_ns,
            std::uint32_t stream) noexcept;
  void clear() noexcept {
    entries_.clear();
    overflow_ = 0;
  }
  const std::vector<Delivered>& entries() const noexcept { return entries_; }
  std::uint64_t overflow() const noexcept { return overflow_; }

 private:
  std::vector<Delivered> entries_;
  std::uint64_t overflow_ = 0;
};

/// Scores the packets of one stream (the capture replayed cyclically from
/// block `offset_blocks`) against the capture's truth. A packet belongs to
/// the stream window its last-sample time (`RxPacket::time_s`, on the
/// front half's own sample clock) points at, or to a later window when
/// the front half dropped blocks. Spurious: CRC-valid packets that are no
/// window's truth for their lane, or repeat one already seen.
class Scorer {
 public:
  Scorer(const Capture& cap, std::uint64_t offset_blocks,
         std::uint64_t stream_samples);
  /// The paced phase as stream samples [begin, end): windows wholly inside
  /// it count as transmitted.
  void set_phase(std::uint64_t begin, std::uint64_t end);
  /// For the first decode of a transmitted window's lane, the packet's
  /// last-sample time as a stream sample (its clock plus any blocks the
  /// front half dropped before it); nullopt otherwise.
  std::optional<double> score(const arachnet::reader::RxPacket& p);

  std::uint64_t transmitted() const noexcept {
    return (phase_end_ - phase_begin_) * cap_.lanes;
  }
  std::uint64_t delivered() const noexcept { return delivered_; }
  std::uint64_t spurious() const noexcept { return spurious_; }

 private:
  const Capture& cap_;
  std::uint64_t offset_samples_;
  std::uint64_t phase_begin_ = 0;  ///< stream windows [begin, end)
  std::uint64_t phase_end_ = 0;
  std::vector<bool> seen_;
  std::uint64_t delivered_ = 0;
  std::uint64_t spurious_ = 0;
};

/// What every workload measures in its paced phase. report() adds the
/// end-to-end rows (untraced run) or the validity rows (traced run), sets
/// attempted/failed, and checks the outputs.
struct Paced {
  std::vector<double> latency_ms;  ///< capture -> emit, delivered packets
  std::vector<double> late_ms;     ///< generator lateness per submit tick
  std::uint64_t transmitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t spurious = 0;
  std::uint64_t attempted = 0;  ///< blocks/packets/messages offered
  std::uint64_t failed = 0;     ///< of those, dropped or refused
  std::int64_t steady_allocs = 0;

  void report(Outcome& out, const Options& opt) const;
};

/// The paced phase on one stream: stream samples [s0, s1), sample s0 + x
/// being due at t0 + x / fs / rate_x.
struct PhaseClock {
  std::uint64_t s0 = 0;
  std::uint64_t s1 = 0;
  std::uint64_t t0_ns = 0;
  double rate_x = 1.0;

  std::uint64_t due_ns(double sample) const noexcept;
};

/// Scores stream `stream` of `log` (see Scorer) and records each
/// delivery's capture -> emit latency: its emit time minus the due time of
/// its last sample. Measured from the schedule, so generator stalls count.
void score_stream(const Capture& cap, const PacketLog& log,
                  std::uint32_t stream, std::uint64_t offset_blocks,
                  std::uint64_t stream_samples, const PhaseClock& clock,
                  Paced& paced);

// ------------------------------------------------------------------ spans

/// Bench-side spans around calls into the front halves and the layer
/// replay, kept in memory (one pre-sized log per thread) and written at
/// exit in Chrome trace format. Each span has a name, start, end, parent
/// and block id; ids are 1-based indices into the log (0 = none).
class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;  ///< string literal
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t block = 0;
    std::uint32_t parent = 0;
  };

  SpanLog(std::size_t capacity, int tid);
  std::uint32_t begin(const char* name, std::uint64_t block,
                      std::uint32_t parent = 0) noexcept;
  void end(std::uint32_t id) noexcept;

  /// Durations of every closed span called `name`, in microseconds.
  std::vector<double> durations_us(std::string_view name) const;
  /// Total duration of the spans called `name`, in nanoseconds.
  double total_ns(std::string_view name) const;
  /// Duration of span `id` in nanoseconds (0 for id 0 or an open span).
  double duration_ns(std::uint32_t id) const noexcept;

  const std::vector<Span>& spans() const noexcept { return spans_; }
  int tid() const noexcept { return tid_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::vector<Span> spans_;
  int tid_;
  std::uint64_t dropped_ = 0;
};

/// Writes the logs as one Chrome trace (`traceEvents` of complete events).
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs);
/// Writes TRACE_<workload>.json into the output directory (not with
/// --smoke); a full span log or a failed write is an error.
void save_trace(const Options& opt, const std::vector<const SpanLog*>& logs,
                Outcome& out);

// ---------------------------------------------------------------- helpers

/// Quantile by linear interpolation (0 for an empty sample set).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Restricts this thread, and every thread created after it, to the `k`
/// cores that run a short DDC probe fastest. On a shared host one core can
/// run this code far slower than the others (another tenant on the same
/// physical core); the traced run pins itself so that the front half and
/// the layer replay, which run on different threads, run on cores of the
/// same speed.
void pin_to_fastest_cores(std::size_t k);

/// Tracing overhead: closed-loop throughput of a plain front half over an
/// instrumented one, in `plan.overhead_pairs` alternating pairs; the
/// median pair ratio, in percent. `burst(registry)` builds a front half
/// (with `registry` attached and bench spans on when it is non-null) and
/// returns one closed-loop burst's rtf_per_core.
template <typename Burst>
double trace_overhead_pct(const Plan& plan, Burst&& burst) {
  std::vector<double> ratio;
  for (int pair = 0; pair < plan.overhead_pairs; ++pair) {
    double rtf[2] = {0.0, 0.0};  // [plain, traced]
    for (int arm = 0; arm < 2; ++arm) {
      const int traced = (arm + pair) % 2;
      arachnet::telemetry::MetricsRegistry registry;
      rtf[traced] = burst(traced ? &registry : nullptr);
    }
    if (rtf[1] > 0.0) ratio.push_back(rtf[0] / rtf[1]);
  }
  return (median(ratio) - 1.0) * 100.0;
}

/// Heap allocations `fn` makes. The counters are process-wide: callers
/// run it while the front half is idle.
template <typename Fn>
std::int64_t allocations_of(Fn&& fn) {
  const arachnet::telemetry::CountingAllocatorGuard guard;
  fn();
  return static_cast<std::int64_t>(guard.allocations());
}

/// Resident set (VmRSS) and its peak (VmHWM) in MiB.
double rss_mib();
double peak_rss_mib();
/// Returns freed heap to the kernel and resets VmHWM to the current RSS,
/// so a system built next faults in its own pages and its peak shows
/// (false when the kernel refuses the reset).
bool reset_peak_rss();

/// The untraced run's system-level samples (see Plan); report() adds
/// setup_s (median), rtf_per_core (best) and mem_mib (median).
struct Untraced {
  std::vector<double> setup_s;
  std::vector<double> rtf;
  std::vector<double> mem_mib;

  void report(Outcome& out) const;
};

/// The untraced run (see Plan). `set_up(double* seconds)` builds and warms
/// one system, returning it as a std::unique_ptr; `burst(sys)` runs one
/// closed-loop burst and returns its best stretch's rtf_per_core;
/// `segment(system)` paces one segment on a freshly set-up system and
/// scores it. A round's mem_mib sample is the peak RSS over its burst
/// system's construction, warm-up and burst, minus the RSS just before,
/// freed heap having been returned to the kernel: the system's footprint
/// with its queues at the in-flight caps, which host stalls in a paced
/// phase would otherwise set.
template <typename SetUp, typename Burst, typename Segment>
Untraced run_untraced_plan(const Plan& plan, SetUp&& set_up, Burst&& burst,
                           Segment&& segment, Outcome& out) {
  Untraced u;
  const auto timed_set_up = [&] {
    double seconds = 0.0;
    auto system = set_up(&seconds);
    u.setup_s.push_back(seconds);
    return system;
  };
  for (int s = 0; s < plan.segments; ++s) {
    const int rounds = (s + 1) * plan.rounds / plan.segments -
                       s * plan.rounds / plan.segments;
    for (int round = 0; round < rounds; ++round) {
      for (int k = 0; k < plan.setups_per_round; ++k) {
        const bool last = k + 1 == plan.setups_per_round;
        double rss0 = 0.0;
        if (last) {
          out.expect(reset_peak_rss(), "cannot reset VmHWM");
          rss0 = rss_mib();
        }
        auto system = timed_set_up();
        if (last) {
          u.rtf.push_back(burst(*system));
          u.mem_mib.push_back(peak_rss_mib() - rss0);
        }
      }
    }
    segment(timed_set_up());
  }
  return u;
}

/// Registry readings. Histogram deltas subtract an earlier snapshot so a
/// phase's mean excludes warm-up samples.
struct HistDelta {
  double sum = 0.0;
  std::uint64_t count = 0;
  double mean() const noexcept {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
};
HistDelta hist_delta(const arachnet::telemetry::MetricsSnapshot& before,
                     const arachnet::telemetry::MetricsSnapshot& after,
                     std::string_view name);
std::uint64_t counter_delta(const arachnet::telemetry::MetricsSnapshot& before,
                            const arachnet::telemetry::MetricsSnapshot& after,
                            std::string_view name);
double gauge_value(const arachnet::telemetry::MetricsSnapshot& snap,
                   std::string_view name);

// ----------------------------------------------------------- layer replay

/// The bank replays (fdma32_grid, fleet4x3) run their standalone front-end
/// objects on every 4th timed block or shard epoch only, so the generator
/// keeps its schedule and their scratch does not evict the bank's state.
inline constexpr std::uint64_t kFrontEndEvery = 4;

/// The single chain every single_375 and service16 stream runs.
arachnet::reader::RxChain::Params single_chain_params();

/// Layer totals of a replay: time per layer (ns) over `samples` DAQ
/// samples, and the replayed chain's decode counters.
struct ReplayCost {
  double samples = 0.0;
  double ddc_ns = 0.0;
  double chzr_ns = 0.0;
  double chain_ns = 0.0;  ///< the whole RxChain / FdmaRxChain call
  double lane_ns = 0.0;   ///< bank: chain minus its front-end spans
  double synth_ns = 0.0;
  std::uint64_t bits = 0;
  std::uint64_t frames_ok = 0;
  std::uint64_t crc_failures = 0;

  double per_sample(double ns) const noexcept {
    return samples > 0.0 ? ns / samples : 0.0;
  }
  /// reader.bits / frames_ok / crc_failures / crc_ok_ratio rows.
  void report_counters(Outcome& out) const;
};

/// The single chain's layers as standalone public objects: a dsp::Ddc
/// with the chain's documented resolved cutoff, and a whole RxChain. The
/// traced runs feed it every block right after the front half has
/// processed that block, so both see the machine in the same state.
class SingleReplay {
 public:
  explicit SingleReplay(SpanLog& spans);
  /// Runs one block through both objects; timed blocks record a
  /// `replay.block` span with `dsp.ddc` and `reader.rx_chain` children.
  void feed(const double* block, std::uint64_t id, bool timed);
  ReplayCost cost() const;

 private:
  SpanLog& spans_;
  arachnet::dsp::Ddc ddc_;
  arachnet::reader::RxChain chain_;
  std::vector<std::complex<double>> iq_;
  std::uint64_t timed_blocks_ = 0;
  std::uint64_t frames_ok_ = 0;
  std::uint64_t bits0_ = 0;
  std::uint64_t crc0_ = 0;
};

// -------------------------------------------------------------- workloads

Outcome run_single_375(const Options& opt);
Outcome run_fdma32_grid(const Options& opt);
Outcome run_service16(const Options& opt);
Outcome run_fleet4x3(const Options& opt);

}  // namespace ledger
