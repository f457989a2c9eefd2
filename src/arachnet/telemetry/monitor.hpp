#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "arachnet/telemetry/metrics.hpp"

namespace arachnet::telemetry {

/// One counter's change between two registry snapshots.
struct CounterDelta {
  std::string name;
  std::uint64_t value = 0;    ///< current cumulative value
  std::uint64_t delta = 0;    ///< increase over the interval
  double rate_per_s = 0.0;    ///< delta / dt (0 when dt <= 0)
  /// Current < previous: the instrument restarted (new registry occupant,
  /// process restart behind a scrape). The interval's delta is unknowable,
  /// so delta/rate report the post-reset value instead of going negative.
  bool reset = false;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

/// One histogram's interval view between two snapshots: the samples that
/// arrived during the interval, with percentiles computed over just those
/// (cumulative percentiles flatten transients — a 2 s stall in hour ten of
/// a soak is invisible in the cumulative p99 but dominates the interval's).
struct HistogramDelta {
  std::string name;
  std::uint64_t count = 0;        ///< samples recorded this interval
  double rate_per_s = 0.0;        ///< count / dt
  double interval_mean = 0.0;     ///< mean of the interval's samples
  double interval_p50 = 0.0;
  double interval_p99 = 0.0;
  double cumulative_p50 = 0.0;    ///< over every sample since registration
  double cumulative_p99 = 0.0;
  bool reset = false;             ///< cumulative count went backwards
};

/// Difference of two MetricsSnapshots over `dt_s` seconds. Instruments
/// present only in `cur` (registered mid-interval) are treated as having
/// started from zero; instruments present only in `prev` are dropped.
struct SnapshotDelta {
  double dt_s = 0.0;
  std::vector<CounterDelta> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramDelta> histograms;

  const CounterDelta* counter(std::string_view name) const noexcept;
  const GaugeSample* gauge(std::string_view name) const noexcept;
  const HistogramDelta* histogram(std::string_view name) const noexcept;
};

/// Pure delta/rate computation the monitor samples are built from —
/// separated out so the math is unit-testable without a thread or clock.
SnapshotDelta compute_snapshot_delta(const MetricsSnapshot& prev,
                                     const MetricsSnapshot& cur,
                                     double dt_s);

/// Live health monitor: a background thread samples a MetricsRegistry on a
/// fixed period, turns consecutive snapshots into deltas and rates
/// (packets/s, drop rate, queue depth, interval latency percentiles),
/// keeps a bounded ring of history, streams each sample as one JSONL line
/// (schema `arachnet.monitor.v1`), and runs a watchdog over the stream:
///
///  - **stall**: a ProgressProbe's `progress` value failed to advance for
///    `Params::stall_periods` consecutive samples while the probe was
///    active (and, when a `demand` function is given, while demand kept
///    advancing — an idle session is not a stalled one);
///  - **saturation**: a watched depth gauge sat at or above
///    `threshold × capacity` for `periods` consecutive samples;
///  - **storm**: a watched counter's rate exceeded `max_rate_per_s` for
///    `periods` consecutive samples (e.g. TTL-expiry storms).
///
/// Every verdict is published three ways: a `health.<name>.<kind>` gauge
/// (0/1) registered in the *same* registry (so scrapes and later samples
/// see it), a structured log event on each raise/clear, and the optional
/// `Params::on_event` callback (invoked on the sampling thread — keep it
/// cheap and do not call back into the monitor from it).
///
/// Overhead model: the monitored hot paths pay nothing new — sampling
/// reads the same relaxed atomics the instruments already maintain. One
/// sample costs one registry snapshot (mutex + copy) plus the delta math,
/// tens of microseconds at a few hundred instruments, amortized over the
/// period (default 1 s). `bench_micro_telemetry` tracks the per-sample
/// cost; `ci/perf_gate.py` gates the end-to-end soak impact.
///
/// Threading: start()/stop() from one control thread; add_probe/add_*_watch
/// are mutex-guarded and safe any time (sessions open mid-run). sample_once()
/// may be called manually — deterministic tests and tick-from-outside
/// embeddings use it instead of start(). Probes must outlive the monitor or
/// be removed first; anything a probe captures (e.g. a ReaderService) must
/// outlive the monitor's run.
class HealthMonitor {
 public:
  static constexpr std::string_view kSchema = "arachnet.monitor.v1";

  /// Watches one unit of work for forward progress (e.g. one session).
  struct ProgressProbe {
    std::string name;  ///< flag gauge: `health.<name>.stalled`
    /// Monotonic completed-work counter (blocks processed + resolved).
    std::function<std::uint64_t()> progress;
    /// Optional monotonic requested-work counter. When set, a sample only
    /// counts toward the stall window if demand advanced while progress
    /// did not — work is arriving and nothing comes out.
    std::function<std::uint64_t()> demand;
    /// Optional liveness gate; a probe that reports inactive is skipped
    /// (and its raised flag cleared). Default: always active.
    std::function<bool()> active;
  };

  /// Watches a queue-depth gauge against its capacity.
  struct SaturationWatch {
    std::string name;         ///< flag gauge: `health.<name>.saturated`
    std::string depth_gauge;  ///< registry gauge holding the current depth
    double capacity = 0.0;
    double threshold = 0.9;   ///< raise at depth >= threshold * capacity
    int periods = 3;          ///< consecutive saturated samples to raise
  };

  /// Watches a counter's rate against a ceiling.
  struct RateWatch {
    std::string name;     ///< flag gauge: `health.<name>.storm`
    std::string counter;  ///< registry counter whose rate is watched
    double max_rate_per_s = 0.0;
    int periods = 2;      ///< consecutive over-rate samples to raise
  };

  enum class FlagKind { kStalled, kSaturated, kStorm };

  struct HealthEvent {
    FlagKind kind = FlagKind::kStalled;
    std::string flag;   ///< full gauge name, e.g. `health.session.3.stalled`
    bool raised = false;  ///< true on raise, false on clear
    std::uint64_t sample_index = 0;
    /// Kind-specific: stall periods elapsed / observed depth / observed rate.
    double value = 0.0;
  };
  using HealthCallback = std::function<void(const HealthEvent&)>;

  /// One monitor sample: the time-series record and the JSONL line's source.
  struct Sample {
    std::uint64_t index = 0;     ///< 0-based sample sequence number
    std::uint64_t steady_ns = 0; ///< steady_clock at the sample
    std::int64_t wall_ns = 0;    ///< system_clock at the sample (UTC ns)
    double dt_s = 0.0;           ///< interval covered by the deltas
    SnapshotDelta delta;
    std::vector<std::string> raised;  ///< health flags currently raised
  };

  struct Params {
    /// Required; must outlive the monitor. The monitor also registers its
    /// `health.*` flag gauges here.
    MetricsRegistry* registry = nullptr;
    double period_s = 1.0;     ///< sampling period (floored at 1 ms)
    std::size_t history = 120; ///< samples retained in the ring
    std::string source = "monitor";  ///< JSONL envelope source field
    /// When non-empty, every sample appends one JSONL line here (the file
    /// is opened on the first sample; open/write failures are logged once
    /// and the stream is disabled).
    std::string jsonl_path;
    /// Alternative sink for tests/embedders; used in addition to
    /// jsonl_path when both are set. Not owned; must outlive the monitor.
    std::ostream* jsonl_out = nullptr;
    int stall_periods = 2;  ///< K consecutive no-progress samples to raise
    HealthCallback on_event;
  };

  explicit HealthMonitor(Params params);
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  void add_probe(ProgressProbe probe);
  /// Drops the probe and clears its raised flag (if any). No-op when the
  /// name is unknown.
  void remove_probe(std::string_view name);
  void add_saturation_watch(SaturationWatch watch);
  void add_rate_watch(RateWatch watch);

  /// Spawns the sampling thread. No-op while running.
  void start();
  /// Joins the sampling thread (idempotent). The history and the JSONL
  /// stream written so far remain readable.
  void stop();
  bool running() const noexcept;

  /// One synchronous sampling pass: snapshot, delta, watchdogs, history,
  /// JSONL. The same routine the thread runs — call it directly for
  /// deterministic tests or externally-paced embeddings (not concurrently
  /// with itself; a mutex serializes against the thread).
  Sample sample_once();

  std::optional<Sample> latest() const;
  std::vector<Sample> history() const;
  std::uint64_t samples_taken() const noexcept;

  /// Prometheus text exposition of the registry's current cumulative
  /// state (see prometheus.hpp for the format contract).
  void write_prometheus(std::ostream& out) const;

  double period_s() const noexcept { return period_s_; }

 private:
  struct ProbeState {
    ProgressProbe probe;
    Gauge* flag = nullptr;
    std::uint64_t last_progress = 0;
    std::uint64_t last_demand = 0;
    bool primed = false;   ///< first observation taken
    int stalled_for = 0;   ///< consecutive qualifying no-progress samples
    bool raised = false;
  };
  struct SaturationState {
    SaturationWatch watch;
    Gauge* flag = nullptr;
    int over_for = 0;
    bool raised = false;
  };
  struct RateState {
    RateWatch watch;
    Gauge* flag = nullptr;
    int over_for = 0;
    bool raised = false;
  };

  void run_loop();
  void evaluate_watchdogs(const SnapshotDelta& delta,
                          std::uint64_t sample_index,
                          std::vector<std::string>* raised);
  void publish_flag(FlagKind kind, const std::string& flag, Gauge* gauge,
                    bool raised, std::uint64_t sample_index, double value);
  void write_jsonl(const Sample& sample);

  Params params_;
  double period_s_ = 1.0;

  mutable std::mutex mutex_;  ///< guards everything below
  std::deque<Sample> history_;
  MetricsSnapshot prev_snapshot_;
  std::uint64_t prev_steady_ns_ = 0;
  std::uint64_t next_index_ = 0;
  std::vector<ProbeState> probes_;
  std::vector<SaturationState> saturation_;
  std::vector<RateState> rates_;
  std::ofstream jsonl_file_;
  bool jsonl_failed_ = false;
  bool jsonl_opened_ = false;

  std::mutex run_mutex_;  ///< start/stop + wakeup signalling
  std::condition_variable wake_;
  std::thread thread_;
  bool stop_requested_ = false;
  bool running_ = false;
};

}  // namespace arachnet::telemetry
