#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace arachnet::telemetry {

/// Monotonic timestamp in nanoseconds (std::chrono::steady_clock): the one
/// clock behind the stage timers, queue ages and sampling periods.
inline std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic event counter. add() is a single relaxed atomic increment —
/// safe to call from any thread on a hot path.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge (queue depths, rates, voltages). set() is one relaxed
/// atomic store.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bin latency/duration histogram with a lock-free record() path:
/// one bin increment plus sum/min/max updates, all relaxed atomics.
/// Samples outside [lo, hi) land in underflow/overflow counters (same
/// semantics as sim::Histogram) so outliers stay visible.
class LatencyHistogram {
 public:
  LatencyHistogram(double lo, double hi, std::size_t bins);

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void record(double x) noexcept;

  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }
  std::size_t bins() const noexcept { return counts_.size(); }
  std::uint64_t bin_count(std::size_t i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t underflow() const noexcept {
    return underflow_.load(std::memory_order_relaxed);
  }
  std::uint64_t overflow() const noexcept {
    return overflow_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// +inf / -inf when empty.
  double min() const noexcept { return min_.load(std::memory_order_relaxed); }
  double max() const noexcept { return max_.load(std::memory_order_relaxed); }

 private:
  double lo_, hi_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Point-in-time copy of every metric in a registry, safe to format or
/// export without touching the live atomics again.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    double lo = 0.0, hi = 0.0;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0, underflow = 0, overflow = 0;
    double sum = 0.0, min = 0.0, max = 0.0;

    double mean() const noexcept {
      return count ? sum / static_cast<double>(count) : 0.0;
    }
    /// Percentile estimate from the bins (linear within a bin; out-of-range
    /// samples clamp to lo/hi). `q` in [0,1]; 0 with no samples.
    double percentile(double q) const noexcept;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Named metrics registry. Registration (counter/gauge/histogram lookup by
/// name) takes a mutex and is meant for setup paths; the returned
/// references are stable for the registry's lifetime, so hot paths hold
/// them and never touch the registry again. Re-registering a name returns
/// the existing instrument.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `lo`/`hi`/`bins` apply on first registration; later lookups of the
  /// same name ignore them and return the existing histogram.
  LatencyHistogram& histogram(std::string_view name, double lo, double hi,
                              std::size_t bins);

  /// Copies every metric under the registration lock: the set of metrics
  /// and their name->value pairing are consistent; values are relaxed
  /// reads of live atomics.
  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::deque<std::pair<std::string, LatencyHistogram>> histograms_;
};

/// Process-wide default registry, for call sites without an obvious owner
/// (benches and examples mostly pass their own registry explicitly).
MetricsRegistry& global_registry();

/// Applies an instance scope prefix to a metric name: scoped_name("r3.",
/// "reader.blocks") == "r3.reader.blocks"; an empty scope returns the name
/// unchanged, so unscoped (single-instance) metric names stay exactly as
/// they always were. Components that may be instantiated several times
/// against one shared registry (RealtimeReader, ReaderService, FdmaRxChain,
/// the fleet engine's per-reader shards) take a `metrics_scope` parameter
/// and register every instrument through this helper — without it, two
/// instances silently resolve the same name to one counter and their
/// totals sum indistinguishably.
inline std::string scoped_name(std::string_view scope,
                               std::string_view name) {
  std::string s;
  s.reserve(scope.size() + name.size());
  s.append(scope);
  s.append(name);
  return s;
}

}  // namespace arachnet::telemetry
