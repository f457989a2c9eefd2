#include "arachnet/telemetry/monitor.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "arachnet/telemetry/json.hpp"
#include "arachnet/telemetry/log.hpp"
#include "arachnet/telemetry/prometheus.hpp"

namespace arachnet::telemetry {

namespace {

std::int64_t wall_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string_view flag_kind_name(HealthMonitor::FlagKind kind) noexcept {
  switch (kind) {
    case HealthMonitor::FlagKind::kStalled:
      return "stalled";
    case HealthMonitor::FlagKind::kSaturated:
      return "saturated";
    case HealthMonitor::FlagKind::kStorm:
      return "storm";
  }
  return "unknown";
}

}  // namespace

const CounterDelta* SnapshotDelta::counter(std::string_view name) const
    noexcept {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSample* SnapshotDelta::gauge(std::string_view name) const noexcept {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramDelta* SnapshotDelta::histogram(std::string_view name) const
    noexcept {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

SnapshotDelta compute_snapshot_delta(const MetricsSnapshot& prev,
                                     const MetricsSnapshot& cur,
                                     double dt_s) {
  SnapshotDelta out;
  out.dt_s = dt_s;
  const double inv_dt = dt_s > 0.0 ? 1.0 / dt_s : 0.0;

  out.counters.reserve(cur.counters.size());
  for (const auto& c : cur.counters) {
    CounterDelta d;
    d.name = c.name;
    d.value = c.value;
    const MetricsSnapshot::CounterValue* p = nullptr;
    for (const auto& pc : prev.counters) {
      if (pc.name == c.name) {
        p = &pc;
        break;
      }
    }
    if (p != nullptr && p->value > c.value) {
      // Counter went backwards: the name was re-occupied by a fresh
      // instrument (registry swap, process restart). The true interval
      // delta is unknowable; count what the new occupant has seen.
      d.reset = true;
      d.delta = c.value;
    } else {
      d.delta = c.value - (p != nullptr ? p->value : 0);
    }
    d.rate_per_s = static_cast<double>(d.delta) * inv_dt;
    out.counters.push_back(std::move(d));
  }

  out.gauges.reserve(cur.gauges.size());
  for (const auto& g : cur.gauges) {
    out.gauges.push_back({g.name, g.value});
  }

  out.histograms.reserve(cur.histograms.size());
  for (const auto& h : cur.histograms) {
    HistogramDelta d;
    d.name = h.name;
    d.cumulative_p50 = h.percentile(0.50);
    d.cumulative_p99 = h.percentile(0.99);

    const MetricsSnapshot::HistogramValue* p = nullptr;
    for (const auto& ph : prev.histograms) {
      if (ph.name == h.name) {
        p = &ph;
        break;
      }
    }
    // Build an interval-only histogram by differencing the cumulative bin
    // counts. On reset (cumulative count went backwards) or bin-layout
    // change, the whole current histogram is "the interval".
    MetricsSnapshot::HistogramValue interval = h;
    if (p != nullptr && p->count > h.count) {
      d.reset = true;
    } else if (p != nullptr && p->counts.size() == h.counts.size() &&
               p->lo == h.lo && p->hi == h.hi) {
      interval.count = h.count - p->count;
      interval.underflow =
          h.underflow >= p->underflow ? h.underflow - p->underflow : 0;
      interval.overflow =
          h.overflow >= p->overflow ? h.overflow - p->overflow : 0;
      interval.sum = h.sum - p->sum;
      for (std::size_t i = 0; i < interval.counts.size(); ++i) {
        interval.counts[i] =
            h.counts[i] >= p->counts[i] ? h.counts[i] - p->counts[i] : 0;
      }
    }
    d.count = interval.count;
    d.rate_per_s = static_cast<double>(d.count) * inv_dt;
    d.interval_mean = interval.mean();
    d.interval_p50 = interval.percentile(0.50);
    d.interval_p99 = interval.percentile(0.99);
    out.histograms.push_back(std::move(d));
  }

  return out;
}

HealthMonitor::HealthMonitor(Params params) : params_(std::move(params)) {
  period_s_ = std::max(params_.period_s, 1e-3);
  if (params_.history == 0) params_.history = 1;
  if (params_.stall_periods < 1) params_.stall_periods = 1;
}

HealthMonitor::~HealthMonitor() { stop(); }

void HealthMonitor::add_probe(ProgressProbe probe) {
  std::lock_guard lock{mutex_};
  ProbeState st;
  st.flag = params_.registry != nullptr
                ? &params_.registry->gauge("health." + probe.name + ".stalled")
                : nullptr;
  st.probe = std::move(probe);
  if (st.flag != nullptr) st.flag->set(0.0);
  probes_.push_back(std::move(st));
}

void HealthMonitor::remove_probe(std::string_view name) {
  std::lock_guard lock{mutex_};
  for (auto it = probes_.begin(); it != probes_.end(); ++it) {
    if (it->probe.name == name) {
      if (it->raised && it->flag != nullptr) it->flag->set(0.0);
      probes_.erase(it);
      return;
    }
  }
}

void HealthMonitor::add_saturation_watch(SaturationWatch watch) {
  std::lock_guard lock{mutex_};
  SaturationState st;
  st.flag = params_.registry != nullptr
                ? &params_.registry->gauge("health." + watch.name + ".saturated")
                : nullptr;
  st.watch = std::move(watch);
  if (st.watch.periods < 1) st.watch.periods = 1;
  if (st.flag != nullptr) st.flag->set(0.0);
  saturation_.push_back(std::move(st));
}

void HealthMonitor::add_rate_watch(RateWatch watch) {
  std::lock_guard lock{mutex_};
  RateState st;
  st.flag = params_.registry != nullptr
                ? &params_.registry->gauge("health." + watch.name + ".storm")
                : nullptr;
  st.watch = std::move(watch);
  if (st.watch.periods < 1) st.watch.periods = 1;
  if (st.flag != nullptr) st.flag->set(0.0);
  rates_.push_back(std::move(st));
}

void HealthMonitor::start() {
  std::lock_guard lock{run_mutex_};
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { run_loop(); });
}

void HealthMonitor::stop() {
  {
    std::lock_guard lock{run_mutex_};
    if (!running_) return;
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard lock{run_mutex_};
  running_ = false;
}

bool HealthMonitor::running() const noexcept {
  // Safe unsynchronized read for status display; start/stop serialize on
  // run_mutex_.
  return running_;
}

void HealthMonitor::run_loop() {
  for (;;) {
    {
      std::unique_lock lock{run_mutex_};
      wake_.wait_for(lock,
                     std::chrono::duration<double>(period_s_),
                     [this] { return stop_requested_; });
      if (stop_requested_) return;
    }
    sample_once();
  }
}

HealthMonitor::Sample HealthMonitor::sample_once() {
  std::lock_guard lock{mutex_};

  Sample sample;
  sample.index = next_index_++;
  sample.steady_ns = steady_now_ns();
  sample.wall_ns = wall_now_ns();

  MetricsSnapshot cur;
  if (params_.registry != nullptr) cur = params_.registry->snapshot();

  const bool first = sample.index == 0;
  sample.dt_s = first ? 0.0
                      : static_cast<double>(sample.steady_ns - prev_steady_ns_) *
                            1e-9;
  sample.delta = compute_snapshot_delta(first ? MetricsSnapshot{} : prev_snapshot_,
                                        cur, sample.dt_s);

  evaluate_watchdogs(sample.delta, sample.index, &sample.raised);

  prev_snapshot_ = std::move(cur);
  prev_steady_ns_ = sample.steady_ns;

  history_.push_back(sample);
  while (history_.size() > params_.history) history_.pop_front();

  write_jsonl(sample);
  return sample;
}

void HealthMonitor::evaluate_watchdogs(const SnapshotDelta& delta,
                                       std::uint64_t sample_index,
                                       std::vector<std::string>* raised) {
  for (auto& st : probes_) {
    const bool active = !st.probe.active || st.probe.active();
    if (!active || !st.probe.progress) {
      // Inactive (or unobservable) units cannot stall; clear any flag.
      st.primed = false;
      st.stalled_for = 0;
      if (st.raised) {
        st.raised = false;
        publish_flag(FlagKind::kStalled, "health." + st.probe.name + ".stalled",
                     st.flag, false, sample_index, 0.0);
      }
      continue;
    }
    const std::uint64_t progress = st.probe.progress();
    const std::uint64_t demand = st.probe.demand ? st.probe.demand() : 0;
    if (st.primed) {
      const bool no_progress = progress == st.last_progress;
      const bool demanded = !st.probe.demand || demand != st.last_demand;
      if (no_progress && demanded) {
        ++st.stalled_for;
      } else if (!no_progress) {
        st.stalled_for = 0;
      }
      // no_progress && !demanded: idle, hold the window (neither grow nor
      // reset) so a stall interleaved with idle samples still accumulates.
    }
    st.primed = true;
    st.last_progress = progress;
    st.last_demand = demand;

    const bool want_raised = st.stalled_for >= params_.stall_periods;
    if (want_raised != st.raised) {
      st.raised = want_raised;
      publish_flag(FlagKind::kStalled, "health." + st.probe.name + ".stalled",
                   st.flag, want_raised, sample_index,
                   static_cast<double>(st.stalled_for));
    }
    if (st.raised && raised != nullptr) {
      raised->push_back("health." + st.probe.name + ".stalled");
    }
  }

  for (auto& st : saturation_) {
    const GaugeSample* g = delta.gauge(st.watch.depth_gauge);
    const double depth = g != nullptr ? g->value : 0.0;
    const bool over = st.watch.capacity > 0.0 &&
                      depth >= st.watch.threshold * st.watch.capacity;
    st.over_for = over ? st.over_for + 1 : 0;
    const bool want_raised = st.over_for >= st.watch.periods;
    if (want_raised != st.raised) {
      st.raised = want_raised;
      publish_flag(FlagKind::kSaturated,
                   "health." + st.watch.name + ".saturated", st.flag,
                   want_raised, sample_index, depth);
    }
    if (st.raised && raised != nullptr) {
      raised->push_back("health." + st.watch.name + ".saturated");
    }
  }

  for (auto& st : rates_) {
    const CounterDelta* c = delta.counter(st.watch.counter);
    const double rate = c != nullptr ? c->rate_per_s : 0.0;
    // Sample 0 has no interval, so rates are 0 there by construction.
    const bool over = delta.dt_s > 0.0 && rate > st.watch.max_rate_per_s;
    st.over_for = over ? st.over_for + 1 : 0;
    const bool want_raised = st.over_for >= st.watch.periods;
    if (want_raised != st.raised) {
      st.raised = want_raised;
      publish_flag(FlagKind::kStorm, "health." + st.watch.name + ".storm",
                   st.flag, want_raised, sample_index, rate);
    }
    if (st.raised && raised != nullptr) {
      raised->push_back("health." + st.watch.name + ".storm");
    }
  }
}

void HealthMonitor::publish_flag(FlagKind kind, const std::string& flag,
                                 Gauge* gauge, bool raised,
                                 std::uint64_t sample_index, double value) {
  if (gauge != nullptr) gauge->set(raised ? 1.0 : 0.0);
  if (raised) {
    ARACHNET_LOG_WARN("monitor", "health flag raised", {"flag", flag},
                      {"kind", flag_kind_name(kind)},
                      {"sample", sample_index}, {"value", value});
  } else {
    ARACHNET_LOG_INFO("monitor", "health flag cleared", {"flag", flag},
                      {"kind", flag_kind_name(kind)},
                      {"sample", sample_index});
  }
  if (params_.on_event) {
    HealthEvent ev;
    ev.kind = kind;
    ev.flag = flag;
    ev.raised = raised;
    ev.sample_index = sample_index;
    ev.value = value;
    params_.on_event(ev);
  }
}

void HealthMonitor::write_jsonl(const Sample& sample) {
  const bool want_file = !params_.jsonl_path.empty() && !jsonl_failed_;
  if (want_file && !jsonl_opened_) {
    jsonl_file_.open(params_.jsonl_path, std::ios::out | std::ios::trunc);
    jsonl_opened_ = true;
    if (!jsonl_file_) {
      jsonl_failed_ = true;
      ARACHNET_LOG_WARN("monitor", "failed to open monitor jsonl",
                        {"path", params_.jsonl_path});
    }
  }
  const bool file_ok = want_file && !jsonl_failed_ && jsonl_file_.good();
  if (!file_ok && params_.jsonl_out == nullptr) return;

  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("source").value(params_.source);
  w.key("seq").value(sample.index);
  w.key("wall_ns").value(sample.wall_ns);
  w.key("steady_ns").value(sample.steady_ns);
  w.key("dt_s").value(sample.dt_s);
  w.key("counters").begin_object();
  for (const auto& c : sample.delta.counters) {
    w.key(c.name).begin_object();
    w.key("value").value(c.value);
    w.key("rate_per_s").value(c.rate_per_s);
    if (c.reset) w.key("reset").value(true);
    w.end_object();
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& g : sample.delta.gauges) {
    w.key(g.name).value(g.value);
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& h : sample.delta.histograms) {
    w.key(h.name).begin_object();
    w.key("count").value(h.count);
    w.key("rate_per_s").value(h.rate_per_s);
    w.key("mean").value(h.interval_mean);
    w.key("p50").value(h.interval_p50);
    w.key("p99").value(h.interval_p99);
    w.end_object();
  }
  w.end_object();
  w.key("health").begin_array();
  for (const auto& flag : sample.raised) w.value(flag);
  w.end_array();
  w.end_object();

  const std::string& line = w.str();
  if (file_ok) {
    jsonl_file_ << line << '\n';
    jsonl_file_.flush();
    if (!jsonl_file_.good()) {
      jsonl_failed_ = true;
      ARACHNET_LOG_WARN("monitor", "monitor jsonl write failed",
                        {"path", params_.jsonl_path});
    }
  }
  if (params_.jsonl_out != nullptr) {
    (*params_.jsonl_out) << line << '\n';
  }
}

std::optional<HealthMonitor::Sample> HealthMonitor::latest() const {
  std::lock_guard lock{mutex_};
  if (history_.empty()) return std::nullopt;
  return history_.back();
}

std::vector<HealthMonitor::Sample> HealthMonitor::history() const {
  std::lock_guard lock{mutex_};
  return {history_.begin(), history_.end()};
}

std::uint64_t HealthMonitor::samples_taken() const noexcept {
  std::lock_guard lock{mutex_};
  return next_index_;
}

void HealthMonitor::write_prometheus(std::ostream& out) const {
  if (params_.registry == nullptr) return;
  write_prometheus_text(params_.registry->snapshot(), out);
}

}  // namespace arachnet::telemetry
