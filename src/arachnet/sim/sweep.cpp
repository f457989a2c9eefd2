#include "arachnet/sim/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "arachnet/sim/stats.hpp"

namespace arachnet::sim {

namespace {

using telemetry::steady_now_ns;

/// Finite samples only, for the NaN-censoring reducer convention.
std::vector<double> finite(std::span<const double> samples) {
  std::vector<double> kept;
  kept.reserve(samples.size());
  for (double s : samples) {
    if (std::isfinite(s)) kept.push_back(s);
  }
  return kept;
}

}  // namespace

// ------------------------------------------------------------ TrialScratch

std::span<std::byte> TrialScratch::bytes(std::size_t n, std::size_t align) {
  if (n == 0) return {};
  for (;;) {
    if (block_ < blocks_.size()) {
      auto& b = blocks_[block_];
      // Align the actual address — operator new[] only guarantees
      // __STDCPP_DEFAULT_NEW_ALIGNMENT__ for the block base.
      const auto base = reinterpret_cast<std::uintptr_t>(b.data.get());
      const std::uintptr_t aligned =
          (base + used_ + align - 1) & ~static_cast<std::uintptr_t>(align - 1);
      const std::size_t at = static_cast<std::size_t>(aligned - base);
      if (at + n <= b.size) {
        used_ = at + n;
        return {b.data.get() + at, n};
      }
      // Doesn't fit: move on (the tail of this block is wasted until the
      // next reset, which is fine for a monotonic arena).
      ++block_;
      used_ = 0;
      continue;
    }
    // Grow: at least double the last block, and always fit this request
    // with alignment slack. Blocks are stable, so spans handed out earlier
    // in the trial stay valid.
    const std::size_t prev = blocks_.empty() ? 0 : blocks_.back().size;
    const std::size_t size = std::max<std::size_t>(
        {n + align, prev * 2, std::size_t{4096}});
    blocks_.push_back({std::make_unique<std::byte[]>(size), size});
  }
}

std::vector<double>& TrialScratch::doubles(std::size_t key) {
  if (key >= keyed_.size()) keyed_.resize(key + 1);
  keyed_[key].clear();
  return keyed_[key];
}

std::size_t TrialScratch::arena_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& b : blocks_) total += b.size;
  return total;
}

// ------------------------------------------------------------- SweepEngine

SweepEngine::SweepEngine(Params params) : params_(params) {
  jobs_ = params_.jobs != 0
              ? params_.jobs
              : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // The calling thread participates in every dispatch, so the pool only
  // needs jobs_ - 1 extra threads (jobs_ == 1 runs trials inline).
  pool_ = std::make_unique<dsp::WorkerPool>(jobs_ - 1);
  scratch_.reserve(jobs_);
  free_slots_.reserve(jobs_);
  for (std::size_t i = 0; i < jobs_; ++i) {
    scratch_.push_back(std::make_unique<TrialScratch>());
    free_slots_.push_back(jobs_ - 1 - i);  // pop_back hands out slot 0 first
  }
  if (auto* m = params_.metrics) {
    c_trials_ = &m->counter("sweep.trials");
    h_trial_ms_ = &m->histogram("sweep.trial_ms", 0.0, 2000.0, 64);
    m->gauge("sweep.jobs").set(static_cast<double>(jobs_));
  }
}

SweepEngine::~SweepEngine() = default;

std::size_t SweepEngine::acquire_slot() {
  std::lock_guard lock{slots_mutex_};
  // One slot per job and at most `jobs_` trials in flight, so the
  // freelist can never be empty here.
  const std::size_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void SweepEngine::release_slot(std::size_t slot) {
  std::lock_guard lock{slots_mutex_};
  free_slots_.push_back(slot);
}

void SweepEngine::for_each_trial(std::size_t configs, std::size_t seeds,
                                 TrialRef fn) {
  const std::size_t n = configs * seeds;
  if (n == 0) return;
  const std::uint64_t run_t0 = steady_now_ns();
  // The master generator is read-only inside trials (split() is const), so
  // sharing it across workers is race-free.
  const Rng master{params_.master_seed};
  pool_->run(n, [&](std::size_t i) {
    struct SlotGuard {
      SweepEngine* eng;
      std::size_t slot;
      ~SlotGuard() { eng->release_slot(slot); }
    };
    const SlotGuard guard{this, acquire_slot()};
    TrialScratch& scratch = *scratch_[guard.slot];
    scratch.reset();
    const TrialSpec spec{i, i / seeds, i % seeds, i};
    Rng rng = master.split(spec.rng_stream);
    const std::uint64_t t0 = steady_now_ns();
    fn(spec, rng, scratch);
    const std::uint64_t dt = steady_now_ns() - t0;
    trials_.fetch_add(1, std::memory_order_relaxed);
    trial_ns_total_.fetch_add(dt, std::memory_order_relaxed);
    std::uint64_t seen = trial_ns_max_.load(std::memory_order_relaxed);
    while (dt > seen && !trial_ns_max_.compare_exchange_weak(
                            seen, dt, std::memory_order_relaxed)) {
    }
    if (c_trials_ != nullptr) c_trials_->add();
    if (h_trial_ms_ != nullptr) {
      h_trial_ms_->record(static_cast<double>(dt) * 1e-6);
    }
  });
  wall_ns_.fetch_add(steady_now_ns() - run_t0, std::memory_order_relaxed);
}

SweepEngine::Stats SweepEngine::stats() const noexcept {
  Stats s;
  s.jobs = jobs_;
  s.trials = trials_.load(std::memory_order_relaxed);
  s.wall_ms =
      static_cast<double>(wall_ns_.load(std::memory_order_relaxed)) * 1e-6;
  s.trial_ms_total =
      static_cast<double>(trial_ns_total_.load(std::memory_order_relaxed)) *
      1e-6;
  s.trial_ms_max =
      static_cast<double>(trial_ns_max_.load(std::memory_order_relaxed)) *
      1e-6;
  return s;
}

// ---------------------------------------------------------------- reducers

double reduce_mean(std::span<const double> samples) {
  RunningStats stats;
  for (double s : samples) {
    if (std::isfinite(s)) stats.add(s);
  }
  return stats.mean();
}

double reduce_median(std::span<const double> samples) {
  return reduce_percentile(samples, 0.5);
}

double reduce_percentile(std::span<const double> samples, double q) {
  auto kept = finite(samples);
  if (kept.empty()) return 0.0;
  return Percentiles{std::move(kept)}.at(q);
}

double reduce_min(std::span<const double> samples) {
  return reduce_percentile(samples, 0.0);
}

double reduce_max(std::span<const double> samples) {
  return reduce_percentile(samples, 1.0);
}

std::size_t count_censored(std::span<const double> samples) {
  return samples.size() -
         static_cast<std::size_t>(
             std::count_if(samples.begin(), samples.end(),
                           [](double s) { return std::isfinite(s); }));
}

}  // namespace arachnet::sim
