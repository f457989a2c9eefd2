#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "arachnet/telemetry/metrics.hpp"

namespace arachnet::dsp {

/// Non-owning type-erased callable reference (function_ref): two words, no
/// allocation, no virtual dispatch — built inline from any callable at a
/// call site. The referent must outlive every invocation; WorkerPool::run
/// guarantees that by construction (see the liveness note there), which is
/// why the per-dispatch std::function copy could be dropped.
template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef>>>
  FunctionRef(F&& f) noexcept  // NOLINT: implicit by design, like function_ref
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        invoke_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return invoke_(obj_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  void* obj_ = nullptr;
  R (*invoke_)(void*, Args...) = nullptr;
};

/// Persistent fork/join worker pool for data-parallel stages.
///
/// `run(n, fn)` executes fn(0) .. fn(n-1) across the pool's threads plus
/// the calling thread, returning once all indices completed. Threads are
/// spawned once and parked between calls, so per-block dispatch overhead
/// stays in the microseconds — suitable for the reader's per-sample-block
/// channel fan-out. Indices are claimed from a shared epoch-tagged ticket,
/// so uneven per-index cost self-balances and a worker that oversleeps one
/// dispatch can never claim (or execute) indices of a later one.
///
/// If fn throws, the remaining indices still execute; the first exception
/// is captured and rethrown by run() on the calling thread, leaving the
/// pool reusable.
///
/// `run` is not reentrant and must always be called from one thread at a
/// time (the FDMA bank calls it from its processing thread only).
class WorkerPool {
 public:
  /// `threads` is the number of *extra* worker threads; 0 makes run()
  /// execute inline on the caller.
  explicit WorkerPool(std::size_t threads) {
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard lock{mutex_};
      stop_ = true;
    }
    work_ready_.notify_all();
    for (auto& t : workers_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Non-allocating dispatch: `fn` binds any callable by reference (two
  /// words, no std::function construction per block). Liveness: task_ is
  /// only ever invoked after a successful claim of a current-epoch index,
  /// and a successful claim keeps run() blocked on done_ until that index
  /// is credited — so the caller's callable is alive for every invocation,
  /// including by a worker that overslept earlier dispatches (its stale
  /// claims fail on the epoch tag without touching task_).
  void run(std::size_t n, FunctionRef<void(std::size_t)> fn) {
    if (workers_.empty() || n <= 1 || n > kIndexMask) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    std::uint64_t epoch;
    {
      std::lock_guard lock{mutex_};
      task_ = fn;
      task_count_ = n;
      done_ = 0;
      epoch = ++epoch_;
      // Plain store: made visible to workers by the release store of the
      // ticket below (their successful acquire claim synchronizes with it).
      if (dispatch_hist_ != nullptr) {
        run_publish_ns_ = telemetry::steady_now_ns();
      }
      // Published after task_ is in place; a successful claim on this
      // ticket value acquire-synchronizes with this release store.
      ticket_.store(pack(epoch, 0), std::memory_order_release);
    }
    work_ready_.notify_all();
    const std::size_t finished = claim_and_execute(epoch, n);
    std::unique_lock lock{mutex_};
    done_ += finished;
    work_done_.wait(lock, [&] { return done_ >= task_count_; });
    task_ = FunctionRef<void(std::size_t)>{};
    if (error_) {
      auto err = error_;
      error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(err);
    }
  }

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Optional dispatch-latency instrumentation: each claimed index records
  /// the microseconds between run() publishing the work ticket and the
  /// claim, i.e. wake-up plus queueing delay. Pass nullptr to disable
  /// (the hot path then pays one pointer load per dispatch). Call only
  /// while the pool is idle.
  void set_dispatch_histogram(telemetry::LatencyHistogram* hist) noexcept {
    dispatch_hist_ = hist;
  }

 private:
  // The ticket packs (epoch, next index) into one atomic word so claiming
  // is epoch-safe: a compare-exchange only succeeds while the ticket still
  // carries the claimer's epoch. Without the tag, a worker preempted
  // between waking for epoch N and its first claim could steal indices of
  // epoch N+1 while executing epoch N's task (the dispatch it overslept
  // having completed meanwhile). The epoch tag is truncated to 32 bits; a
  // stale claim would additionally need the worker to sleep across exactly
  // 2^32 dispatches, which at microseconds each cannot line up in practice.
  static constexpr std::uint64_t kIndexBits = 32;
  static constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kIndexBits) - 1;

  static constexpr std::uint64_t pack(std::uint64_t epoch, std::uint64_t index) {
    return (epoch << kIndexBits) | index;
  }

  /// Claims and executes indices for `epoch` until the ticket runs out of
  /// indices or moves to a newer epoch. Returns how many were executed.
  std::size_t claim_and_execute(std::uint64_t epoch, std::size_t n) {
    const std::uint64_t tag = pack(epoch, 0) & ~kIndexMask;
    std::size_t finished = 0;
    std::uint64_t cur = ticket_.load(std::memory_order_acquire);
    for (;;) {
      if ((cur & ~kIndexMask) != tag) break;  // superseded by a newer dispatch
      const std::uint64_t index = cur & kIndexMask;
      if (index >= n) break;  // every index of this epoch already claimed
      if (!ticket_.compare_exchange_weak(cur, cur + 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        continue;  // cur reloaded by the failed exchange
      }
      if (auto* hist = dispatch_hist_; hist != nullptr) {
        hist->record(static_cast<double>(telemetry::steady_now_ns() -
                                         run_publish_ns_) *
                     1e-3);
      }
      try {
        task_(static_cast<std::size_t>(index));
      } catch (...) {
        std::lock_guard lock{mutex_};
        if (!error_) error_ = std::current_exception();
      }
      ++finished;
      cur = ticket_.load(std::memory_order_acquire);
    }
    return finished;
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock lock{mutex_};
    for (;;) {
      work_ready_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      const std::size_t count = task_count_;
      lock.unlock();
      const std::size_t finished = claim_and_execute(seen, count);
      lock.lock();
      // finished > 0 implies run(seen) is still waiting on done_, so this
      // credit can never leak into a later epoch's completion count.
      done_ += finished;
      if (done_ >= task_count_) work_done_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::vector<std::thread> workers_;
  /// Written under mutex_ in run(); read by claimers only after an acquire
  /// claim of a current-epoch index (see the liveness note on run()).
  FunctionRef<void(std::size_t)> task_;
  std::size_t task_count_ = 0;
  std::size_t done_ = 0;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;  // first fn exception; guarded by mutex_
  std::atomic<std::uint64_t> ticket_{0};
  telemetry::LatencyHistogram* dispatch_hist_ = nullptr;
  std::uint64_t run_publish_ns_ = 0;  // see run(); published via ticket_
};

}  // namespace arachnet::dsp
