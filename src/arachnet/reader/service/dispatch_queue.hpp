#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

namespace arachnet::reader::service {

/// Bounded priority dispatch queue between the service's submit side and
/// the DSP pool — the value-based priority-queue-with-TTL idiom of
/// goby3's acomms dynamic_buffer, adapted to sample blocks:
///
///  - items are *values* (moved in, moved out — no shared ownership with
///    the producer), ordered by (priority descending, arrival ascending),
///    so within one priority the queue is FIFO and a session whose blocks
///    share one priority keeps its sample stream in order;
///  - each item may carry a time-to-live; expiry is evaluated lazily at
///    pop time against the caller's clock, and expired items are handed
///    back separately so the caller can account them as drops instead of
///    processing stale data;
///  - overload never blocks the producer: a push into a full queue either
///    displaces the lowest-priority newest item (when the newcomer
///    strictly outranks it — the displaced value is returned so its
///    owner can be charged the drop) or is rejected outright.
///
/// Thread-safe. pop_batch() blocks until work or closure; everything
/// else is non-blocking. close() makes pushes fail and lets consumers
/// drain what remains (TTL still applies during the drain).
template <typename T>
class DispatchQueue {
 public:
  enum class Push {
    kAccepted,    ///< enqueued; the queue had room
    kDisplaced,   ///< enqueued by evicting the lowest-priority newest
                  ///< item into *displaced
    kRejected,    ///< full of equal-or-higher-priority items
    kClosed,      ///< queue closed; nothing enqueued
  };

  /// Allocates every node the queue can hold here, the way
  /// dsp::RingBuffer sizes its slots, so no push allocates however deep a
  /// burst runs. Requires a default-constructible T.
  explicit DispatchQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    free_nodes_.reserve(capacity_);
    for (std::size_t i = 0; i < capacity_; ++i) {
      free_nodes_.push_back(items_.extract(items_.insert(Item{}).first));
    }
  }

  DispatchQueue(const DispatchQueue&) = delete;
  DispatchQueue& operator=(const DispatchQueue&) = delete;

  /// Enqueues `value` at `priority`. `ttl_ns` of 0 never expires;
  /// otherwise the item expires at `now_ns + ttl_ns`. On kDisplaced the
  /// evicted value is moved into *displaced (which must be non-null when
  /// displacement is possible, i.e. always in practice).
  Push push(T value, int priority, std::uint64_t now_ns,
            std::uint64_t ttl_ns, std::optional<T>* displaced) {
    std::lock_guard lock{mutex_};
    if (closed_) return Push::kClosed;
    Push outcome = Push::kAccepted;
    if (items_.size() >= capacity_) {
      // Victim: lowest priority, newest arrival (the ordering's last
      // element). Evicting the newest keeps the victim session's
      // already-queued FIFO prefix intact.
      auto victim = std::prev(items_.end());
      if (victim->priority >= priority) return Push::kRejected;
      auto node = items_.extract(victim);
      if (displaced != nullptr) displaced->emplace(std::move(node.value().value));
      stash(std::move(node));
      outcome = Push::kDisplaced;
    }
    // Queued plus free nodes always number capacity_, so a node is free
    // here: the queue had room, or the victim's node was just stashed.
    auto node = std::move(free_nodes_.back());
    free_nodes_.pop_back();
    node.value() = Item{priority, next_seq_++,
                        ttl_ns == 0 ? 0 : now_ns + ttl_ns, std::move(value)};
    items_.insert(std::move(node));
    ready_.notify_one();
    return outcome;
  }

  /// Pops up to `max` items in (priority desc, arrival asc) order. Items
  /// whose deadline is at or before `now_ns` are moved to *expired
  /// instead of *out (both count toward `max`). Blocks until at least one
  /// item was transferred or the queue is closed and empty; returns false
  /// only in that terminal state.
  bool pop_batch(std::size_t max, std::uint64_t now_ns, std::vector<T>* out,
                 std::vector<T>* expired) {
    std::unique_lock lock{mutex_};
    ready_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;  // closed and drained
    for (std::size_t n = 0; n < max && !items_.empty(); ++n) {
      auto it = items_.begin();
      const bool dead = it->deadline_ns != 0 && it->deadline_ns <= now_ns;
      auto node = items_.extract(it);
      (dead ? expired : out)->push_back(std::move(node.value().value));
      stash(std::move(node));
    }
    return true;
  }

  /// Closes the queue: pushes fail, pop_batch drains then returns false.
  void close() {
    {
      std::lock_guard lock{mutex_};
      closed_ = true;
    }
    ready_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard lock{mutex_};
    return items_.size();
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Item {
    int priority = 0;
    std::uint64_t seq = 0;
    std::uint64_t deadline_ns = 0;  ///< 0 = never expires
    /// mutable: std::set elements are const, but the value is moved out
    /// via node extraction only, never mutated in place.
    mutable T value;
  };
  /// Urgency order: higher priority first, then FIFO by arrival. seq is
  /// unique, so this is a strict weak order and std::set suffices.
  struct ByUrgency {
    bool operator()(const Item& a, const Item& b) const noexcept {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq < b.seq;
    }
  };

  using NodeHandle = typename std::set<Item, ByUrgency>::node_type;

  /// Keeps an extracted node for reuse by the next push (within the
  /// capacity_ reserved at construction, so it never allocates).
  void stash(NodeHandle&& node) { free_nodes_.push_back(std::move(node)); }

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::set<Item, ByUrgency> items_;
  std::vector<NodeHandle> free_nodes_;
  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace arachnet::reader::service
