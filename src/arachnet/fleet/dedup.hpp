#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace arachnet::fleet {

/// Bounded duplicate-packet suppressor keyed on (tag id, tag sequence,
/// slot epoch). Overlapping reader coverage means one uplink transmission
/// can be decoded by several readers; the coordinator admits the first
/// report of a key and suppresses the echoes. The window is bounded (FIFO
/// eviction) so a long-running fleet holds memory constant — at the cost
/// that a duplicate arriving after its key was evicted passes through
/// (FleetEngine counts those as Stats::dup_passed).
///
/// All storage is allocated at construction: the keys sit in a ring in
/// admission order (the FIFO), and an open-addressing table of ring
/// positions finds them (linear probing, at most half full, backward-shift
/// deletion), so admit() never touches the heap.
class DedupWindow {
 public:
  /// Largest accepted capacity (a zero capacity means 1).
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 30;

  explicit DedupWindow(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    if (capacity_ > kMaxCapacity) {
      throw std::invalid_argument("DedupWindow: capacity above 2^30 keys");
    }
    ring_.resize(capacity_);
    table_.assign(std::bit_ceil(2 * capacity_), kEmpty);
    mask_ = table_.size() - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(table_.size()));
  }

  struct Stats {
    std::uint64_t admitted = 0;    ///< fresh keys inserted
    std::uint64_t suppressed = 0;  ///< duplicates caught in the window
    std::uint64_t evicted = 0;     ///< keys aged out by capacity
  };

  /// Returns true (and remembers the key) when (tag, seq, epoch) has not
  /// been seen within the window; false for a duplicate.
  bool admit(std::uint32_t tag, std::uint32_t seq, std::uint64_t epoch) {
    const std::uint64_t key = make_key(tag, seq, epoch);
    if (table_[slot_of(key)] != kEmpty) {
      ++stats_.suppressed;
      return false;
    }
    // The ring slot after the newest key; when full, it holds the oldest.
    const std::size_t pos = (head_ + size_) % capacity_;
    if (size_ == capacity_) {
      erase_slot(slot_of(ring_[head_]));
      head_ = (head_ + 1) % capacity_;
      ++stats_.evicted;
    } else {
      ++size_;
    }
    ring_[pos] = key;
    table_[slot_of(key)] = static_cast<std::uint32_t>(pos);
    ++stats_.admitted;
    return true;
  }

  Stats stats() const noexcept { return stats_; }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFF;

  /// 20 bits of tag, 24 of sequence, 20 of epoch — wraparound at those
  /// widths is far beyond any bounded window's lifetime.
  static std::uint64_t make_key(std::uint32_t tag, std::uint32_t seq,
                                std::uint64_t epoch) noexcept {
    return (static_cast<std::uint64_t>(tag & 0xFFFFF) << 44) |
           (static_cast<std::uint64_t>(seq & 0xFFFFFF) << 20) |
           (epoch & 0xFFFFF);
  }

  /// The key's first probe slot (Fibonacci hashing).
  std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// The table slot holding `key`, or the empty slot where it would go.
  std::size_t slot_of(std::uint64_t key) const noexcept {
    std::size_t i = home(key);
    while (table_[i] != kEmpty && ring_[table_[i]] != key) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  /// Empties table slot `hole`, moving later entries of its probe run back
  /// so that every remaining key stays reachable from its home.
  void erase_slot(std::size_t hole) noexcept {
    for (std::size_t j = (hole + 1) & mask_; table_[j] != kEmpty;
         j = (j + 1) & mask_) {
      // The entry at j may fill the hole when its home is not cyclically
      // in (hole, j].
      const std::size_t h = home(ring_[table_[j]]);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole] = kEmpty;
  }

  std::size_t capacity_;
  std::vector<std::uint64_t> ring_;   ///< keys in admission order
  std::vector<std::uint32_t> table_;  ///< ring positions, kEmpty = free
  std::size_t mask_ = 0;
  unsigned shift_ = 0;
  std::size_t head_ = 0;  ///< ring position of the oldest key
  std::size_t size_ = 0;
  Stats stats_;
};

}  // namespace arachnet::fleet
