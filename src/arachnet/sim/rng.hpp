#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace arachnet::sim {

/// Deterministic pseudo-random generator (xoshiro256++) with convenience
/// distributions. Every stochastic component in the simulator draws from an
/// explicitly seeded Rng so that experiments are reproducible run-to-run.
///
/// Satisfies std::uniform_random_bit_generator, so it can also be handed to
/// <random> distributions and std::shuffle.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via splitmix64, which
  /// guarantees a well-mixed nonzero state for any seed (including 0).
  explicit Rng(std::uint64_t seed = 0xa5a5a5a5deadbeefULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit output.
  result_type operator()() noexcept { return next_u64(); }
  result_type next_u64() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's unbiased
  /// bounded rejection method.
  std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (cached second deviate).
  double normal() noexcept;

  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Turns `pairs` interleaved uniform pairs (u1, u2), u1 in (0, 1) and
  /// u2 in [0, 1), into normal()'s two Box-Muller deviates in place:
  /// (r cos t, r sin t) with r = sqrt(-2 ln u1) and t = 2 pi u2. The
  /// simd kernel table's `box_muller_f64` is one.
  using BoxMuller = void (*)(double* u, std::size_t pairs);

  /// Block form of normal(): writes the next `n` deviates to z[0, n) and
  /// leaves the generator exactly as n normal() calls would, state words
  /// and cached deviate alike. The uniforms are drawn in normal()'s
  /// order: a cached deviate comes first, then one (u1, u2) pair per two
  /// deviates, with u1's `<= 0` rejection. `convert`, not libm, turns
  /// those pairs into deviates where they lie in z. An odd last deviate is
  /// a normal() call, which leaves its partner cached as the scalar draws
  /// would.
  void normal_block(double* z, std::size_t n, BoxMuller convert) noexcept;

  /// Exponential with the given rate (lambda). Requires rate > 0.
  double exponential(double rate) noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Derives an independent child generator; useful for giving each
  /// simulated entity its own stream while keeping one master seed.
  /// Advances this generator by one draw (the child is seeded from it).
  Rng fork() noexcept;

  /// Advances the state by 2^128 draws (the canonical xoshiro256++ jump
  /// polynomial): 2^64 non-overlapping subsequences of length 2^128 each.
  /// Clears any cached normal deviate.
  void jump() noexcept;

  /// Advances the state by 2^192 draws (the long-jump polynomial); useful
  /// for carving out coarser stream blocks than jump(). Clears any cached
  /// normal deviate.
  void long_jump() noexcept;

  /// Derives an independent stream as a pure function of (current state,
  /// stream_id) WITHOUT advancing this generator: split(k) called twice
  /// returns identical generators, and distinct ids give statistically
  /// independent streams. This is the primitive behind deterministic
  /// parallel sweeps — trial k draws from master.split(k), so its stream
  /// depends only on the master seed and the grid index, never on which
  /// worker ran it or in what order (see sim::SweepEngine).
  Rng split(std::uint64_t stream_id) const noexcept;

 private:
  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace arachnet::sim
