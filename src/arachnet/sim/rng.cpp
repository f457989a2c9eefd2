#include "arachnet/sim/rng.hpp"

#include <cmath>
#include <numbers>

namespace arachnet::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  // Lemire's method: multiply-shift with rejection to remove modulo bias.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_int(span));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

void Rng::normal_block(double* z, std::size_t n, BoxMuller convert) noexcept {
  std::size_t i = 0;
  if (n > 0 && has_cached_normal_) {
    has_cached_normal_ = false;
    z[i++] = cached_normal_;
  }
  const std::size_t pairs = (n - i) / 2;
  for (std::size_t j = 0; j < pairs; ++j) {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    z[i + 2 * j] = u1;
    z[i + 2 * j + 1] = uniform();
  }
  convert(z + i, pairs);
  if ((n - i) % 2 != 0) z[n - 1] = normal();
}

double Rng::exponential(double rate) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

Rng Rng::fork() noexcept { return Rng{next_u64()}; }

namespace {

/// Shared core of jump()/long_jump(): advances `state` by the polynomial
/// encoded in `poly` (the canonical xoshiro256 jump tables).
template <std::size_t N>
void apply_jump(std::uint64_t (&state)[4], const std::uint64_t (&poly)[N],
                Rng& rng) noexcept {
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (const std::uint64_t word : poly) {
    for (int b = 0; b < 64; ++b) {
      if (word & (std::uint64_t{1} << b)) {
        s0 ^= state[0];
        s1 ^= state[1];
        s2 ^= state[2];
        s3 ^= state[3];
      }
      rng.next_u64();
    }
  }
  state[0] = s0;
  state[1] = s1;
  state[2] = s2;
  state[3] = s3;
}

}  // namespace

void Rng::jump() noexcept {
  static constexpr std::uint64_t kJump[4] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  apply_jump(state_, kJump, *this);
  has_cached_normal_ = false;
}

void Rng::long_jump() noexcept {
  static constexpr std::uint64_t kLongJump[4] = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  apply_jump(state_, kLongJump, *this);
  has_cached_normal_ = false;
}

Rng Rng::split(std::uint64_t stream_id) const noexcept {
  // Child seed = splitmix64 hash chain over (stream_id, state words). Pure
  // function of the inputs, so the same (master state, id) pair always
  // yields the same child, and the parent state is untouched. splitmix64's
  // avalanche keeps adjacent stream ids statistically independent; the Rng
  // constructor then expands the 64-bit digest into well-mixed state.
  std::uint64_t s = stream_id ^ 0x6a09e667f3bcc909ULL;
  std::uint64_t h = splitmix64(s);
  for (const std::uint64_t word : state_) {
    s ^= word;
    h ^= splitmix64(s);
  }
  return Rng{h};
}

}  // namespace arachnet::sim
