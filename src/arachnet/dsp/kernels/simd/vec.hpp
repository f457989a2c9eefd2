#pragma once

#include <cstddef>
#include <cstring>

namespace arachnet::dsp::simd {

/// Portable GCC/Clang vector-extension lane types. The same source
/// compiles to SSE2 on baseline x86-64, AVX2+FMA when instantiated in a
/// target("avx2,fma") function, and NEON on aarch64 — the compiler picks
/// the widest lowering the active ISA allows (an f32x8 becomes two NEON
/// quadwords; that still keeps 8 independent accumulator lanes).
using f32x4 = float __attribute__((vector_size(16)));
using f32x8 = float __attribute__((vector_size(32)));
using f64x2 = double __attribute__((vector_size(16)));
using f64x4 = double __attribute__((vector_size(32)));

/// Integer mask types for __builtin_shuffle (element size must match the
/// shuffled vector's element size).
using i32x8 = int __attribute__((vector_size(32)));
using i64x4 = long long __attribute__((vector_size(32)));
/// The bits of an f64x4, for exponent and mantissa arithmetic.
using u64x4 = unsigned long long __attribute__((vector_size(32)));

// The helpers below are always_inline, even at -O0: they are compiled
// once, at the build baseline, but called from both kernel tiers, and an
// out-of-line copy would pass 256-bit vectors under the baseline ABI
// while an AVX2 caller expects them in ymm registers.

/// Unaligned load/store. Dereferencing a vector pointer assumes natural
/// alignment, which the interleaved complex buffers don't guarantee;
/// memcpy compiles to the unaligned vector move.
template <class V, class T>
[[gnu::always_inline]] inline V loadu(const T* p) noexcept {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}

template <class V, class T>
[[gnu::always_inline]] inline void storeu(T* p, V v) noexcept {
  std::memcpy(p, &v, sizeof(V));
}

template <class V>
[[gnu::always_inline]] inline V broadcast8(float x) noexcept {
  return V{x, x, x, x, x, x, x, x};
}

}  // namespace arachnet::dsp::simd
