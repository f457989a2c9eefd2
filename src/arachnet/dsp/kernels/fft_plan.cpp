#include "arachnet/dsp/kernels/fft_plan.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <stdexcept>

#include "arachnet/dsp/kernels/simd/simd_kernels.hpp"
#include "arachnet/dsp/kernels/simd/vec.hpp"

namespace arachnet::dsp {

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!std::has_single_bit(n)) {
    throw std::invalid_argument("FftPlan: size must be a power of two");
  }
  bitrev_.resize(n);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = j;
  }
  twiddle_.resize(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>(k) /
        static_cast<double>(n);
    twiddle_[k] = cplx{std::cos(angle), std::sin(angle)};
  }
  dif_tw_f_.resize(4 * (n - 1));
  for (std::size_t half = 1; half < n; half <<= 1) {
    float* wr = dif_tw_f_.data() + 4 * (half - 1);
    float* wi = wr + 2 * half;
    for (std::size_t k = 0; k < half; ++k) {
      const cplx w = twiddle_[k * (n / (2 * half))];
      wr[2 * k] = wr[2 * k + 1] = static_cast<float>(w.real());
      wi[2 * k] = -static_cast<float>(w.imag());
      wi[2 * k + 1] = static_cast<float>(w.imag());
    }
  }
}

void FftPlan::transform(cplx* data, bool inverse) const noexcept {
  const std::size_t n = n_;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  // Stages with half >= 2 run two butterflies per iteration on 256-bit
  // lanes. Each lane performs the exact arithmetic of the scalar
  // butterfly (same multiplies, adds and ordering; the {-1,+1} sign
  // vector turns the subtract into an exact negate-and-add), so the
  // vector path is bit-identical to the scalar recurrence and needs no
  // policy gate — every KernelPolicy shares it.
  constexpr simd::f64x4 kSign = {-1.0, 1.0, -1.0, 1.0};
  constexpr simd::i64x4 kDupRe = {0, 0, 2, 2};
  constexpr simd::i64x4 kDupIm = {1, 1, 3, 3};
  constexpr simd::i64x4 kSwap = {1, 0, 3, 2};
  const double sgn = inverse ? -1.0 : 1.0;
  double* d = reinterpret_cast<double*>(data);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t stride = n / len;
    if (half < 2) {
      for (std::size_t i = 0; i < n; i += len) {
        cplx w = twiddle_[0];
        if (inverse) w = std::conj(w);
        const cplx u = data[i];
        const cplx v = data[i + half] * w;
        data[i] = u + v;
        data[i + half] = u - v;
      }
      continue;
    }
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k + 2 <= half; k += 2) {
        const cplx w0 = twiddle_[k * stride];
        const cplx w1 = twiddle_[(k + 1) * stride];
        const simd::f64x4 w = {w0.real(), sgn * w0.imag(), w1.real(),
                               sgn * w1.imag()};
        const simd::f64x4 x =
            simd::loadu<simd::f64x4>(d + 2 * (i + k + half));
        const simd::f64x4 v = __builtin_shuffle(x, kDupRe) * w +
                              kSign * (__builtin_shuffle(x, kDupIm) *
                                       __builtin_shuffle(w, kSwap));
        const simd::f64x4 u = simd::loadu<simd::f64x4>(d + 2 * (i + k));
        simd::storeu(d + 2 * (i + k), u + v);
        simd::storeu(d + 2 * (i + k + half), u - v);
      }
    }
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) data[i] *= scale;
  }
}

void FftPlan::forward_bitrev_f(std::complex<float>* data) const noexcept {
  simd::kernels().fft_dif_cf32(reinterpret_cast<float*>(data), n_,
                               dif_tw_f_.data());
}

void FftPlan::forward(std::vector<cplx>& data) const {
  if (data.size() != n_) {
    throw std::invalid_argument("FftPlan::forward: size mismatch");
  }
  forward(data.data());
}

void FftPlan::inverse(std::vector<cplx>& data) const {
  if (data.size() != n_) {
    throw std::invalid_argument("FftPlan::inverse: size mismatch");
  }
  inverse(data.data());
}

void FftPlan::forward_real(const double* in, std::size_t n_in,
                           std::vector<cplx>& out) const {
  if (n_in > n_) {
    throw std::invalid_argument("FftPlan::forward_real: input too long");
  }
  out.assign(n_, cplx{0.0, 0.0});
  if (n_ == 1) {
    if (n_in > 0) out[0] = cplx{in[0], 0.0};
    return;
  }
  const std::size_t h = n_ / 2;
  // Pack even samples into the real lane, odd into the imaginary lane.
  std::vector<cplx> z(h, cplx{0.0, 0.0});
  for (std::size_t j = 0; j < h; ++j) {
    const double re = 2 * j < n_in ? in[2 * j] : 0.0;
    const double im = 2 * j + 1 < n_in ? in[2 * j + 1] : 0.0;
    z[j] = cplx{re, im};
  }
  const auto half_plan = get(h);
  half_plan->forward(z.data());
  // Unpack: X[k] = E[k] + e^{-2*pi*i*k/n} * O[k], with E/O recovered from
  // the packed transform via conjugate symmetry.
  out[0] = cplx{z[0].real() + z[0].imag(), 0.0};
  out[h] = cplx{z[0].real() - z[0].imag(), 0.0};
  for (std::size_t k = 1; k < h; ++k) {
    const cplx zk = z[k];
    const cplx zc = std::conj(z[h - k]);
    const cplx even = 0.5 * (zk + zc);
    const cplx odd = cplx{0.0, -0.5} * (zk - zc);
    const cplx xk = even + twiddle_[k] * odd;
    out[k] = xk;
    out[n_ - k] = std::conj(xk);
  }
}

std::shared_ptr<const FftPlan> FftPlan::get(std::size_t n) {
  static std::mutex mutex;
  static std::map<std::size_t, std::shared_ptr<const FftPlan>> cache;
  {
    std::lock_guard lock{mutex};
    if (const auto it = cache.find(n); it != cache.end()) return it->second;
  }
  // Construct outside the lock: plan construction is O(n) and may itself
  // be slow for large sizes; a racing second construction is harmless
  // (the loser's plan is dropped).
  auto plan = std::make_shared<const FftPlan>(n);
  std::lock_guard lock{mutex};
  const auto [it, inserted] = cache.emplace(n, std::move(plan));
  return it->second;
}

}  // namespace arachnet::dsp
