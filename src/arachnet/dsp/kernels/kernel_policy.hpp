#pragma once

namespace arachnet::dsp {

/// Selects the implementation of the reader's hot DSP loops.
///
/// Every rewired call site (Ddc, the FDMA channel mixers,
/// UplinkWaveformSynth, the polyphase channelizer) keeps its original
/// per-sample scalar code behind this switch, so the production tier is
/// testable against it. The contract: under kSimd, decoded packets,
/// payloads and CRCs are identical to kScalar; packet timestamps agree
/// within a few decimated samples (the float32 lane path can move a
/// slicer crossing by ±1 sample, far inside the FM0 run-classification
/// margin); IQ agrees to float32 tolerance.
enum class KernelPolicy {
  kScalar,  ///< reference per-sample loops (std::cos/std::sin per sample)
  kSimd,    ///< float32 vector lanes + CPUID-dispatched ISA table (simd/)
};

/// The production tier, used by every Params struct that carries a
/// policy. Only tests select kScalar, as the parity reference.
constexpr KernelPolicy default_kernel_policy() noexcept {
  return KernelPolicy::kSimd;
}

/// "scalar" or "simd" (for logs and bench sidecars).
constexpr const char* to_string(KernelPolicy policy) noexcept {
  return policy == KernelPolicy::kScalar ? "scalar" : "simd";
}

}  // namespace arachnet::dsp
