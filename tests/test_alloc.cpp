// Steady-state allocation audit (telemetry/counting_alloc):
// CountingAllocatorGuard semantics first, then the two contracts the
// guard exists to enforce — after warm-up, the FdmaRxChain decode loop
// and the ReaderService session loop perform zero heap allocations per
// block. Linking this binary pulls the counting global new/delete in
// from the static library (see counting_alloc.hpp), so every heap
// operation in the process is visible to the guard.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/reader/service/reader_service.hpp"
#include "arachnet/sim/rng.hpp"
#include "arachnet/telemetry/counting_alloc.hpp"

namespace {

using arachnet::telemetry::CountingAllocatorGuard;

// ------------------------------------------------------ guard semantics

TEST(CountingAlloc, CountsScalarNewAndDelete) {
  CountingAllocatorGuard guard;
  auto* p = new int{42};
  EXPECT_GE(guard.allocations(), 1u);
  const std::uint64_t before_delete = guard.deallocations();
  delete p;
  EXPECT_GE(guard.deallocations(), before_delete + 1);
}

TEST(CountingAlloc, CountsArrayAndVectorGrowth) {
  CountingAllocatorGuard guard;
  // The sink keeps the new[]/delete[] pair observable — compilers may
  // elide a provably-unused allocation pair entirely.
  static double* volatile sink;
  sink = new double[17];
  delete[] sink;
  EXPECT_GE(guard.allocations(), 1u);
  EXPECT_GE(guard.deallocations(), 1u);
  const std::uint64_t base = guard.allocations();
  std::vector<int> v;
  v.reserve(100);
  EXPECT_GE(guard.allocations(), base + 1);
  // Growth within reserved capacity must NOT count.
  const std::uint64_t reserved = guard.allocations();
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(guard.allocations(), reserved);
}

TEST(CountingAlloc, CountsAlignedAndNothrowVariants) {
  CountingAllocatorGuard guard;
  struct alignas(64) Wide {
    double lanes[8];
  };
  auto* w = new Wide{};
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w) % 64, 0u);
  delete w;
  auto* q = new (std::nothrow) int{7};
  ASSERT_NE(q, nullptr);
  delete q;
  EXPECT_GE(guard.allocations(), 2u);
  EXPECT_GE(guard.deallocations(), 2u);
}

TEST(CountingAlloc, DeleteNullptrDoesNotCount) {
  CountingAllocatorGuard guard;
  int* p = nullptr;
  delete p;  // must be a no-op, not a counted free
  EXPECT_EQ(guard.deallocations(), 0u);
}

TEST(CountingAlloc, GuardConstructionIsAllocationFree) {
  CountingAllocatorGuard outer;
  {
    CountingAllocatorGuard inner;
    (void)inner;
  }
  EXPECT_EQ(outer.allocations(), 0u);
}

// ------------------------------------------------- FDMA steady state

// One tag per subcarrier (the test_kernels bank-capture recipe).
std::vector<double> fdma_capture(double seconds) {
  arachnet::acoustic::UplinkWaveformSynth synth{
      arachnet::acoustic::UplinkWaveformSynth::Params{}};
  arachnet::sim::Rng rng{101};
  std::vector<arachnet::acoustic::BackscatterSource> srcs;
  for (int k = 0; k < 4; ++k) {
    const arachnet::phy::UlPacket pkt{
        .tid = static_cast<std::uint8_t>(k + 1),
        .payload = static_cast<std::uint16_t>(0x500 + k)};
    arachnet::phy::SubcarrierModulator mod{{375.0, 3000.0 + 1500.0 * k}};
    arachnet::acoustic::BackscatterSource s;
    s.chips = mod.modulate(
        arachnet::phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.03;
    s.amplitude = 0.12 + 0.01 * k;
    s.phase_rad = 0.5 + 0.4 * k;
    srcs.push_back(s);
  }
  return synth.synthesize(srcs, seconds, rng);
}

arachnet::reader::FdmaRxChain::Params bank_params(
    arachnet::reader::FdmaRxChain::BankPolicy bank) {
  arachnet::reader::FdmaRxChain::Params fp;
  fp.ddc.decimation = 8;
  fp.workers = 1;  // sequential: the audit owns every allocation it sees
  fp.kernels = arachnet::dsp::KernelPolicy::kSimd;
  fp.bank = bank;
  for (int k = 0; k < 4; ++k) fp.channels.push_back({3000.0 + 1500.0 * k});
  return fp;
}

void expect_steady_state_clean(
    arachnet::reader::FdmaRxChain::BankPolicy bank) {
  arachnet::reader::FdmaRxChain chain{bank_params(bank)};
  ASSERT_EQ(chain.active_bank(), bank);
  const auto wave = fdma_capture(0.3);
  constexpr std::size_t kBlock = 10000;  // 20 ms at 500 kS/s
  std::vector<arachnet::reader::RxPacket> drained;
  std::size_t packets = 0;
  // Warm-up pass: scratch buffers, packet lists and the drain vector all
  // grow to their high-water marks here.
  for (std::size_t off = 0; off < wave.size(); off += kBlock) {
    chain.process(wave.data() + off, std::min(kBlock, wave.size() - off));
    packets += chain.drain_packets(drained);
  }
  ASSERT_GE(packets, 4u) << "warm-up must decode real packets";
  // Measured pass: the identical block schedule (and, since the chain
  // carries its DSP state, live decodes) must not touch the heap.
  CountingAllocatorGuard guard;
  packets = 0;
  for (std::size_t off = 0; off < wave.size(); off += kBlock) {
    chain.process(wave.data() + off, std::min(kBlock, wave.size() - off));
    packets += chain.drain_packets(drained);
  }
  EXPECT_EQ(guard.allocations(), 0u)
      << "per-block decode loop allocated in steady state";
  EXPECT_EQ(guard.deallocations(), 0u);
  EXPECT_GE(packets, 4u) << "measured pass must decode real packets";
}

TEST(SteadyStateAlloc, FdmaChannelizerBankDecodeLoopIsAllocationFree) {
  expect_steady_state_clean(
      arachnet::reader::FdmaRxChain::BankPolicy::kChannelizer);
}

TEST(SteadyStateAlloc, FdmaPerChannelBankDecodeLoopIsAllocationFree) {
  expect_steady_state_clean(
      arachnet::reader::FdmaRxChain::BankPolicy::kPerChannel);
}

// ---------------------------------------------- service steady state

// Baseband single-packet capture (what a service session's single-channel
// RxChain decodes).
std::vector<double> baseband_capture() {
  arachnet::acoustic::UplinkWaveformSynth synth{
      arachnet::acoustic::UplinkWaveformSynth::Params{}};
  arachnet::sim::Rng rng{7};
  const arachnet::phy::UlPacket pkt{.tid = 3, .payload = 0x2AB};
  arachnet::acoustic::BackscatterSource s;
  s.chips = arachnet::phy::Fm0Encoder::encode_frame(pkt.serialize());
  s.chip_rate = 375.0;
  s.start_s = 0.02;
  s.amplitude = 0.2;
  s.phase_rad = 1.0;
  return synth.synthesize({s}, 0.28, rng);
}

TEST(SteadyStateAlloc, ServiceSessionLoopIsAllocationFree) {
  using arachnet::reader::service::ReaderService;
  ReaderService service{{.workers = 1}};
  service.start();
  const auto id = service.open_session({.priority = 1});
  ASSERT_TRUE(id.has_value());

  const auto wave = baseband_capture();
  constexpr std::size_t kBlock = 10000;

  // Submits the capture block-by-block through the recycled-buffer path,
  // waiting out each block so the dispatch queue stays at depth <= 1 (the
  // free-list high-water mark the warm-up establishes) and draining the
  // output as it goes. Returns the number of packets consumed.
  const auto stream_capture = [&]() {
    std::size_t consumed = 0;
    std::uint64_t processed =
        service.session_stats(*id)->blocks_processed;
    for (std::size_t off = 0; off < wave.size(); off += kBlock) {
      auto block = service.acquire_block(*id);
      const std::size_t n = std::min(kBlock, wave.size() - off);
      block.resize(n);
      std::copy(wave.data() + off, wave.data() + off + n, block.data());
      ASSERT_TRUE(service.submit(*id, std::move(block)));
      ++processed;
      while (service.session_stats(*id)->blocks_processed < processed) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      while (service.poll_packet(*id).has_value()) ++consumed;
    }
    EXPECT_GE(consumed, 1u) << "session must decode real packets";
  };

  stream_capture();  // warm-up: block pool, chain scratch, queue nodes
  CountingAllocatorGuard guard;
  stream_capture();
  EXPECT_EQ(guard.allocations(), 0u)
      << "service session loop allocated in steady state";

  service.close_session(*id);
  service.stop();
}

TEST(SteadyStateAlloc, ServiceBurstDeeperThanWarmUpIsAllocationFree) {
  using arachnet::reader::service::ReaderService;
  // One worker: while the dispatcher decodes a long block, a burst of
  // short blocks from another session queues up behind it.
  ReaderService::Params params;
  params.workers = 1;
  params.dispatch_capacity = 16;
  ReaderService service{params};
  service.start();
  const auto slow = service.open_session({.priority = 1});
  const auto fast = service.open_session({.priority = 1});
  ASSERT_TRUE(slow.has_value());
  ASSERT_TRUE(fast.has_value());

  const auto wave = baseband_capture();
  constexpr std::size_t kLong = std::size_t{1} << 20;  // ~2 s of samples
  constexpr std::size_t kBlock = 10000;
  constexpr std::size_t kBurst = 6;
  const auto long_block = [&] {
    auto block = service.acquire_block(*slow);
    block.assign(kLong, 0.0);
    return block;
  };
  const auto short_block = [&](std::size_t i) {
    auto block = service.acquire_block(*fast);
    block.assign(wave.begin() + static_cast<std::ptrdiff_t>(i * kBlock),
                 wave.begin() + static_cast<std::ptrdiff_t>((i + 1) * kBlock));
    return block;
  };
  const auto wait_processed = [&](arachnet::reader::service::SessionId id,
                                  std::uint64_t n) {
    while (service.session_stats(id)->blocks_processed < n) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    while (service.poll_packet(id).has_value()) {
    }
  };

  // Warm-up at dispatch depth 1: every block is decoded before the next
  // is submitted.
  ASSERT_TRUE(service.submit(*slow, long_block()));
  wait_processed(*slow, 1);
  for (std::size_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(service.submit(*fast, short_block(i)));
    wait_processed(*fast, i + 1);
  }

  // The producer fills its buffers before the guard: how many it holds at
  // once is its own high-water mark, not the service's.
  auto head = long_block();
  std::vector<ReaderService::Block> burst;
  for (std::size_t i = 0; i < kBurst; ++i) burst.push_back(short_block(i));

  CountingAllocatorGuard guard;
  ASSERT_TRUE(service.submit(*slow, std::move(head)));
  for (auto& block : burst) ASSERT_TRUE(service.submit(*fast, std::move(block)));
  wait_processed(*slow, 2);
  wait_processed(*fast, 2 * kBurst);
  EXPECT_EQ(guard.allocations(), 0u)
      << "a burst deeper than the warm-up allocated in the service";

  service.stop();
}

}  // namespace
