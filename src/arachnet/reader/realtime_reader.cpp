#include "arachnet/reader/realtime_reader.hpp"

#include "arachnet/telemetry/log.hpp"
#include "arachnet/telemetry/trace.hpp"

namespace arachnet::reader {

namespace {

using telemetry::steady_now_ns;

/// Forwards the reader's registry into the FDMA bank params unless the
/// caller already bound one there. Applied to the params the reader
/// *stores*, so params().fdma->metrics always matches the live bank (a
/// local-copy patch once left the stored pointer null while the bank ran
/// instrumented).
RealtimeReader::Params with_metrics(RealtimeReader::Params params) {
  if (params.fdma && params.fdma->metrics == nullptr) {
    params.fdma->metrics = params.metrics;
  }
  // The bank inherits the reader's scope unless the caller set its own, so
  // a fleet of instrumented readers keeps its fdma.* rows apart too.
  if (params.fdma && params.fdma->metrics_scope.empty()) {
    params.fdma->metrics_scope = params.metrics_scope;
  }
  // Streaming sessions never run the MAC collision detector, and the
  // reader exposes no iq_points() accessor — retaining the decimated IQ
  // history would grow a vector forever (and allocate every block). Off
  // unconditionally for the realtime path.
  params.chain.retain_iq_points = false;
  return params;
}

}  // namespace

RealtimeReader::RealtimeReader(Params params)
    : params_(with_metrics(std::move(params))),
      chain_(params_.fdma ? nullptr
                          : std::make_unique<RxChain>(params_.chain)),
      fdma_(params_.fdma ? std::make_unique<FdmaRxChain>(*params_.fdma)
                         : nullptr),
      input_(params_.input_capacity),
      output_(params_.output_capacity) {
  if (auto* m = params_.metrics) {
    const auto n = [&](std::string_view name) {
      return telemetry::scoped_name(params_.metrics_scope, name);
    };
    h_block_ms_ = &m->histogram(n("reader.block_ms"), 0.0, 50.0, 64);
    g_input_depth_ = &m->gauge(n("reader.input_depth"));
    g_output_depth_ = &m->gauge(n("reader.output_depth"));
    c_packets_emitted_ = &m->counter(n("reader.packets_emitted"));
    c_packets_dropped_ = &m->counter(n("reader.packets_dropped"));
    c_stall_ns_ = &m->counter(n("reader.backpressure_stall_ns"));
    c_blocks_ = &m->counter(n("reader.blocks"));
    h_stage_wait_ms_ =
        &m->histogram(n("reader.stage.queue_wait_ms"), 0.0, 50.0, 64);
    h_stage_process_ms_ =
        &m->histogram(n("reader.stage.process_ms"), 0.0, 50.0, 64);
    h_stage_emit_ms_ = &m->histogram(n("reader.stage.emit_ms"), 0.0, 5.0, 64);
  }
}

RealtimeReader::~RealtimeReader() { stop(); }

void RealtimeReader::start() {
  if (worker_.joinable()) return;  // already running
  // Restart path: after stop() the input is closed (and the worker closed
  // the output on drain). Reopen both so submit()/wait_packet() work
  // again; queued contents — undrained output packets in particular —
  // survive the reopen.
  input_.reopen();
  output_.reopen();
  ARACHNET_LOG_INFO("reader", "starting DSP worker",
                    {"mode", fdma_ ? "fdma" : "single"},
                    {"input_capacity", input_.capacity()},
                    {"output_capacity", output_.capacity()});
  worker_ = std::thread([this] { worker_loop(); });
}

void RealtimeReader::worker_loop() {
  while (auto item = input_.pop()) {
    ARACHNET_TRACE_SPAN("reader.block");
    Block& block = item->block;
    const bool timed = h_block_ms_ != nullptr;
    const std::uint64_t t0 = timed ? steady_now_ns() : 0;
    std::uint64_t t_decoded = 0;
    std::uint64_t out_stall_ns = 0;
    std::uint64_t emitted = 0;
    std::uint64_t dropped = 0;
    if (fdma_) {
      fdma_->process(block.data(), block.size());
      if (timed) t_decoded = steady_now_ns();
      samples_processed_.fetch_add(block.size(), std::memory_order_relaxed);
      fdma_->drain_packets(drained_);
      for (auto& pkt : drained_) {
        if (emit_packet(std::move(pkt), &out_stall_ns)) {
          ++emitted;
        } else {
          ++dropped;
        }
      }
    } else {
      chain_->process(block.data(), block.size());
      if (timed) t_decoded = steady_now_ns();
      samples_processed_.fetch_add(block.size(), std::memory_order_relaxed);
      // Emit every packet decoded this block, then drain the chain's
      // decode list: a long-running session must not accumulate decoded
      // packets forever (the list once grew without bound, leaking memory
      // block after block). Only successful pushes count as emitted (same
      // accounting as the FDMA branch); the chain's own counters keep the
      // monotonic frame count across the clears.
      const auto& packets = chain_->packets();
      for (const auto& pkt : packets) {
        if (emit_packet(pkt, &out_stall_ns)) {
          ++emitted;
        } else {
          ++dropped;
        }
      }
      chain_->clear_packets();
      chain_buffered_.store(chain_->packets().size(),
                            std::memory_order_relaxed);
    }
    if (emitted != 0) {
      packets_emitted_.fetch_add(emitted, std::memory_order_relaxed);
    }
    if (dropped != 0) {
      packets_dropped_.fetch_add(dropped, std::memory_order_relaxed);
      if (c_packets_dropped_ != nullptr) c_packets_dropped_->add(dropped);
    }
    if (out_stall_ns != 0) {
      stall_ns_.fetch_add(out_stall_ns, std::memory_order_relaxed);
      if (c_stall_ns_ != nullptr) c_stall_ns_->add(out_stall_ns);
    }
    if (timed) {
      const std::uint64_t t_done = steady_now_ns();
      h_block_ms_->record(static_cast<double>(t_done - t0) * 1e-6);
      h_stage_wait_ms_->record(static_cast<double>(t0 - item->submit_ns) *
                               1e-6);
      h_stage_process_ms_->record(static_cast<double>(t_decoded - t0) * 1e-6);
      h_stage_emit_ms_->record(static_cast<double>(t_done - t_decoded) * 1e-6);
      c_blocks_->add();
      if (emitted != 0) c_packets_emitted_->add(emitted);
      g_input_depth_->set(static_cast<double>(input_.size()));
      g_output_depth_->set(static_cast<double>(output_.size()));
    }
  }
  output_.close();
  ARACHNET_LOG_INFO("reader", "DSP worker drained",
                    {"samples", samples_processed()},
                    {"packets", packets_emitted_.load()});
}

bool RealtimeReader::emit_packet(RxPacket pkt, std::uint64_t* stall_ns) {
  if (params_.drop_on_full_output) return output_.try_push(std::move(pkt));
  return output_.push(std::move(pkt), stall_ns);
}

bool RealtimeReader::submit(Block block) {
  std::uint64_t stall = 0;
  // The submit stamp is taken unconditionally (one clock read per block)
  // so queue-wait attribution works even when the reader is constructed
  // before its registry wiring.
  const bool ok =
      input_.push(InputItem{std::move(block), steady_now_ns()}, &stall);
  if (stall != 0) {
    stall_ns_.fetch_add(stall, std::memory_order_relaxed);
    if (c_stall_ns_ != nullptr) c_stall_ns_->add(stall);
  }
  return ok;
}

std::optional<RxPacket> RealtimeReader::poll_packet() {
  return output_.try_pop();
}

std::optional<RxPacket> RealtimeReader::wait_packet() {
  return output_.pop();
}

void RealtimeReader::stop() {
  input_.close();
  if (worker_.joinable()) worker_.join();
}

RealtimeReader::Stats RealtimeReader::stats() const {
  Stats s;
  s.samples_processed = samples_processed();
  s.packets_emitted = packets_emitted_.load(std::memory_order_relaxed);
  s.packets_dropped = packets_dropped_.load(std::memory_order_relaxed);
  s.chain_buffered_packets = chain_buffered_.load(std::memory_order_relaxed);
  s.input_depth = input_.size();
  s.input_capacity = input_.capacity();
  s.output_depth = output_.size();
  s.backpressure_stall_s =
      static_cast<double>(stall_ns_.load(std::memory_order_relaxed)) * 1e-9;
  if (fdma_) {
    s.channels = fdma_->all_channel_stats();
  } else {
    // Baseband OOK: no subcarrier.
    const DecisionCounts c = chain_->published_counts();
    s.channels.push_back({.subcarrier_hz = 0.0,
                          .iq_samples = c.iq_samples,
                          .bits = c.bits,
                          .frames_ok = c.frames_ok,
                          .crc_failures = c.crc_failures});
  }
  return s;
}

}  // namespace arachnet::reader
