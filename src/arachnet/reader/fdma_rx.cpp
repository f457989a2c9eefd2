#include "arachnet/reader/fdma_rx.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <stdexcept>
#include <thread>

#include "arachnet/telemetry/log.hpp"
#include "arachnet/telemetry/trace.hpp"

namespace arachnet::reader {

namespace {

using telemetry::steady_now_ns;

/// The back end of a channel whose front end delivers `rate_hz`.
DecisionChain::Params channel_decision(double rate_hz, double chip_rate) {
  return DecisionChain::Params{
      .rate_hz = rate_hz, .chip_rate = chip_rate, .slicer_floor = 0.001};
}

}  // namespace

FdmaRxChain::Channel::Channel(double hz,
                              DecisionChain::Params decision_params)
    : subcarrier_hz(hz),
      decision(decision_params,
               [this](const phy::UlPacket& pkt, std::uint64_t stamp) {
                 packets.push_back(pkt);
                 packet_iq_index.push_back(stamp);
               }) {}

void FdmaRxChain::Channel::process_block(const std::complex<double>* iq,
                                         std::size_t n,
                                         std::uint64_t base_index) {
  ARACHNET_TRACE_SPAN("fdma.channel");
  // Stage 1 (batch): shift this channel's subcarrier band to DC. The
  // carrier leak sits at baseband DC, i.e. at -f_sc after the shift —
  // outside the channel low-pass, so no explicit leak cancellation is
  // needed here. The subcarrier fundamental flips polarity with the FM0
  // chip, so after the shift the chip value lives on a fixed line through
  // the origin: the back end's axis finds it.
  if (kernels == dsp::KernelPolicy::kSimd) {
    // float32 lanes through mixer and LPF; the back end reads the
    // interleaved buffer widened back to double per sample.
    mixed_f.resize(2 * n);
    nco_s.mix(iq, mixed_f.data(), n);
    slpf->process(mixed_f.data(), mixed_f.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      decision.step({static_cast<double>(mixed_f[2 * i]),
                     static_cast<double>(mixed_f[2 * i + 1])},
                    base_index + i);
    }
    decision.publish(n);
    return;
  }
  mixed.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::complex<double> osc{std::cos(nco_phase), std::sin(nco_phase)};
    nco_phase += nco_step;
    if (nco_phase < -2.0 * std::numbers::pi) {
      nco_phase += 2.0 * std::numbers::pi;
    }
    mixed[i] = iq[i] * osc;
  }
  // Stage 2 (batch): channel low-pass over the contiguous block.
  lpf->process(mixed.data(), mixed.data(), n);
  // Stage 3: the per-sample decision back end.
  for (std::size_t i = 0; i < n; ++i) decision.step(mixed[i], base_index + i);
  decision.publish(n);
}

void FdmaRxChain::Channel::process_lane(const std::complex<double>* lane,
                                        std::size_t n,
                                        std::uint64_t frame_base) {
  ARACHNET_TRACE_SPAN("fdma.channel");
  // Stages 1-2 already ran in the shared channelizer; only the decision
  // back end remains, at the lane rate. Frame F's newest full-rate IQ
  // sample is (F+1)*decim - 1; subtracting the prototype's extra group
  // delay dates packets like the per-channel bank (within one lane
  // sample).
  const auto delay = static_cast<std::uint64_t>(lane_delay);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t t =
        (frame_base + i + 1) * static_cast<std::uint64_t>(lane_decim) - 1;
    decision.step(lane[i], t > delay ? t - delay : 0);
  }
  decision.publish(n);
}

FdmaRxChain::FdmaRxChain(Params params)
    : params_(params),
      ddc_([&] {
        // Checked first: every rate below (filter cutoffs, samples per
        // chip, the channelizer plan) divides by or scales with it.
        if (!std::isfinite(params.chip_rate) || params.chip_rate <= 0.0) {
          throw std::invalid_argument(
              "FdmaRxChain: chip_rate must be finite and positive");
        }
        dsp::Ddc::Params ddc = params.ddc;
        // The main down-converter must pass the highest subcarrier plus
        // its modulation sidebands.
        double top = 0.0;
        for (const auto& c : params.channels) {
          // Non-finite specs must reach validate_subcarrier() for their
          // proper diagnostic, not blow up the filter design here.
          if (std::isfinite(c.subcarrier_hz)) {
            top = std::max(top, c.subcarrier_hz);
          }
        }
        ddc.cutoff_hz = top + 3.0 * params.chip_rate;
        // One policy switch for the whole chain: the main DDC and every
        // channel follow Params::kernels.
        ddc.kernels = params.kernels;
        return ddc;
      }()),
      iq_rate_(ddc_.output_rate_hz()) {
  if (params_.channels.empty()) {
    throw std::invalid_argument("FdmaRxChain: no channels");
  }
  // Channel low-pass: passes the FM0 main lobe, rejects the neighbour
  // subcarrier one spacing away. The tap count scales with the IQ rate so
  // the transition width stays ~2.2 chip rates regardless of the DDC
  // decimation (127 taps at the default 31.25 kS/s IQ rate).
  const auto taps = std::clamp<std::size_t>(
      static_cast<std::size_t>(3.3 * iq_rate_ / (2.2 * params_.chip_rate)) |
          1,
      127, 511);
  channel_coeffs_ = dsp::design_lowpass(1.4 * params_.chip_rate, iq_rate_,
                                        taps);

  workers_ = params_.workers;
  if (workers_ == 0) {
    workers_ = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The calling thread participates in run(), so the pool only needs
  // workers_ - 1 extra threads.
  pool_ = std::make_unique<dsp::WorkerPool>(workers_ - 1);

  // Validate the whole spec list before building anything (each spec
  // against the ones accepted so far).
  std::vector<double> freqs;
  freqs.reserve(params_.channels.size());
  for (const auto& spec : params_.channels) {
    validate_subcarrier(spec.subcarrier_hz, freqs);
    freqs.push_back(spec.subcarrier_hz);
  }

  if (params_.metrics != nullptr) {
    const auto sn = [&](std::string_view name) {
      return telemetry::scoped_name(params_.metrics_scope, name);
    };
    g_bank_policy_ = &params_.metrics->gauge(sn("fdma.bank_policy"));
    c_chzr_frames_ = &params_.metrics->counter(sn("fdma.chzr.frames"));
    c_chzr_fft_us_ = &params_.metrics->counter(sn("fdma.chzr.fft_us"));
    h_stage_frontend_us_ = &params_.metrics->histogram(
        sn("fdma.stage.frontend_us"), 0.0, 20000.0, 100);
    h_stage_decode_us_ = &params_.metrics->histogram(
        sn("fdma.stage.decode_us"), 0.0, 20000.0, 100);
  }

  const bool channelized =
      params_.bank != BankPolicy::kPerChannel && engage_channelizer(freqs);
  for (double hz : freqs) {
    channels_.push_back(channelized ? make_lane_channel(hz)
                                    : make_channel(hz));
    bind_channel_metrics(channels_.size() - 1);
  }
  if (g_bank_policy_ != nullptr) {
    g_bank_policy_->set(channelized ? 1.0 : 0.0);
  }
  if (params_.metrics != nullptr) {
    pool_->set_dispatch_histogram(&params_.metrics->histogram(
        telemetry::scoped_name(params_.metrics_scope, "fdma.dispatch_us"),
        0.0, 2000.0, 64));
  }
  ARACHNET_LOG_DEBUG("fdma", "chain ready",
                     {"channels", channels_.size()},
                     {"workers", workers_},
                     {"iq_rate_hz", iq_rate_},
                     {"bank", channelized ? "channelizer" : "per_channel"});
}

bool FdmaRxChain::engage_channelizer(const std::vector<double>& freqs) {
  if (params_.bank == BankPolicy::kAuto && freqs.size() < 4) {
    // Below ~4 channels the shared FFT costs about what the mixers do;
    // stay on the reference path (silently — nothing was requested).
    return false;
  }
  const auto plan =
      dsp::PolyphaseChannelizer::plan(iq_rate_, params_.chip_rate, freqs);
  if (!plan.viable) {
    ARACHNET_LOG_INFO("fdma", "channelizer fallback to per-channel",
                      {"reason", plan.reason},
                      {"channels", freqs.size()});
    return false;
  }
  chzr_ = std::make_unique<dsp::PolyphaseChannelizer>(
      dsp::PolyphaseChannelizer::Params{
          .sample_rate_hz = iq_rate_,
          .fft_size = plan.fft_size,
          .decimation = plan.decimation,
          .prototype =
              dsp::design_lowpass(plan.cutoff_hz, iq_rate_, plan.taps),
          .center_hz = freqs,
          .kernels = params_.kernels,
          .fold = params_.chzr_fold});
  lane_rate_ = chzr_->lane_rate_hz();
  const std::size_t debounce =
      DecisionChain::rule(iq_rate_ / params_.chip_rate).debounce;
  const std::size_t lane_debounce =
      DecisionChain::rule(lane_rate_ / params_.chip_rate).debounce;
  // Stamp compensation so lane packets carry per-channel-equivalent
  // timestamps: the channelizer prototype's extra group delay, plus the
  // debouncer-latency difference (each debouncer confirms a transition
  // hold-1 samples late — lane samples are decimation full-rate samples
  // wide). The residual (frame quantisation plus the differing filter
  // transition shapes) stays within one lane sample.
  lane_delay_ =
      static_cast<std::int64_t>((plan.taps - 1) / 2) -
      static_cast<std::int64_t>((channel_coeffs_.size() - 1) / 2) +
      static_cast<std::int64_t>((lane_debounce - 1) * plan.decimation) -
      static_cast<std::int64_t>(debounce - 1);
  ARACHNET_LOG_DEBUG("fdma", "channelizer engaged",
                     {"fft_size", plan.fft_size},
                     {"decimation", plan.decimation},
                     {"taps", plan.taps},
                     {"lane_rate_hz", lane_rate_});
  return true;
}

void FdmaRxChain::bind_channel_metrics(std::size_t index) {
  if (params_.metrics == nullptr) return;
  auto& ch = *channels_[index];
  char name[48];
  const auto bind = [&](const char* suffix) -> telemetry::Counter* {
    std::snprintf(name, sizeof(name), "fdma.ch%zu.%s", index, suffix);
    return &params_.metrics->counter(
        telemetry::scoped_name(params_.metrics_scope, name));
  };
  ch.decision.bind(bind("iq_samples"), bind("bits"), bind("frames"),
                   bind("crc_failures"));
}

std::unique_ptr<FdmaRxChain::Channel> FdmaRxChain::make_channel(
    double subcarrier_hz) const {
  auto ch = std::make_unique<Channel>(
      subcarrier_hz, channel_decision(iq_rate_, params_.chip_rate));
  ch->kernels = params_.kernels;
  ch->nco_step = -2.0 * std::numbers::pi * subcarrier_hz / iq_rate_;
  if (ch->kernels == dsp::KernelPolicy::kSimd) {
    ch->nco_s.set(0.0, ch->nco_step);
    ch->slpf.emplace(channel_coeffs_);
  } else {
    ch->lpf.emplace(channel_coeffs_);
  }
  return ch;
}

std::unique_ptr<FdmaRxChain::Channel> FdmaRxChain::make_lane_channel(
    double subcarrier_hz) const {
  auto ch = std::make_unique<Channel>(
      subcarrier_hz, channel_decision(lane_rate_, params_.chip_rate));
  ch->lane_decim = chzr_->decimation();
  ch->lane_delay = lane_delay_;
  return ch;
}

void FdmaRxChain::validate_subcarrier(
    double hz, const std::vector<double>& existing) const {
  if (!std::isfinite(hz)) {
    throw std::invalid_argument(
        "FdmaRxChain: subcarrier must be finite (got NaN or infinity)");
  }
  if (hz <= 0.0) {
    throw std::invalid_argument(
        "FdmaRxChain: subcarrier must be positive");
  }
  for (double f : existing) {
    if (f == hz) {
      throw std::invalid_argument("FdmaRxChain: duplicate subcarrier");
    }
    if (std::abs(f - hz) < 3.0 * params_.chip_rate) {
      throw std::invalid_argument(
          "FdmaRxChain: subcarriers closer than 3x chip rate");
    }
  }
}

void FdmaRxChain::process(const double* samples, std::size_t n) {
  ARACHNET_TRACE_SPAN("fdma.process");
  // Stage timing (front-end = DDC + shared channelizer on the caller
  // thread; decode = per-channel fan-out) is metrics-gated so the
  // uninstrumented path pays nothing.
  const bool timed = h_stage_frontend_us_ != nullptr;
  const std::uint64_t t_in = timed ? steady_now_ns() : 0;
  // Reused member scratch: the steady-state hot path allocates nothing.
  iq_buf_.clear();
  ddc_.process(std::span<const double>{samples, n}, iq_buf_);
  if (iq_buf_.empty()) return;
  if (chzr_ != nullptr) {
    const std::uint64_t t0 =
        (c_chzr_fft_us_ != nullptr) ? steady_now_ns() : 0;
    const std::size_t frames =
        chzr_->process(iq_buf_.data(), iq_buf_.size());
    if (c_chzr_fft_us_ != nullptr) {
      c_chzr_fft_us_->add((steady_now_ns() - t0) / 1000);
      c_chzr_frames_->add(frames);
    }
    const std::uint64_t t_front = timed ? steady_now_ns() : 0;
    if (timed) {
      h_stage_frontend_us_->record(static_cast<double>(t_front - t_in) *
                                   1e-3);
    }
    if (frames != 0) {
      const std::uint64_t frame_base = chzr_->frames_produced() - frames;
      pool_->run(channels_.size(), [&](std::size_t c) {
        channels_[c]->process_lane(chzr_->lane(c), frames, frame_base);
      });
      if (timed) {
        h_stage_decode_us_->record(
            static_cast<double>(steady_now_ns() - t_front) * 1e-3);
      }
    }
  } else {
    const std::uint64_t t_front = timed ? steady_now_ns() : 0;
    if (timed) {
      h_stage_frontend_us_->record(static_cast<double>(t_front - t_in) *
                                   1e-3);
    }
    pool_->run(channels_.size(), [&](std::size_t c) {
      channels_[c]->process_block(iq_buf_.data(), iq_buf_.size(),
                                  iq_index_);
    });
    if (timed) {
      h_stage_decode_us_->record(
          static_cast<double>(steady_now_ns() - t_front) * 1e-3);
    }
  }
  iq_index_ += iq_buf_.size();
}

const std::vector<phy::UlPacket>& FdmaRxChain::packets(
    std::size_t channel) const {
  return channels_.at(channel)->packets;
}

std::vector<RxPacket> FdmaRxChain::drain_packets() {
  std::vector<RxPacket> merged;
  drain_packets(merged);
  return merged;
}

std::size_t FdmaRxChain::drain_packets(std::vector<RxPacket>& out) {
  out.clear();
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    auto& ch = *channels_[c];
    for (std::size_t i = 0; i < ch.packets.size(); ++i) {
      out.push_back(RxPacket{
          ch.packets[i],
          static_cast<double>(ch.packet_iq_index[i]) / iq_rate_, c});
    }
    // Release drained packets instead of advancing a cursor over an
    // ever-growing list: a long-running reader once accumulated every
    // packet it had ever decoded here. clear() keeps capacity, so the
    // steady state neither grows nor allocates.
    ch.packets.clear();
    ch.packet_iq_index.clear();
  }
  // Deterministic cross-channel order: completion sample, then channel.
  // The comparator is a strict total order over this set — within one
  // channel completion times are distinct, so (time_s, channel) never
  // ties — which makes std::sort deterministic here. std::stable_sort
  // would give the identical permutation but allocates its merge buffer
  // on every call, breaking the steady-state allocation contract.
  std::sort(out.begin(), out.end(),
            [](const RxPacket& a, const RxPacket& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              return a.channel < b.channel;
            });
  return out.size();
}

void FdmaRxChain::clear_packets() {
  for (auto& ch : channels_) {
    ch->packets.clear();
    ch->packet_iq_index.clear();
  }
}

FdmaRxChain::ChannelStats FdmaRxChain::channel_stats(
    std::size_t channel) const {
  const auto& ch = *channels_.at(channel);
  const DecisionCounts c = ch.decision.published();
  return ChannelStats{.subcarrier_hz = ch.subcarrier_hz,
                      .iq_samples = c.iq_samples,
                      .bits = c.bits,
                      .frames_ok = c.frames_ok,
                      .crc_failures = c.crc_failures};
}

std::vector<FdmaRxChain::ChannelStats> FdmaRxChain::all_channel_stats()
    const {
  std::vector<ChannelStats> all;
  all.reserve(channels_.size());
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    all.push_back(channel_stats(c));
  }
  return all;
}

}  // namespace arachnet::reader
