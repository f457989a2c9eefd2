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

/// IQ samples per pass of a per-channel front end, and at most per piece
/// of process(): bounds the filter history, the lane buffers and the IQ
/// buffer, and the kSimd mixer reseeds its float32 phasors from the double
/// master phase once per pass.
constexpr std::size_t kChannelBlock = 4096;

/// Channels at which kAuto engages the channelizer: below this the
/// per-channel bank decodes faster (DESIGN.md §7, bank crossover).
constexpr std::size_t kChannelizerMinChannels = 8;

/// The back end of a channel whose front end delivers `rate_hz`.
DecisionChain::Params channel_decision(double rate_hz, double chip_rate) {
  return DecisionChain::Params{
      .rate_hz = rate_hz, .chip_rate = chip_rate, .slicer_floor = 0.001};
}

/// The caller's settings with the main DDC's cutoff and kernels resolved
/// (see FdmaRxChain::params()).
FdmaRxChain::Params resolved(FdmaRxChain::Params p) {
  // Checked first: every rate below (filter cutoffs, samples per chip,
  // the channelizer plan) divides by or scales with it.
  if (!std::isfinite(p.chip_rate) || p.chip_rate <= 0.0) {
    throw std::invalid_argument(
        "FdmaRxChain: chip_rate must be finite and positive");
  }
  dsp::Ddc::Params& ddc = p.ddc;
  double top = 0.0;
  for (const auto& c : p.channels) {
    // Non-finite specs must reach validate_subcarrier() for their proper
    // diagnostic, not blow up the filter design here.
    if (std::isfinite(c.subcarrier_hz)) top = std::max(top, c.subcarrier_hz);
  }
  // The main down-converter must pass the highest subcarrier plus its
  // modulation sidebands, flat: the windowed-sinc cutoff is the middle of
  // a transition band T = 3.3 * fs / taps wide, so it moves up by T/2 —
  // but only as far as keeps the stopband edge below the lowest frequency
  // that folds onto a channel after decimation.
  const double edge = top + 3.0 * p.chip_rate;
  ddc.cutoff_hz = edge;
  if (ddc.taps != 0 && ddc.decimation != 0) {
    const double half_band =
        1.65 * ddc.sample_rate_hz / static_cast<double>(ddc.taps);
    const double iq_rate =
        ddc.sample_rate_hz / static_cast<double>(ddc.decimation);
    const double room = iq_rate - 2.0 * edge - half_band;
    ddc.cutoff_hz += std::max(0.0, std::min(half_band, room));
  }
  // One policy switch for the whole chain: the main DDC and every channel
  // follow Params::kernels.
  ddc.kernels = p.kernels;
  return p;
}

}  // namespace

FdmaRxChain::Channel::Channel(double hz, DecisionChain::Params decision_params,
                              std::size_t decim, std::int64_t delay)
    : subcarrier_hz(hz),
      lane_decim(decim),
      lane_delay(delay),
      decision(decision_params) {}

void FdmaRxChain::Channel::process_block(const std::complex<double>* iq,
                                         std::size_t n) {
  // Shift this channel's subcarrier band to DC, low-pass and decimate. The
  // carrier leak sits at baseband DC, i.e. at -f_sc after the shift —
  // outside the channel low-pass, so no explicit leak cancellation is
  // needed here. The subcarrier fundamental flips polarity with the FM0
  // chip, so after the shift the chip value lives on a fixed line through
  // the origin: the back end's axis finds it.
  for (std::size_t off = 0; off < n; off += kChannelBlock) {
    const std::size_t len = std::min(kChannelBlock, n - off);
    std::size_t count = 0;
    if (kernels == dsp::KernelPolicy::kSimd) {
      // float32 lanes through mixer and LPF, widened back to double for
      // the back end.
      nco_s.mix(iq + off, slpf->input(), len);
      count = slpf->filter(len, lane_f.data());
      for (std::size_t i = 0; i < count; ++i) {
        lane[i] = {static_cast<double>(lane_f[2 * i]),
                   static_cast<double>(lane_f[2 * i + 1])};
      }
    } else {
      for (std::size_t i = 0; i < len; ++i) {
        const std::complex<double> osc{std::cos(nco_phase),
                                       std::sin(nco_phase)};
        nco_phase += nco_step;
        if (nco_phase < -2.0 * std::numbers::pi) {
          nco_phase += 2.0 * std::numbers::pi;
        }
        // Only every lane_decim-th sample needs the filter's dot product.
        const std::complex<double> x = iq[off + i] * osc;
        if (++phase == lane_decim) {
          phase = 0;
          lane[count++] = lpf->push(x);
        } else {
          lpf->feed(x);
        }
      }
    }
    process_lane(lane.data(), count, frames);
    frames += count;
  }
}

void FdmaRxChain::Channel::process_lane(const std::complex<double>* lane_in,
                                        std::size_t n,
                                        std::uint64_t frame_base) {
  // A packet is dated by the lane sample that completed it: frame F's
  // newest IQ sample is (F+1)*decim - 1, and subtracting the channelizer
  // prototype's extra group delay dates its packets like the per-channel
  // bank's (within one lane sample).
  const auto delay = static_cast<std::uint64_t>(lane_delay);
  for (std::size_t i = 0; i < n; ++i) {
    if (const auto pkt = decision.step(lane_in[i])) {
      const std::uint64_t t =
          (frame_base + i + 1) * static_cast<std::uint64_t>(lane_decim) - 1;
      packets.push_back(*pkt);
      packet_iq_index.push_back(t > delay ? t - delay : 0);
    }
  }
  decision.publish(n);
}

FdmaRxChain::FdmaRxChain(Params params)
    : params_(resolved(std::move(params))),
      ddc_(params_.ddc),
      iq_rate_(ddc_.output_rate_hz()),
      lane_decim_(dsp::PolyphaseChannelizer::lane_decimation(
          iq_rate_, params_.chip_rate)),
      lane_rate_(iq_rate_ / static_cast<double>(lane_decim_)) {
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
  // One piece's IQ (see process()), sized here on the constructing thread.
  iq_buf_.reserve(kChannelBlock);

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
  if (params_.bank == BankPolicy::kAuto &&
      freqs.size() < kChannelizerMinChannels) {
    // The per-channel bank is faster here; stay on it (silently — nothing
    // was requested).
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
  // process() feeds it one piece of at most kChannelBlock IQ samples.
  chzr_->reserve(kChannelBlock);
  // Both banks decide on one frame grid with one debouncer, so lane
  // packets carry per-channel-equivalent timestamps once the channelizer
  // prototype's extra group delay is taken off. The residual (the
  // differing filter transition shapes) stays within one lane sample.
  lane_delay_ = static_cast<std::int64_t>((plan.taps - 1) / 2) -
                static_cast<std::int64_t>((channel_coeffs_.size() - 1) / 2);
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
      subcarrier_hz, channel_decision(lane_rate_, params_.chip_rate),
      lane_decim_, 0);
  ch->kernels = params_.kernels;
  ch->nco_step = -2.0 * std::numbers::pi * subcarrier_hz / iq_rate_;
  // Sized once: a block of kChannelBlock IQ samples yields at most this
  // many lane samples.
  const std::size_t lane_max = kChannelBlock / lane_decim_ + 1;
  ch->lane.resize(lane_max);
  if (ch->kernels == dsp::KernelPolicy::kSimd) {
    ch->nco_s.set(0.0, ch->nco_step);
    ch->slpf.emplace(channel_coeffs_, lane_decim_, kChannelBlock);
    ch->lane_f.resize(2 * lane_max);
  } else {
    ch->lpf.emplace(channel_coeffs_);
  }
  return ch;
}

std::unique_ptr<FdmaRxChain::Channel> FdmaRxChain::make_lane_channel(
    double subcarrier_hz) const {
  return std::make_unique<Channel>(
      subcarrier_hz, channel_decision(lane_rate_, params_.chip_rate),
      lane_decim_, lane_delay_);
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
  // uninstrumented path pays nothing. Each stage records once per call,
  // summed over the call's pieces.
  const bool timed = h_stage_frontend_us_ != nullptr;
  std::uint64_t front_ns = 0;
  std::uint64_t decode_ns = 0;
  bool fronted = false;
  bool decoded = false;
  // Pieces of at most kChannelBlock IQ samples keep iq_buf_ within the
  // capacity reserved at construction. Every stage carries its state
  // across calls, and a piece is a whole number of the DDC's and the
  // per-channel front end's blocks, so pieces decode bit for bit as one
  // call would.
  const std::size_t piece = kChannelBlock * params_.ddc.decimation;
  for (std::size_t off = 0; off < n; off += piece) {
    const std::uint64_t t_in = timed ? steady_now_ns() : 0;
    iq_buf_.clear();
    ddc_.process(std::span<const double>{samples + off,
                                         std::min(piece, n - off)},
                 iq_buf_);
    if (iq_buf_.empty()) continue;
    std::size_t frames = 0;
    if (chzr_ != nullptr) {
      const std::uint64_t t0 =
          (c_chzr_fft_us_ != nullptr) ? steady_now_ns() : 0;
      frames = chzr_->process(iq_buf_.data(), iq_buf_.size());
      if (c_chzr_fft_us_ != nullptr) {
        c_chzr_fft_us_->add((steady_now_ns() - t0) / 1000);
        c_chzr_frames_->add(frames);
      }
    }
    const std::uint64_t t_front = timed ? steady_now_ns() : 0;
    front_ns += t_front - t_in;
    fronted = true;
    if (chzr_ != nullptr) {
      if (frames == 0) continue;
      const std::uint64_t frame_base = chzr_->frames_produced() - frames;
      pool_->run(channels_.size(), [&](std::size_t c) {
        ARACHNET_TRACE_SPAN("fdma.channel");
        channels_[c]->process_lane(chzr_->lane(c), frames, frame_base);
      });
    } else {
      pool_->run(channels_.size(), [&](std::size_t c) {
        ARACHNET_TRACE_SPAN("fdma.channel");
        channels_[c]->process_block(iq_buf_.data(), iq_buf_.size());
      });
    }
    decode_ns += timed ? steady_now_ns() - t_front : 0;
    decoded = true;
  }
  if (timed && fronted) {
    h_stage_frontend_us_->record(static_cast<double>(front_ns) * 1e-3);
  }
  if (timed && decoded) {
    h_stage_decode_us_->record(static_cast<double>(decode_ns) * 1e-3);
  }
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
