#include "arachnet/fleet/fleet_engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/telemetry/log.hpp"

namespace arachnet::fleet {

namespace {

constexpr std::uint64_t kStreamsPerReader = 4;  ///< split-id namespacing
constexpr std::uint64_t kStreamSlotNet = 0;
constexpr std::uint64_t kStreamNoise = 1;

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

FleetEngine::FleetEngine(Params params)
    : params_(std::move(params)),
      total_readers_(params_.total_readers != 0
                         ? params_.total_readers
                         : static_cast<std::size_t>(params_.first_reader_id) +
                               params_.readers),
      shard_width_(std::min(
          params_.shards == 0 ? params_.readers : params_.shards,
          params_.readers == 0 ? std::size_t{1} : params_.readers)),
      bus_([&] {
        MessageBus::Params bp = params_.bus;
        if (bp.metrics == nullptr) bp.metrics = params_.metrics;
        if (bp.metrics_scope.empty()) {
          bp.metrics_scope = params_.metrics_scope + "fleet.";
        }
        return bp;
      }(), total_readers_),
      planner_(GridPlanner::Params{params_.planner_channels}),
      dedup_(params_.dedup_window) {
  if (params_.readers == 0) {
    throw std::invalid_argument("FleetEngine: readers must be nonzero");
  }
  if (static_cast<std::size_t>(params_.first_reader_id) + params_.readers >
      total_readers_) {
    throw std::invalid_argument(
        "FleetEngine: first_reader_id + readers exceeds total_readers");
  }

  const sim::Rng master{params_.seed};
  shards_.reserve(params_.readers);
  for (std::size_t i = 0; i < params_.readers; ++i) {
    const int gid = params_.first_reader_id + static_cast<int>(i);
    auto shard = std::make_unique<Shard>();
    shard->reader_id = gid;
    // Stream namespacing by GLOBAL reader id: a reader draws the same
    // random sequence whether it runs in a 1-reader reference engine or
    // an N-reader fleet, at any shard width.
    const auto stream = [&](std::uint64_t which) {
      return master.split(static_cast<std::uint64_t>(gid) *
                              kStreamsPerReader +
                          which);
    };
    if (params_.mode == Mode::kSlot) {
      core::SlotNetwork::Params sp = params_.slot;
      sp.seed = stream(kStreamSlotNet).next_u64();
      const int period = static_cast<int>(
          std::bit_ceil(std::max<std::size_t>(4, 2 * params_.tags_per_reader)));
      std::vector<core::SlotNetwork::TagSpec> specs;
      specs.reserve(params_.tags_per_reader);
      for (std::size_t j = 0; j < params_.tags_per_reader; ++j) {
        const auto tag = static_cast<std::uint32_t>(
            static_cast<std::size_t>(gid) * params_.tags_per_reader + j);
        core::SlotNetwork::TagSpec spec;
        spec.tid = static_cast<int>(tag);
        spec.period = period;
        specs.push_back(spec);
        tags_.emplace(tag, TagState{gid, gid, 1, -1, spec});
      }
      shard->net =
          std::make_unique<core::SlotNetwork>(sp, std::move(specs));
    } else {
      reader::FdmaRxChain::Params fp;
      fp.ddc.decimation = 8;
      fp.workers = 1;  // fleet parallelism is across shards, not within
      for (std::size_t k = 0; k < params_.channels_per_reader; ++k) {
        fp.channels.push_back({params_.subcarrier_origin_hz +
                               params_.subcarrier_spacing_hz *
                                   static_cast<double>(k)});
      }
      shard->bank = std::make_unique<reader::FdmaRxChain>(fp);
      shard->synth =
          std::make_unique<acoustic::UplinkWaveformSynth>(params_.synth);
      // Sized here, on the constructing thread, not by whichever pool
      // thread first runs the shard: the window then comes from the same
      // malloc arena every run, and the fleet's resident memory with it.
      shard->wave.reserve(
          shard->synth->window_samples(params_.epoch_duration_s));
      shard->noise_rng = stream(kStreamNoise);
      for (std::size_t k = 0; k < params_.channels_per_reader; ++k) {
        const auto tag = static_cast<std::uint32_t>(
            static_cast<std::size_t>(gid) * params_.channels_per_reader + k);
        tags_.emplace(tag, TagState{gid, gid, 1, -1, {}});
        // Channel k's tag; step_shard_waveform() writes its chips.
        const auto& mod = shard->modulators.emplace_back(
            phy::SubcarrierModulator::Params{phy::kDefaultUlRawBitRate,
                                             fp.channels[k].subcarrier_hz});
        acoustic::BackscatterSource& src = shard->sources.emplace_back();
        src.chip_rate = mod.subchip_rate();
        src.start_s = 0.02;
        src.amplitude = 0.12 + 0.01 * static_cast<double>(k % 5);
        src.phase_rad = 0.5 + 0.4 * static_cast<double>(k) +
                        0.3 * static_cast<double>(gid);
      }
    }
    shards_.push_back(std::move(shard));
  }
  pool_ = std::make_unique<dsp::WorkerPool>(shard_width_ - 1);

  if (auto* m = params_.metrics) {
    const auto n = [&](std::string_view name) {
      return telemetry::scoped_name(params_.metrics_scope, name);
    };
    c_packets_ = &m->counter(n("fleet.packets"));
    c_dup_suppressed_ = &m->counter(n("fleet.dup_suppressed"));
    c_dup_passed_ = &m->counter(n("fleet.dup_passed"));
    c_handoffs_ = &m->counter(n("fleet.handoffs"));
    c_conflicts_ = &m->counter(n("fleet.conflicts"));
    c_tdma_muted_ = &m->counter(n("fleet.tdma_muted"));
    g_active_readers_ = &m->gauge(n("fleet.active_readers"));
    h_epoch_ms_ = &m->histogram(n("fleet.epoch_ms"), 0.0, 1000.0, 128);
    g_active_readers_->set(static_cast<double>(params_.readers));
  }
  ARACHNET_LOG_INFO("fleet", "fleet engine up",
                    {"mode", params_.mode == Mode::kSlot ? "slot"
                                                         : "waveform"},
                    {"readers", params_.readers},
                    {"shards", shard_width_},
                    {"total_readers", total_readers_});
}

FleetEngine::~FleetEngine() = default;

bool FleetEngine::ring_adjacent(int a, int b) const noexcept {
  if (a == b || total_readers_ < 2) return false;
  const auto n = static_cast<int>(total_readers_);
  const int d = std::abs(a - b);
  return d == 1 || d == n - 1;
}

bool FleetEngine::interferes(int a, int b) const noexcept {
  return params_.neighbor_gain > 0.0 && ring_adjacent(a, b);
}

double FleetEngine::gain(int reader_id, std::uint32_t tag,
                         std::uint64_t epoch) const {
  const auto it = tags_.find(tag);
  if (it == tags_.end()) return 0.0;
  const int home = it->second.home;
  if (reader_id == home) return 1.0;
  if (params_.neighbor_gain <= 0.0 || !ring_adjacent(reader_id, home)) {
    return 0.0;
  }
  // Deterministic structural drift: a pure function of (reader, tag,
  // epoch). No rng — every coordinator computes the identical value.
  const std::uint64_t period =
      std::max<std::uint64_t>(1, params_.gain_drift_period);
  const double phase =
      2.0 * 3.14159265358979323846 *
          (static_cast<double>(epoch % period) /
           static_cast<double>(period)) +
      0.9 * static_cast<double>(tag) + 1.7 * static_cast<double>(reader_id);
  return params_.neighbor_gain +
         params_.gain_drift_amplitude * std::sin(phase);
}

FleetEngine::Shard* FleetEngine::find_shard(int reader_id) {
  const int i = reader_id - params_.first_reader_id;
  if (i < 0 || static_cast<std::size_t>(i) >= shards_.size()) return nullptr;
  return shards_[static_cast<std::size_t>(i)].get();
}

const FleetEngine::Shard* FleetEngine::find_shard(int reader_id) const {
  const int i = reader_id - params_.first_reader_id;
  if (i < 0 || static_cast<std::size_t>(i) >= shards_.size()) return nullptr;
  return shards_[static_cast<std::size_t>(i)].get();
}

std::vector<int> FleetEngine::active_reader_ids() const {
  std::vector<int> out;
  for (const auto& s : shards_) {
    if (s->active) out.push_back(s->reader_id);
  }
  return out;
}

std::size_t FleetEngine::active_reader_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(shards_.begin(), shards_.end(),
                    [](const auto& s) { return s->active; }));
}

bool FleetEngine::reader_active(int reader_id) const {
  const auto* s = find_shard(reader_id);
  return s != nullptr && s->active;
}

GridPlanner::Assignment FleetEngine::assignment(int reader_id) const {
  const auto* s = find_shard(reader_id);
  return s != nullptr ? s->assign : GridPlanner::Assignment{};
}

int FleetEngine::tag_owner(std::uint32_t tag) const {
  const auto it = tags_.find(tag);
  return it != tags_.end() ? it->second.owner : -1;
}

void FleetEngine::request_leave(int reader_id) {
  BusMessage m;
  m.topic = Topic::kMembership;
  m.priority = 10;
  m.a = static_cast<std::uint64_t>(reader_id);
  m.b = 0;  // leave
  bus_.publish(reader_id, m);
}

void FleetEngine::request_join(int reader_id) {
  BusMessage m;
  m.topic = Topic::kMembership;
  m.priority = 10;
  m.a = static_cast<std::uint64_t>(reader_id);
  m.b = 1;  // join
  bus_.publish(reader_id, m);
}

void FleetEngine::apply_handoff(std::uint32_t tag, int to_reader) {
  auto it = tags_.find(tag);
  if (it == tags_.end()) return;
  TagState& st = it->second;
  if (st.owner == to_reader) return;
  Shard* dst = find_shard(to_reader);
  if (dst == nullptr || !dst->active) return;
  if (params_.mode == Mode::kSlot) {
    if (Shard* src = find_shard(st.owner);
        src != nullptr && src->net != nullptr) {
      src->net->remove_tag(static_cast<int>(tag));
    }
    if (dst->net != nullptr && !dst->net->has_tag(static_cast<int>(tag))) {
      dst->net->add_tag(st.spec);
    }
  }
  st.owner = to_reader;
  ++handoffs_;
  if (c_handoffs_ != nullptr) c_handoffs_->add();
}

void FleetEngine::recompute_plan() {
  std::vector<std::vector<int>> graph(total_readers_);
  const auto active = active_reader_ids();
  for (int a : active) {
    for (int b : active) {
      if (a < b && interferes(a, b)) {
        graph[static_cast<std::size_t>(a)].push_back(b);
      }
    }
  }
  const auto plan = params_.planner_enabled
                        ? planner_.plan(total_readers_, graph)
                        : std::vector<GridPlanner::Assignment>(
                              total_readers_, GridPlanner::Assignment{
                                                  0, params_.planner_channels,
                                                  0, 1});
  for (auto& s : shards_) {
    s->assign = plan[static_cast<std::size_t>(s->reader_id)];
  }
}

void FleetEngine::pre_phase() {
  bus_.commit();
  inbox_packets_.clear();
  bool membership_changed = false;
  for (const BusMessage& msg : bus_.drain()) {
    switch (msg.topic) {
      case Topic::kMembership: {
        Shard* s = find_shard(static_cast<int>(msg.a));
        if (s == nullptr) break;
        const bool join = msg.b != 0;
        if (join && !s->active) {
          s->active = true;
          membership_changed = true;
        } else if (!join && s->active) {
          s->active = false;
          membership_changed = true;
          // Hand the departing reader's tags to the best-covering active
          // reader (ties: lowest id; no coverage at all: lowest active id).
          for (auto& [tag, st] : tags_) {
            if (st.owner != s->reader_id) continue;
            int best = -1;
            double best_gain = -1.0;
            for (int x : active_reader_ids()) {
              const double g = gain(x, tag, epoch_);
              if (g > best_gain + 1e-12) {
                best_gain = g;
                best = x;
              }
            }
            if (best < 0) {
              const auto act = active_reader_ids();
              if (act.empty()) break;  // whole fleet gone; tags orphan
              best = act.front();
            }
            apply_handoff(tag, best);
          }
          // Drop whatever is still in the leaver's network (tags that
          // could not be handed anywhere).
          if (params_.mode == Mode::kSlot && s->net != nullptr) {
            for (auto& [tag, st] : tags_) {
              if (st.owner == s->reader_id &&
                  s->net->has_tag(static_cast<int>(tag))) {
                s->net->remove_tag(static_cast<int>(tag));
              }
            }
          }
        }
        break;
      }
      case Topic::kHandoff: {
        auto it = tags_.find(static_cast<std::uint32_t>(msg.a));
        // Stale guard: only the current owner may transfer, and the
        // target must still be active (apply_handoff re-checks).
        if (it != tags_.end() && it->second.owner == msg.from) {
          apply_handoff(static_cast<std::uint32_t>(msg.a),
                        static_cast<int>(msg.b));
        }
        break;
      }
      case Topic::kPacket:
        inbox_packets_.push_back(msg);
        break;
    }
  }
  if (membership_changed || plan_dirty_) {
    recompute_plan();
    plan_dirty_ = false;
  }
  if (g_active_readers_ != nullptr) {
    g_active_readers_->set(static_cast<double>(active_reader_count()));
  }
}

void FleetEngine::step_shard_slot(Shard& shard) {
  // Inactive shards still step their (emptied) networks so every
  // network's slot counter stays in lockstep — the co-channel censor
  // compares transmissions by global slot number.
  const bool tx = shard.active && shard.assign.active_in_epoch(epoch_);
  const auto channel = static_cast<std::uint64_t>(shard.assign.chan_begin);
  for (std::size_t i = 0; i < params_.slots_per_epoch; ++i) {
    const auto rec = shard.net->step();
    if (!rec.decoded_tid || !shard.active) continue;
    if (!tx) {
      ++shard.tdma_muted;
      continue;
    }
    BusMessage m;
    m.topic = Topic::kPacket;
    m.priority = 1;
    m.a = static_cast<std::uint64_t>(*rec.decoded_tid);
    m.b = static_cast<std::uint64_t>(rec.slot);
    m.c = channel;
    bus_.publish(shard.reader_id, m);
  }
}

void FleetEngine::step_shard_waveform(Shard& shard) {
  if (!shard.active) return;
  const std::size_t channels = params_.channels_per_reader;
  for (std::size_t k = 0; k < channels; ++k) {
    // 12-bit payload doubles as the tag-side transmission sequence:
    // 8 bits of epoch, 4 of channel.
    const auto txseq = static_cast<std::uint16_t>(((epoch_ & 0xFF) << 4) |
                                                  (k & 0xF));
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(k + 1),
                            .payload = txseq};
    pkt.serialize(shard.frame_bits);
    phy::Fm0Encoder::encode_frame(shard.frame_bits, shard.fm0_chips);
    shard.modulators[k].modulate(shard.fm0_chips, shard.sources[k].chips);
  }
  shard.synth->synthesize(shard.sources, params_.epoch_duration_s,
                          shard.noise_rng, shard.wave);
  shard.bank->process(shard.wave);
  const auto base = static_cast<std::uint64_t>(shard.reader_id) * channels;
  shard.bank->drain_packets(shard.drained);
  for (const auto& p : shard.drained) {
    if (p.packet.tid == 0 || p.packet.tid > channels) continue;
    BusMessage m;
    m.topic = Topic::kPacket;
    m.priority = 1;
    m.a = base + (p.packet.tid - 1);
    m.b = p.packet.payload;
    m.c = static_cast<std::uint64_t>(shard.assign.chan_begin + p.channel);
    bus_.publish(shard.reader_id, m);
  }
}

void FleetEngine::parallel_phase() {
  // One task per shard; the pool bounds concurrency at shard_width_.
  // Shard tasks touch only their own shard (and their own bus outbox), so
  // any interleaving produces the same published multiset — and commit()
  // orders it deterministically.
  auto& shards = shards_;
  pool_->run(shards.size(), [&](std::size_t i) {
    Shard& s = *shards[i];
    if (params_.mode == Mode::kSlot) {
      step_shard_slot(s);
    } else {
      step_shard_waveform(s);
    }
  });
}

void FleetEngine::collect_phase() {
  // ---- 1. Co-channel censor: two interfering readers reporting on the
  // same (transmission, channel) collided on the air — both reports are
  // lost. The planner's whole job is to make this set empty.
  dropped_.assign(inbox_packets_.size(), false);
  for (std::size_t i = 0; i < inbox_packets_.size(); ++i) {
    for (std::size_t j = i + 1; j < inbox_packets_.size(); ++j) {
      const auto& x = inbox_packets_[i];
      const auto& y = inbox_packets_[j];
      if (x.b == y.b && x.c == y.c && x.from != y.from &&
          interferes(x.from, y.from)) {
        dropped_[i] = dropped_[j] = true;
      }
    }
  }
  admitted_fresh_.clear();
  for (std::size_t i = 0; i < inbox_packets_.size(); ++i) {
    const BusMessage& msg = inbox_packets_[i];
    if (dropped_[i]) {
      ++conflicts_;
      if (c_conflicts_ != nullptr) c_conflicts_->add();
      continue;
    }
    auto it = tags_.find(static_cast<std::uint32_t>(msg.a));
    if (it == tags_.end()) continue;
    TagState& st = it->second;

    // ---- 2. Duplicate suppression keyed on (tag, tx seq, slot epoch).
    const auto tag = static_cast<std::uint32_t>(msg.a);
    const auto txseq = static_cast<std::uint32_t>(msg.b);
    const std::uint64_t tx_epoch =
        params_.mode == Mode::kSlot
            ? msg.b / std::max<std::size_t>(1, params_.slots_per_epoch)
            : epoch_;
    if (!dedup_.admit(tag, txseq, tx_epoch)) {
      ++dup_suppressed_;
      if (c_dup_suppressed_ != nullptr) c_dup_suppressed_->add();
      continue;
    }
    const auto slot = static_cast<std::int64_t>(msg.b);
    if (params_.mode == Mode::kSlot && slot <= st.last_slot) {
      // The window evicted this transmission's key before the echo
      // arrived: a duplicate leaked through. Deliver it flagged, with
      // seq 0 — downstream consumers treat seq 0 as "replay, unordered".
      ++dup_passed_;
      if (c_dup_passed_ != nullptr) c_dup_passed_->add();
      log_.push_back(FleetPacket{epoch_, slot, msg.from, tag, 0,
                                 static_cast<std::uint16_t>(msg.c), true});
      continue;
    }
    const std::uint32_t seq = st.next_seq++;
    st.last_slot = slot;
    const bool overheard = msg.from != st.owner;
    log_.push_back(FleetPacket{epoch_, slot, msg.from, tag, seq,
                               static_cast<std::uint16_t>(msg.c), overheard});
    ++packets_;
    if (c_packets_ != nullptr) c_packets_->add();
    admitted_fresh_.push_back(i);
  }

  // ---- 3. Overhearing synthesis (slot mode): every active neighbour
  // whose drifted gain clears the threshold also heard the uplink and
  // reports it — duplicate traffic the window must suppress next epoch.
  if (params_.mode == Mode::kSlot && params_.neighbor_gain > 0.0) {
    const auto active = active_reader_ids();
    for (const std::size_t i : admitted_fresh_) {
      const BusMessage& primary = inbox_packets_[i];
      for (int x : active) {
        if (x == primary.from) continue;
        if (gain(x, static_cast<std::uint32_t>(primary.a), epoch_) <
            params_.overhear_threshold) {
          continue;
        }
        BusMessage dup = primary;
        dup.priority = 0;  // echoes yield to fresh reports
        bus_.publish(x, dup);
      }
    }
  }

  // ---- 4. Handoff decisions: ownership follows the structural link
  // gains, with hysteresis. The transfer itself travels the bus and is
  // applied at the next epoch's pre-phase (so one epoch is always decoded
  // under the old ownership — the in-flight window the tests cover).
  if (params_.mode == Mode::kSlot && params_.neighbor_gain > 0.0) {
    const auto active = active_reader_ids();
    for (auto& [tag, st] : tags_) {
      Shard* owner_shard = find_shard(st.owner);
      if (owner_shard == nullptr || !owner_shard->active) continue;
      int best = st.owner;
      double best_gain = gain(st.owner, tag, epoch_);
      const double owner_gain = best_gain;
      for (int x : active) {
        const double g = gain(x, tag, epoch_);
        if (g > best_gain + 1e-12) {
          best_gain = g;
          best = x;
        }
      }
      if (best != st.owner &&
          best_gain > owner_gain + params_.handoff_margin) {
        BusMessage m;
        m.topic = Topic::kHandoff;
        m.priority = 5;
        m.a = tag;
        m.b = static_cast<std::uint64_t>(best);
        m.c = epoch_;
        bus_.publish(st.owner, m);
      }
    }
  }

  // ---- 5. Fold shard-local counters and close the epoch.
  std::uint64_t muted = 0;
  for (auto& s : shards_) {
    muted += s->tdma_muted;
  }
  if (c_tdma_muted_ != nullptr && muted > tdma_muted_total_) {
    c_tdma_muted_->add(muted - tdma_muted_total_);
  }
  tdma_muted_total_ = muted;
  ++epoch_;
}

void FleetEngine::run_epochs(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    pre_phase();
    parallel_phase();
    collect_phase();
    if (h_epoch_ms_ != nullptr) h_epoch_ms_->record(wall_ms_since(t0));
  }
}

void FleetEngine::flush(std::size_t epochs) {
  for (std::size_t i = 0; i < epochs; ++i) {
    pre_phase();
    collect_phase();
  }
}

std::uint64_t FleetEngine::digest() const noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& p : log_) {
    mix(p.epoch);
    mix(static_cast<std::uint64_t>(p.slot));
    mix(static_cast<std::uint64_t>(p.reader));
    mix(p.tag);
    mix(p.seq);
    mix(p.channel);
    mix(p.overheard ? 1 : 0);
  }
  return h;
}

FleetEngine::Stats FleetEngine::stats() const {
  Stats s;
  s.epochs = epoch_;
  s.packets = packets_;
  s.dup_suppressed = dup_suppressed_;
  s.dup_passed = dup_passed_;
  s.handoffs = handoffs_;
  s.conflicts = conflicts_;
  s.tdma_muted = tdma_muted_total_;
  s.active_readers = active_reader_count();
  s.bus = bus_.stats();
  s.dedup = dedup_.stats();
  return s;
}

}  // namespace arachnet::fleet
