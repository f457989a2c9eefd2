#include "arachnet/reader/service/reader_service.hpp"

#include <cmath>
#include <utility>

#include "arachnet/telemetry/log.hpp"

namespace arachnet::reader::service {

namespace {

/// Max blocks one dispatcher iteration hands to the pool.
constexpr std::size_t kMaxBatch = 16;

using telemetry::steady_now_ns;

std::size_t resolve_workers(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t resolve_max_sessions(double per_core, std::size_t workers) {
  const double budget = per_core * static_cast<double>(workers);
  const auto cap = static_cast<std::size_t>(std::llround(budget));
  return cap == 0 ? 1 : cap;
}

}  // namespace

ReaderService::ReaderService(Params params)
    : params_(params),
      workers_(resolve_workers(params.workers)),
      max_sessions_(resolve_max_sessions(params.sessions_per_core, workers_)),
      pool_(std::make_unique<dsp::WorkerPool>(workers_ - 1)),
      queue_(params.dispatch_capacity == 0 ? 4 * workers_
                                           : params.dispatch_capacity),
      groups_(kMaxBatch) {
  // A batch holds at most kMaxBatch blocks in at most kMaxBatch groups, so
  // sizing the scratch here keeps the dispatcher allocation-free however
  // deep a burst runs.
  batch_.reserve(kMaxBatch);
  expired_.reserve(kMaxBatch);
  for (auto& g : groups_) g.items.reserve(kMaxBatch);
  if (auto* m = params_.metrics) {
    const auto n = [&](std::string_view name) {
      return telemetry::scoped_name(params_.metrics_scope, name);
    };
    g_active_ = &m->gauge(n("session.active"));
    g_dispatch_depth_ = &m->gauge(n("service.dispatch_depth"));
    c_admission_rejected_ = &m->counter(n("session.admission_rejected"));
    c_shed_ = &m->counter(n("session.shed"));
    c_slots_reused_ = &m->counter(n("session.slots_reused"));
    c_blocks_ = &m->counter(n("service.blocks"));
    c_blocks_dropped_ = &m->counter(n("session.blocks_dropped"));
    c_blocks_expired_ = &m->counter(n("session.blocks_expired"));
    c_packets_emitted_ = &m->counter(n("reader.packets_emitted"));
    c_packets_dropped_ = &m->counter(n("reader.packets_dropped"));
    h_block_ms_ = &m->histogram(n("service.block_ms"), 0.0, 50.0, 250);
    h_stage_wait_ms_ =
        &m->histogram(n("service.stage.dispatch_wait_ms"), 0.0, 50.0, 250);
    h_stage_process_ms_ =
        &m->histogram(n("service.stage.process_ms"), 0.0, 50.0, 250);
    h_stage_emit_ms_ =
        &m->histogram(n("service.stage.emit_ms"), 0.0, 5.0, 250);
  }
}

ReaderService::~ReaderService() { stop(); }

void ReaderService::start() {
  if (stopped_ || dispatcher_.joinable()) return;
  ARACHNET_LOG_INFO("service", "starting reader service",
                    {"workers", workers_},
                    {"max_sessions", max_sessions_},
                    {"dispatch_capacity", queue_.capacity()});
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

void ReaderService::stop() {
  if (stopped_) return;
  stopped_ = true;
  queue_.close();  // dispatcher drains the remaining backlog, then exits
  if (dispatcher_.joinable()) dispatcher_.join();
  std::lock_guard lock{sessions_mutex_};
  for (auto& [id, s] : sessions_) {
    if (!s->closed.exchange(true)) --active_;
    s->output->close();
  }
  if (g_active_ != nullptr) g_active_->set(static_cast<double>(active_));
  ARACHNET_LOG_INFO("service", "reader service stopped",
                    {"blocks", blocks_processed_.load()},
                    {"packets", packets_emitted_.load()});
}

std::optional<SessionId> ReaderService::open_session(SessionConfig cfg) {
  std::lock_guard lock{sessions_mutex_};
  if (stopped_) {
    admissions_rejected_.fetch_add(1, std::memory_order_relaxed);
    if (c_admission_rejected_ != nullptr) c_admission_rejected_->add();
    return std::nullopt;
  }
  scavenge_locked();
  if (active_ >= max_sessions_) {
    // Over budget: shed the lowest-priority active session, newest on a
    // tie (established sessions outrank latecomers of equal priority) —
    // but only for a strictly higher-priority newcomer.
    Session* victim = nullptr;
    for (auto& [sid, s] : sessions_) {
      if (s->closed.load(std::memory_order_relaxed)) continue;
      if (victim == nullptr || s->cfg.priority < victim->cfg.priority ||
          (s->cfg.priority == victim->cfg.priority && s->id > victim->id)) {
        victim = s.get();
      }
    }
    if (victim == nullptr || victim->cfg.priority >= cfg.priority) {
      admissions_rejected_.fetch_add(1, std::memory_order_relaxed);
      if (c_admission_rejected_ != nullptr) c_admission_rejected_->add();
      return std::nullopt;
    }
    shed_locked(victim);
  }
  const SessionId id = next_id_++;
  std::unique_ptr<Session> slot;
  if (!free_slots_.empty()) {
    slot = std::move(free_slots_.back());
    free_slots_.pop_back();
    slot->reset(id, std::move(cfg));
    slots_reused_.fetch_add(1, std::memory_order_relaxed);
    if (c_slots_reused_ != nullptr) c_slots_reused_->add();
  } else {
    slot = std::make_unique<Session>(id, std::move(cfg));
  }
  sessions_.emplace(id, std::move(slot));
  ++active_;
  if (g_active_ != nullptr) g_active_->set(static_cast<double>(active_));
  return id;
}

bool ReaderService::close_session(SessionId id) {
  std::lock_guard lock{sessions_mutex_};
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  Session* s = it->second.get();
  if (!s->closed.exchange(true)) {
    --active_;
    if (g_active_ != nullptr) g_active_->set(static_cast<double>(active_));
  }
  // Nothing in flight: nobody else will close the output — do it here so
  // blocked consumers wake. Otherwise finish_block() closes on the last
  // landing block (seq_cst on closed/in_flight makes one side see the
  // other; both closing is harmless).
  if (s->in_flight.load() == 0) s->output->close();
  return true;
}

bool ReaderService::submit(SessionId id, Block block) {
  const std::uint64_t now = steady_now_ns();
  {
    std::lock_guard lock{sessions_mutex_};
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    Session* s = it->second.get();
    if (s->closed.load(std::memory_order_relaxed)) return false;
    s->blocks_submitted.fetch_add(1, std::memory_order_relaxed);
    if (s->in_flight.load(std::memory_order_relaxed) >=
        s->cfg.max_blocks_in_flight) {
      count_drop(s, /*expired=*/false);
      s->recycle_block(std::move(block));  // keep the producer's pool warm
      return false;
    }
    s->in_flight.fetch_add(1);
    const std::uint64_t ttl_ns =
        s->cfg.ttl_s <= 0.0
            ? 0
            : static_cast<std::uint64_t>(s->cfg.ttl_s * 1e9);
    std::optional<WorkItem> displaced;
    const auto outcome = queue_.push(WorkItem{s, std::move(block), now},
                                     s->cfg.priority, now, ttl_ns, &displaced);
    switch (outcome) {
      case DispatchQueue<WorkItem>::Push::kAccepted:
        break;
      case DispatchQueue<WorkItem>::Push::kDisplaced:
        // The evicted block's owner is charged the drop. Its Session* is
        // valid: a queued item held an in-flight credit, so the slot
        // cannot have been reaped (reaping needs in_flight == 0 under
        // this same mutex).
        drop_item(*displaced, /*expired=*/false);
        break;
      case DispatchQueue<WorkItem>::Push::kRejected:
      case DispatchQueue<WorkItem>::Push::kClosed:
        s->in_flight.fetch_sub(1);
        count_drop(s, /*expired=*/false);
        return false;
    }
  }
  if (g_dispatch_depth_ != nullptr) {
    g_dispatch_depth_->set(static_cast<double>(queue_.size()));
  }
  return true;
}

std::optional<RxPacket> ReaderService::poll_packet(SessionId id) {
  std::lock_guard lock{sessions_mutex_};
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return std::nullopt;
  return it->second->output->try_pop();
}

std::optional<RxPacket> ReaderService::wait_packet(SessionId id) {
  Session* s = nullptr;
  {
    std::lock_guard lock{sessions_mutex_};
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return std::nullopt;
    s = it->second.get();
    // Pin before dropping the map lock: the blocking pop below runs
    // unlocked, and a pinned slot is never reaped/reset underneath us.
    s->pinned.fetch_add(1);
  }
  auto pkt = s->output->pop();
  s->pinned.fetch_sub(1);
  return pkt;
}

ReaderService::Block ReaderService::acquire_block(SessionId id) {
  std::lock_guard lock{sessions_mutex_};
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return {};
  return it->second->acquire_block();
}

std::optional<SessionStats> ReaderService::session_stats(SessionId id) const {
  std::lock_guard lock{sessions_mutex_};
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return std::nullopt;
  return it->second->snapshot();
}

ReaderService::Stats ReaderService::stats() const {
  Stats st;
  {
    std::lock_guard lock{sessions_mutex_};
    st.active_sessions = active_;
  }
  st.max_sessions = max_sessions_;
  st.admissions_rejected =
      admissions_rejected_.load(std::memory_order_relaxed);
  st.sessions_shed = sessions_shed_.load(std::memory_order_relaxed);
  st.slots_reused = slots_reused_.load(std::memory_order_relaxed);
  st.blocks_processed = blocks_processed_.load(std::memory_order_relaxed);
  st.blocks_dropped = blocks_dropped_.load(std::memory_order_relaxed);
  st.blocks_expired = blocks_expired_.load(std::memory_order_relaxed);
  st.packets_emitted = packets_emitted_.load(std::memory_order_relaxed);
  st.packets_dropped = packets_dropped_.load(std::memory_order_relaxed);
  st.dispatch_depth = queue_.size();
  st.dispatch_capacity = queue_.capacity();
  return st;
}

void ReaderService::dispatch_loop() {
  for (;;) {
    batch_.clear();
    expired_.clear();
    // Fresh clock per iteration: when the queue is backlogged pop_batch
    // returns immediately, so TTL expiry is evaluated against "now".
    // (When it blocks on an empty queue, every item it wakes for was
    // pushed after this timestamp and so cannot have expired yet.)
    const std::uint64_t now = steady_now_ns();
    if (!queue_.pop_batch(kMaxBatch, now, &batch_, &expired_)) break;
    for (auto& item : expired_) drop_item(item, /*expired=*/true);
    if (!batch_.empty()) {
      // Group the batch by session, preserving per-session FIFO order.
      // One group = one pool task, so a session's chain is only ever
      // touched by one worker at a time. Linear scan: batches are small
      // (≤ kMaxBatch) and groups fewer still.
      std::size_t ngroups = 0;
      for (auto& item : batch_) {
        Group* g = nullptr;
        for (std::size_t i = 0; i < ngroups; ++i) {
          if (groups_[i].session == item.session) {
            g = &groups_[i];
            break;
          }
        }
        if (g == nullptr) {
          g = &groups_[ngroups++];
          g->session = item.session;
          g->items.clear();
        }
        g->items.push_back(std::move(item));
      }
      auto fn = [this](std::size_t i) { process_group(groups_[i]); };
      pool_->run(ngroups, fn);
    }
    if (g_dispatch_depth_ != nullptr) {
      g_dispatch_depth_->set(static_cast<double>(queue_.size()));
    }
  }
}

void ReaderService::process_group(Group& group) {
  Session* s = group.session;
  for (auto& item : group.items) {
    if (s->shed.load(std::memory_order_acquire)) {
      // Admission control force-closed this session after the block was
      // queued: abandon it (counted as dropped), don't burn pool time.
      drop_item(item, /*expired=*/false);
      continue;
    }
    // Stage attribution: dispatch-queue wait (submit -> here), chain
    // decode, packet emit.
    const std::uint64_t t_pickup = steady_now_ns();
    const std::size_t n = item.block.size();
    s->chain->process(item.block.data(), n);
    const std::uint64_t t_decoded = steady_now_ns();
    s->samples_processed.fetch_add(n, std::memory_order_relaxed);
    // Drain the chain's decode list every block (the RealtimeReader leak
    // discipline); the chain's own counters stay monotonic across the
    // clears.
    const auto& pkts = s->chain->packets();
    std::uint64_t emitted = 0;
    std::uint64_t dropped = 0;
    for (const auto& pkt : pkts) {
      if (s->output->try_push(pkt)) {
        ++emitted;
      } else {
        ++dropped;  // full or closed output: the consumer's loss, counted
      }
    }
    s->chain->clear_packets();
    if (emitted != 0) {
      s->packets_emitted.fetch_add(emitted, std::memory_order_relaxed);
      packets_emitted_.fetch_add(emitted, std::memory_order_relaxed);
      if (c_packets_emitted_ != nullptr) c_packets_emitted_->add(emitted);
    }
    if (dropped != 0) {
      s->packets_dropped.fetch_add(dropped, std::memory_order_relaxed);
      packets_dropped_.fetch_add(dropped, std::memory_order_relaxed);
      if (c_packets_dropped_ != nullptr) c_packets_dropped_->add(dropped);
    }
    s->blocks_processed.fetch_add(1, std::memory_order_relaxed);
    blocks_processed_.fetch_add(1, std::memory_order_relaxed);
    if (c_blocks_ != nullptr) c_blocks_->add();
    const std::uint64_t t_emitted = steady_now_ns();
    const std::uint64_t wait_ns = t_pickup - item.submit_ns;
    const std::uint64_t process_ns = t_decoded - t_pickup;
    const std::uint64_t emit_ns = t_emitted - t_decoded;
    if (h_block_ms_ != nullptr) {
      h_block_ms_->record(static_cast<double>(t_emitted - item.submit_ns) *
                          1e-6);
    }
    if (h_stage_wait_ms_ != nullptr) {
      h_stage_wait_ms_->record(static_cast<double>(wait_ns) * 1e-6);
    }
    if (h_stage_process_ms_ != nullptr) {
      h_stage_process_ms_->record(static_cast<double>(process_ns) * 1e-6);
    }
    if (h_stage_emit_ms_ != nullptr) {
      h_stage_emit_ms_->record(static_cast<double>(emit_ns) * 1e-6);
    }
    s->recycle_block(std::move(item.block));
    finish_block(s);
  }
}

void ReaderService::count_drop(Session* s, bool expired) {
  s->blocks_dropped.fetch_add(1, std::memory_order_relaxed);
  blocks_dropped_.fetch_add(1, std::memory_order_relaxed);
  if (c_blocks_dropped_ != nullptr) c_blocks_dropped_->add();
  if (expired) {
    s->blocks_expired.fetch_add(1, std::memory_order_relaxed);
    blocks_expired_.fetch_add(1, std::memory_order_relaxed);
    if (c_blocks_expired_ != nullptr) c_blocks_expired_->add();
  }
}

void ReaderService::drop_item(WorkItem& item, bool expired) {
  Session* s = item.session;
  count_drop(s, expired);
  s->recycle_block(std::move(item.block));
  finish_block(s);
}

void ReaderService::finish_block(Session* s) {
  // seq_cst on both atomics (Dekker-style): either this thread sees
  // closed == true and closes the output, or close_session() sees
  // in_flight == 0 and closes it there. Double-close is harmless.
  if (s->in_flight.fetch_sub(1) == 1 && s->closed.load()) {
    s->output->close();
  }
}

void ReaderService::shed_locked(Session* s) {
  s->shed.store(true);
  s->closed.store(true);
  // Close immediately: queued blocks are abandoned at dispatch, so no
  // more packets are coming; the consumer drains what was decoded and
  // gets nullopt.
  s->output->close();
  --active_;
  sessions_shed_.fetch_add(1, std::memory_order_relaxed);
  if (c_shed_ != nullptr) c_shed_->add();
  if (g_active_ != nullptr) g_active_->set(static_cast<double>(active_));
  ARACHNET_LOG_INFO("service", "session shed by admission control",
                    {"session", s->id}, {"priority", s->cfg.priority});
}

void ReaderService::scavenge_locked() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    Session* s = it->second.get();
    const bool reapable = s->closed.load() && s->in_flight.load() == 0 &&
                          s->pinned.load() == 0 && s->output->closed() &&
                          s->output->size() == 0;
    if (reapable) {
      if (free_slots_.size() < max_sessions_) {
        free_slots_.push_back(std::move(it->second));
      }
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace arachnet::reader::service
