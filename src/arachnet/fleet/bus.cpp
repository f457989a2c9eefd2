#include "arachnet/fleet/bus.hpp"

#include <algorithm>
#include <stdexcept>

namespace arachnet::fleet {

MessageBus::MessageBus(Params params, std::size_t publishers)
    : params_(params), outboxes_(publishers) {
  if (params_.capacity == 0) {
    throw std::invalid_argument("MessageBus: capacity must be nonzero");
  }
  if (auto* m = params_.metrics) {
    const auto n = [&](std::string_view name) {
      return telemetry::scoped_name(params_.metrics_scope, name);
    };
    c_published_ = &m->counter(n("bus.published"));
    c_delivered_ = &m->counter(n("bus.delivered"));
    c_displaced_ = &m->counter(n("bus.displaced"));
  }
}

void MessageBus::publish(int from, BusMessage msg) {
  auto& box = outboxes_.at(static_cast<std::size_t>(from));
  msg.from = from;
  msg.pub_seq = box.size();
  box.push_back(msg);
  if (c_published_ != nullptr) c_published_->add();  // atomic: parallel-safe
}

void MessageBus::commit() {
  delivered_.clear();
  for (auto& box : outboxes_) {
    delivered_.insert(delivered_.end(), box.begin(), box.end());
    box.clear();
  }
  stats_.published += delivered_.size();

  // Priority descending, then publisher id ascending, then publication
  // order: a strict total order, so std::sort needs no merge buffer and
  // the result is a pure function of what was published, never of
  // worker scheduling.
  std::sort(delivered_.begin(), delivered_.end(),
            [](const BusMessage& x, const BusMessage& y) {
              if (x.priority != y.priority) return x.priority > y.priority;
              if (x.from != y.from) return x.from < y.from;
              return x.pub_seq < y.pub_seq;
            });

  // Bounded delivery: the lowest-priority newest tail past `capacity` is
  // displaced (goby dynamic_buffer overflow policy).
  if (delivered_.size() > params_.capacity) {
    const std::size_t displaced = delivered_.size() - params_.capacity;
    delivered_.resize(params_.capacity);
    stats_.displaced += displaced;
    if (c_displaced_ != nullptr) c_displaced_->add(displaced);
  }
  stats_.delivered += delivered_.size();
  if (c_delivered_ != nullptr) c_delivered_->add(delivered_.size());
}

}  // namespace arachnet::fleet
