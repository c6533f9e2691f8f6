#include "sim/event_queue.h"

#include <algorithm>
#include <limits>

#include "util/error.h"

namespace vc2m::sim {

namespace {

/// Heap order (std::*_heap keep the greatest on top): the entry that fires
/// later sinks. (when, seq) is a total order, so the heap's shape never
/// decides which of two events goes first.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.when != b.when ? a.when > b.when : a.seq > b.seq;
};

}  // namespace

EventQueue::Id EventQueue::schedule(util::Time when, EventFn fn) {
  VC2M_CHECK_MSG(when >= now_, "event scheduled in the past: " << when
                                                               << " < " << now_);
  VC2M_CHECK(fn != nullptr);
  std::uint32_t slot;
  if (free_.empty()) {
    VC2M_CHECK(slots_.size() < std::numeric_limits<std::uint32_t>::max());
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back({when, next_seq_++, slot, s.generation});
  std::push_heap(heap_.begin(), heap_.end(), kLater);
  return (Id{s.generation} << 32) | slot;
}

EventQueue::Id EventQueue::schedule_after(util::Time delay, EventFn fn) {
  return schedule(now_ + delay, std::move(fn));
}

bool EventQueue::cancel(Id id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  // Generations are never 0, so kInvalidId matches no slot.
  if (s.generation != static_cast<std::uint32_t>(id >> 32)) return false;
  s.fn = nullptr;
  retire(s);
  ++stale_;
  if (heap_.size() >= 64 && 2 * stale_ > heap_.size()) compact();
  return true;
}

bool EventQueue::run_one() {
  if (!settle()) return false;
  dispatch_top();
  return true;
}

void EventQueue::run_until(util::Time t) {
  VC2M_CHECK(t >= now_);
  while (settle() && heap_.front().when <= t) dispatch_top();
  now_ = t;
}

bool EventQueue::settle() {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (slots_[top.slot].generation == top.generation) return true;
    free_.push_back(top.slot);
    pop_top();
    --stale_;
  }
  return false;
}

void EventQueue::dispatch_top() {
  const Entry top = heap_.front();
  pop_top();
  now_ = top.when;
  // The slot is free again before the callback runs (which may schedule
  // into it); its Id is already spent, so the callback cannot cancel it.
  EventFn fn = std::move(slots_[top.slot].fn);
  retire(slots_[top.slot]);
  free_.push_back(top.slot);
  fn();
}

void EventQueue::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), kLater);
  heap_.pop_back();
}

void EventQueue::retire(Slot& s) {
  if (++s.generation == 0) s.generation = 1;
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const Entry& e) {
    if (slots_[e.slot].generation == e.generation) return false;
    free_.push_back(e.slot);
    return true;
  });
  stale_ = 0;
  std::make_heap(heap_.begin(), heap_.end(), kLater);
}

}  // namespace vc2m::sim
