#include "sim/event_queue.h"

#include <algorithm>
#include <limits>

#include "util/error.h"

namespace vc2m::sim {

namespace {

/// Heap order: (when, seq) as one 128-bit key, a total order, so the
/// heap's shape never decides which of two events goes first.
template <class E>
bool earlier(const E& a, const E& b) {
  using Key = unsigned __int128;
  return ((Key{a.when} << 64) | a.seq) < ((Key{b.when} << 64) | b.seq);
}

constexpr std::size_t kArity = 4;

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
  s.in_lane = when == now_;
  if (s.in_lane)
    lane_.push_back({slot, s.generation});
  else
    push_heap({static_cast<std::uint64_t>(when.raw_ns()), next_seq_++, slot,
               s.generation});
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
  // A stale lane entry is dropped before the clock next advances.
  if (s.in_lane) return true;
  ++stale_;
  if (heap_.size() >= 64 && 2 * stale_ > heap_.size()) compact();
  return true;
}

void EventQueue::run_until(util::Time t) {
  VC2M_CHECK(t >= now_);
  while (dispatch_next(t)) {
  }
  now_ = t;
}

bool EventQueue::dispatch_next(util::Time t) {
  const bool heap_live = settle();
  const auto now = static_cast<std::uint64_t>(now_.raw_ns());
  // The heap's entries due now were scheduled before the lane's.
  if (heap_live && heap_.front().when == now) {
    dispatch_top();
  } else if (settle_lane()) {
    dispatch_lane();
  } else if (heap_live &&
             heap_.front().when <= static_cast<std::uint64_t>(t.raw_ns())) {
    dispatch_top();
  } else {
    return false;
  }
  return true;
}

bool EventQueue::settle() {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (slots_[top.slot].generation == top.generation) return true;
    free_.push_back(top.slot);
    pop_heap();
    --stale_;
  }
  return false;
}

bool EventQueue::settle_lane() {
  while (lane_head_ < lane_.size()) {
    const LaneEntry e = lane_[lane_head_];
    if (slots_[e.slot].generation == e.generation) return true;
    free_.push_back(e.slot);
    ++lane_head_;
  }
  lane_.clear();
  lane_head_ = 0;
  return false;
}

void EventQueue::dispatch_top() {
  const Entry top = heap_.front();
  pop_heap();
  now_ = util::Time::ns(static_cast<std::int64_t>(top.when));
  fire(top.slot);
}

void EventQueue::dispatch_lane() {
  const std::uint32_t slot = lane_[lane_head_++].slot;
  if (lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  }
  fire(slot);
}

void EventQueue::fire(std::uint32_t slot) {
  // The slot is free again before the callback runs (which may schedule
  // into it); its Id is already spent, so the callback cannot cancel it.
  EventFn fn = std::move(slots_[slot].fn);
  retire(slots_[slot]);
  free_.push_back(slot);
  fn();
}

void EventQueue::push_heap(Entry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::pop_heap() {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void EventQueue::sift_down(std::size_t i, Entry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < std::min(first + kArity, n); ++c)
      if (earlier(heap_[c], heap_[best])) best = c;
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
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
  for (std::size_t i = heap_.size(); i-- > 0;) sift_down(i, heap_[i]);
}

}  // namespace vc2m::sim
