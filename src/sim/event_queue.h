// Discrete-event engine for the hypervisor simulator.
//
// Events fire in (time, insertion-sequence) order, so simultaneous events
// dispatch FIFO and the simulation is fully deterministic. Events are
// cancelable — the scheduler cancels a core's pending segment-end event
// whenever the core is rescheduled early.
//
// Storage: a 4-ary min-heap of {when, seq, slot, generation} entries for
// events in the future, a FIFO lane of {slot, generation} entries for
// events scheduled at now(), and a vector of reusable payload slots.
//
// The lane keeps the order without a sequence number: a heap entry due at
// now() was scheduled before the clock reached now(), so it precedes every
// lane entry, which was scheduled at now(). Dispatch therefore runs the
// heap's entries due at now() first, then the lane front to back; the lane
// is empty whenever the clock advances.
//
// An Id names a slot and the slot's generation at scheduling time. Firing
// or cancelling an event bumps its slot's generation, so a spent Id matches
// nothing (cancel returns false) until its slot has been reused 2^32 - 1
// times, and the heap or lane entry of a cancelled event is recognised as
// stale and skipped when it is reached. A slot goes back on the free list
// only once no entry refers to it, so each slot has at most one entry.
// Steady-state dispatch allocates nothing: slots, the free list, the heap
// and the lane keep their storage.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.h"

namespace vc2m::sim {

class EventQueue {
 public:
  using EventFn = std::function<void()>;
  using Id = std::uint64_t;
  static constexpr Id kInvalidId = 0;

  /// Schedule `fn` at absolute time `when` (>= now()). Returns a handle
  /// usable with cancel().
  Id schedule(util::Time when, EventFn fn);

  /// Convenience: schedule at now() + delay.
  Id schedule_after(util::Time delay, EventFn fn);

  /// Cancel a pending event. Safe to call with kInvalidId or an id that
  /// already fired or was cancelled (no-op), also from inside a callback.
  /// Returns true iff a pending event was removed.
  bool cancel(Id id);

  util::Time now() const { return now_; }

  /// Dispatch every event with time <= t; the clock ends at exactly t.
  void run_until(util::Time t);

 private:
  struct Entry {
    std::uint64_t when;  // raw ns; never negative, as when >= now() >= 0
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct LaneEntry {
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Slot {
    EventFn fn;
    std::uint32_t generation = 1;  // never 0, so no Id equals kInvalidId
    bool in_lane = false;          // its entry is in the lane, not the heap
  };

  /// Drop cancelled entries off the heap top; true if a live one remains.
  bool settle();
  /// Drop cancelled entries off the lane front; true if a live one remains.
  bool settle_lane();
  /// Dispatch the next event if there is one due at or before `t`.
  bool dispatch_next(util::Time t);
  /// Pop the (live) heap top, advance the clock and run its callback.
  void dispatch_top();
  /// Pop the (live) lane front and run its callback.
  void dispatch_lane();
  /// Free the slot, spend its Id and run its callback.
  void fire(std::uint32_t slot);
  void push_heap(Entry e);
  void pop_heap();
  /// Place `e` at position `i` or below, restoring the heap order there.
  void sift_down(std::size_t i, Entry e);
  /// Invalidate the slot's Id; the slot is freed once its entry goes.
  void retire(Slot& s);
  /// Rebuild the heap without its stale entries (when they outnumber the
  /// live ones), so memory stays proportional to pending events.
  void compact();

  std::vector<Entry> heap_;
  std::vector<LaneEntry> lane_;
  std::size_t lane_head_ = 0;  // next lane entry to dispatch
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t stale_ = 0;  // heap entries of cancelled events
  util::Time now_ = util::Time::zero();
  std::uint64_t next_seq_ = 0;
};

}  // namespace vc2m::sim
