// Discrete-event engine for the hypervisor simulator.
//
// Events fire in (time, insertion-sequence) order, so simultaneous events
// dispatch FIFO and the simulation is fully deterministic. Events are
// cancelable — the scheduler cancels a core's pending segment-end event
// whenever the core is rescheduled early.
//
// Storage: one binary min-heap of {when, seq, slot, generation} entries
// over a vector of reusable payload slots. An Id names a slot and the
// slot's generation at scheduling time. Firing or cancelling an event bumps
// its slot's generation, so a spent Id matches nothing (cancel returns
// false) until its slot has been reused 2^32 - 1 times, and the heap entry
// of a cancelled event is recognised as stale and skipped when it reaches
// the top. A slot goes back on the free list only once no heap entry
// refers to it, so each slot has at most one entry in the heap. Steady-
// state dispatch allocates nothing: slots, the free list and the heap keep
// their storage.
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

  /// Pop and dispatch the next event; advances the clock. Returns false if
  /// no event is pending.
  bool run_one();

  /// Dispatch every event with time <= t; the clock ends at exactly t.
  void run_until(util::Time t);

 private:
  struct Entry {
    util::Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Slot {
    EventFn fn;
    std::uint32_t generation = 1;  // never 0, so no Id equals kInvalidId
  };

  /// Drop cancelled entries off the top; true if a live event remains.
  bool settle();
  /// Pop the (live) top entry, advance the clock and run its callback.
  void dispatch_top();
  void pop_top();
  /// Invalidate the slot's Id; the slot is freed once its heap entry goes.
  void retire(Slot& s);
  /// Rebuild the heap without its stale entries (when they outnumber the
  /// live ones), so memory stays proportional to pending events.
  void compact();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t stale_ = 0;  // heap entries of cancelled events
  util::Time now_ = util::Time::zero();
  std::uint64_t next_seq_ = 0;
};

}  // namespace vc2m::sim
