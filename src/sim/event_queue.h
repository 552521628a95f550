// Cancellable discrete-event queue.
//
// Events fire in (time, insertion-sequence) order, so two events scheduled for
// the same instant run in the order they were scheduled — this keeps runs
// deterministic. Cancellation is O(1): the slot is tombstoned (its callable is
// destroyed immediately, releasing captures) and the heap entry is skipped
// when it reaches the top.
//
// The heap is a 4-ary min-heap over plain {time, seq, slot} structs: roughly
// half the depth of a binary heap, sift-down children on one cache line, and
// no move-out-of-const workaround because the callables live in a side slot
// array, not in the heap entries. Slots are recycled through a free list; a
// per-slot generation makes stale EventIds (fired or cancelled long ago) fail
// Cancel cleanly instead of hitting the slot's next tenant.

#ifndef NESTSIM_SRC_SIM_EVENT_QUEUE_H_
#define NESTSIM_SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/sim/time.h"

namespace nestsim {

// Opaque handle to a scheduled event; obtained from Push, usable with Cancel.
// Handle 0 is never issued and may be used as "no event".
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run at absolute time `t`. `t` may be in the past
  // relative to other queued events; ordering is by (t, insertion order).
  // Inline: one Push per scheduled event — the simulator's innermost loop.
  EventId Push(SimTime t, EventFn fn) { return PushAtRank(t, next_seq_++, std::move(fn)); }

  // Takes one insertion rank out of the sequence without pushing anything.
  // An event later pushed with PushAtRank at that rank sorts exactly where a
  // Push made at reservation time would have: after every event pushed
  // before the reservation and before every event pushed after it, at equal
  // timestamps. A lazily generated stream that keeps at most one event
  // pending reuses one rank for all of them, and so fires in the order an
  // eager push of the whole stream at reservation time would give.
  uint64_t ReserveRank() { return next_seq_++; }

  // Push at a rank from ReserveRank. At most one event per rank may be
  // pending at a time (two would tie on (t, rank)).
  EventId PushAtRank(SimTime t, uint64_t rank, EventFn fn) {
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.live = true;
    ++live_;
    heap_.push_back(HeapEntry{t, rank, slot});
    SiftUp(heap_.size() - 1);
    return MakeId(s.gen, slot);
  }

  // Cancels a pending event. Returns true if the event was still pending.
  // Cancelling an already-fired or already-cancelled id returns false.
  bool Cancel(EventId id);

  // True if no live (non-cancelled) events remain.
  bool Empty() const { return live_ == 0; }

  // Number of live events.
  size_t Size() const { return live_; }

  // Time of the earliest live event. Precondition: !Empty().
  SimTime NextTime() {
    SkipCancelled();
    assert(!heap_.empty());
    return heap_[0].time;
  }

  // Removes and returns the earliest live event. Precondition: !Empty().
  struct Fired {
    SimTime time;
    EventId id;
    EventFn fn;
  };
  Fired Pop() {
    SkipCancelled();
    assert(!heap_.empty());
    const HeapEntry top = heap_[0];
    Slot& s = slots_[top.slot];
    Fired fired{top.time, MakeId(s.gen, top.slot), std::move(s.fn)};
    s.live = false;
    --live_;
    ReleaseSlot(top.slot);
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      SiftDown(0);
    }
    return fired;
  }

  // Drops every pending event.
  void Clear();

 private:
  struct HeapEntry {
    SimTime time;
    uint64_t seq;   // insertion order; the FIFO tie-break at equal times
    uint32_t slot;  // index into slots_
  };
  struct Slot {
    EventFn fn;
    uint32_t gen = 1;  // bumped on release; stale ids fail the gen check
    bool live = false;
  };

  static EventId MakeId(uint32_t gen, uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }

  static bool EarlierEntry(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.seq < b.seq;
  }

  static constexpr size_t kArity = 4;

  void SiftUp(size_t i) {
    HeapEntry entry = heap_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!EarlierEntry(entry, heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = entry;
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    HeapEntry entry = heap_[i];
    for (;;) {
      const size_t first_child = i * kArity + 1;
      if (first_child >= n) {
        break;
      }
      // Smallest of up to four children.
      size_t best = first_child;
      const size_t last_child = std::min(first_child + kArity, n);
      for (size_t c = first_child + 1; c < last_child; ++c) {
        if (EarlierEntry(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!EarlierEntry(heap_[best], entry)) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = entry;
  }

  // Pops tombstoned entries (and recycles their slots) off the heap top.
  void SkipCancelled() {
    while (!heap_.empty() && !slots_[heap_[0].slot].live) {
      ReleaseSlot(heap_[0].slot);
      heap_[0] = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) {
        SiftDown(0);
      }
    }
  }

  // Returns the entry's slot to the free list with a fresh generation.
  void ReleaseSlot(uint32_t slot) {
    Slot& s = slots_[slot];
    ++s.gen;
    free_slots_.push_back(slot);
  }

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 1;
  size_t live_ = 0;  // slots with live == true
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_SIM_EVENT_QUEUE_H_
