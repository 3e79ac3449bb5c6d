// Pending-event set for the Scheduler.
//
// The Scheduler's correctness contract lives here, not in any particular
// data structure: peek()/pop() must yield entries in strictly ascending
// (at, id) order — time first, then scheduling order among equal
// timestamps (the FIFO tie-break every determinism test depends on). Any
// implementation honoring that order produces byte-identical runs.
//
// Two implementations exist:
//  * CalendarEventQueue — the engine's queue: Brown's calendar queue, a
//    bucket wheel over the near future plus a min-heap overflow for
//    far-future timers. The simulator's event-horizon histogram
//    (prof::recordHorizon) is bimodal — microsecond-scale MAC/PHY events
//    dominate, with a thin tail of second-scale protocol timers — so almost
//    every event lands in the wheel and enqueue/dequeue are O(1) amortized.
//  * HeapEventQueue     — binary min-heap, O(log n) per op. A test oracle
//    only: the equivalence tests run it against the calendar queue.
//
// Determinism note for the calendar queue: bucket placement is a pure
// function of the entry's timestamp, min-selection within a bucket breaks
// ties by id, and equal timestamps always share a bucket — so its pop
// sequence is identical to the heap's, not merely equivalent.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/prof/profiler.h"
#include "src/sim/event_fn.h"
#include "src/sim/time.h"

namespace manet::sim {

using EventId = std::uint64_t;

/// One pending event. `id` is the Scheduler-issued sequence number that
/// doubles as the FIFO tie-break among equal timestamps.
struct EventEntry {
  Time at;
  EventId id = 0;
  EventFn fn;
  prof::Category cat = prof::Category::kOther;
};

/// Which EventQueue a Scheduler builds. kCalendar is the engine; kHeap
/// selects the test oracle. Not a tuning knob: both dispatch in identical
/// (time, id) order.
enum class EventQueueKind : std::uint8_t {
  kHeap,
  kCalendar,
};

/// Minimum-(at, id) priority queue of EventEntry.
class EventQueue {
 public:
  virtual ~EventQueue() = default;

  virtual void push(EventEntry e) = 0;
  /// The minimum entry by (at, id), or nullptr when empty. The pointer is
  /// invalidated by the next push/pop; callers may read but not mutate.
  virtual const EventEntry* peek() = 0;
  /// Remove and return the minimum entry. Precondition: !empty().
  virtual EventEntry pop() = 0;

  virtual std::size_t size() const = 0;
  bool empty() const { return size() == 0; }
  virtual const char* name() const = 0;
};

/// Binary min-heap over a contiguous vector (std::push_heap/pop_heap).
class HeapEventQueue final : public EventQueue {
 public:
  void push(EventEntry e) override;
  const EventEntry* peek() override;
  EventEntry pop() override;
  std::size_t size() const override { return heap_.size(); }
  const char* name() const override { return "heap"; }

 private:
  std::vector<EventEntry> heap_;
};

/// Calendar queue: `kBuckets` buckets of `kBucketWidth` simulated time
/// each cover a rolling near-future window; events beyond the window wait
/// in a min-heap and migrate into the wheel as the window advances past
/// them (each entry migrates at most once). A 64-bit occupancy bitmap
/// makes skipping empty buckets a countr_zero scan instead of a walk.
class CalendarEventQueue final : public EventQueue {
 public:
  /// 8192 buckets x 16.384 us ≈ a 134 ms window: wide enough that only
  /// second-scale protocol timers overflow, fine enough that a bucket
  /// rarely holds more than a handful of events under MAC load.
  static constexpr std::size_t kBuckets = 8192;  // power of two
  static constexpr std::int64_t kBucketWidthNs = 16384;

  void push(EventEntry e) override;
  const EventEntry* peek() override;
  EventEntry pop() override;
  std::size_t size() const override { return wheelSize_ + overflow_.size(); }
  const char* name() const override { return "calendar"; }

  /// Entries currently waiting in the far-future overflow heap (test and
  /// introspection hook; not part of the scheduling contract).
  std::size_t overflowSize() const { return overflow_.size(); }

 private:
  struct Cursor {
    std::size_t bucket = 0;  // index into buckets_
    std::size_t entry = 0;   // index into buckets_[bucket]
    bool valid = false;
  };

  /// Absolute bucket number (at / width) of the earliest un-popped time.
  std::int64_t curBucket_ = 0;
  std::vector<EventEntry> buckets_[kBuckets];
  std::uint64_t occupied_[kBuckets / 64] = {};
  std::size_t wheelSize_ = 0;
  std::vector<EventEntry> overflow_;  // min-heap by (at, id)
  /// Cache of the min location found by peek(), consumed by the following
  /// pop() so the Scheduler's peek-then-pop pattern searches once.
  Cursor cached_;

  void pushWheel(EventEntry&& e);
  void drainOverflow();
  /// Locate the minimum wheel entry at or after curBucket_; advances
  /// curBucket_ past empty buckets. Precondition: wheelSize_ > 0.
  Cursor findMin();
  void markOccupied(std::size_t b) { occupied_[b >> 6] |= 1ull << (b & 63); }
  void clearOccupied(std::size_t b) {
    occupied_[b >> 6] &= ~(1ull << (b & 63));
  }
};

/// Factory used by the Scheduler.
std::unique_ptr<EventQueue> makeEventQueue(EventQueueKind kind);

}  // namespace manet::sim
