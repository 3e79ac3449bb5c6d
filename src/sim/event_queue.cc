#include "src/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace manet::sim {

namespace {
/// Heap comparator: the entry popped first is the minimum by (at, id).
struct Later {
  bool operator()(const EventEntry& a, const EventEntry& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.id > b.id;  // FIFO among equal timestamps
  }
};
}  // namespace

// ------------------------------------------------------- HeapEventQueue

void HeapEventQueue::push(EventEntry e) {
  heap_.push_back(std::move(e));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

const EventEntry* HeapEventQueue::peek() {
  return heap_.empty() ? nullptr : &heap_.front();
}

EventEntry HeapEventQueue::pop() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  EventEntry e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

// --------------------------------------------------- CalendarEventQueue
//
// Invariants (N = kBuckets, w = kBucketWidthNs, abs(e) = e.at.ns() / w):
//  * curBucket_ <= abs(e) for every pending entry e, because curBucket_
//    only ever becomes abs(last popped entry), pops are in (at, id) order,
//    and the Scheduler never schedules into the past.
//  * Every wheel-resident entry has abs(e) < curBucket_ + N (enforced at
//    push and migration time), so each bucket holds entries of exactly one
//    absolute bucket number and the first occupied bucket in circular
//    order from curBucket_ is the one holding the minimum.
//  * Overflow entries have abs(e) >= curBucket_ + N *after drainOverflow*,
//    so when the wheel is non-empty its minimum beats the overflow top.

namespace {
/// Window limit in ns, saturating so a pop at Time::max() cannot overflow.
std::int64_t windowLimitNs(std::int64_t curBucket) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (curBucket > kMax / CalendarEventQueue::kBucketWidthNs -
                      static_cast<std::int64_t>(CalendarEventQueue::kBuckets)) {
    return kMax;
  }
  return (curBucket + static_cast<std::int64_t>(CalendarEventQueue::kBuckets)) *
         CalendarEventQueue::kBucketWidthNs;
}
}  // namespace

void CalendarEventQueue::push(EventEntry e) {
  assert(e.at.ns() / kBucketWidthNs >= curBucket_ &&
         "cannot schedule before the last popped event");
  cached_.valid = false;
  if (e.at.ns() >= windowLimitNs(curBucket_)) {
    overflow_.push_back(std::move(e));
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    return;
  }
  pushWheel(std::move(e));
}

void CalendarEventQueue::pushWheel(EventEntry&& e) {
  const auto b = static_cast<std::size_t>(
      (e.at.ns() / kBucketWidthNs) & static_cast<std::int64_t>(kBuckets - 1));
  buckets_[b].push_back(std::move(e));
  markOccupied(b);
  ++wheelSize_;
}

void CalendarEventQueue::drainOverflow() {
  const std::int64_t limitNs = windowLimitNs(curBucket_);
  while (!overflow_.empty() && overflow_.front().at.ns() < limitNs) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    EventEntry e = std::move(overflow_.back());
    overflow_.pop_back();
    pushWheel(std::move(e));
    cached_.valid = false;
  }
}

CalendarEventQueue::Cursor CalendarEventQueue::findMin() {
  assert(wheelSize_ > 0);
  // First occupied bucket in circular order from curBucket_: scan the
  // occupancy bitmap word-wise (start word masked below the start bit, and
  // revisited unmasked after a full wrap).
  constexpr std::size_t kWords = kBuckets / 64;
  const auto start = static_cast<std::size_t>(
      curBucket_ & static_cast<std::int64_t>(kBuckets - 1));
  std::size_t wi = start >> 6;
  std::uint64_t word = occupied_[wi] & (~0ull << (start & 63));
  std::size_t b = kBuckets;
  for (std::size_t step = 0; step <= kWords; ++step) {
    if (word != 0) {
      b = (wi << 6) + static_cast<std::size_t>(std::countr_zero(word));
      break;
    }
    wi = (wi + 1) & (kWords - 1);
    word = occupied_[wi];
  }
  assert(b < kBuckets && "occupancy bitmap out of sync with wheelSize_");
  const std::vector<EventEntry>& bucket = buckets_[b];
  std::size_t best = 0;
  for (std::size_t i = 1; i < bucket.size(); ++i) {
    const EventEntry& e = bucket[i];
    const EventEntry& m = bucket[best];
    if (e.at < m.at || (e.at == m.at && e.id < m.id)) best = i;
  }
  return Cursor{b, best, true};
}

const EventEntry* CalendarEventQueue::peek() {
  drainOverflow();
  if (wheelSize_ == 0) {
    return overflow_.empty() ? nullptr : &overflow_.front();
  }
  cached_ = findMin();
  return &buckets_[cached_.bucket][cached_.entry];
}

EventEntry CalendarEventQueue::pop() {
  drainOverflow();
  EventEntry out;
  if (wheelSize_ == 0) {
    assert(!overflow_.empty());
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    out = std::move(overflow_.back());
    overflow_.pop_back();
  } else {
    const Cursor c = cached_.valid ? cached_ : findMin();
    std::vector<EventEntry>& bucket = buckets_[c.bucket];
    out = std::move(bucket[c.entry]);
    // Swap-remove: order within a bucket is irrelevant because every pop
    // re-selects the minimum by (at, id).
    if (c.entry + 1 != bucket.size()) {
      bucket[c.entry] = std::move(bucket.back());
    }
    bucket.pop_back();
    if (bucket.empty()) clearOccupied(c.bucket);
    --wheelSize_;
  }
  cached_.valid = false;
  curBucket_ = out.at.ns() / kBucketWidthNs;
  return out;
}

// --------------------------------------------------------------- factory

std::unique_ptr<EventQueue> makeEventQueue(EventQueueKind kind) {
  switch (kind) {
    case EventQueueKind::kHeap:
      return std::make_unique<HeapEventQueue>();
    case EventQueueKind::kCalendar:
      return std::make_unique<CalendarEventQueue>();
  }
  return std::make_unique<CalendarEventQueue>();
}

}  // namespace manet::sim
