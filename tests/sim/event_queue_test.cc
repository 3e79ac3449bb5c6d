// EventQueue contract: both implementations must dispatch in strictly
// ascending (at, id) order — the FIFO-among-ties rule every determinism
// guarantee in the simulator rests on.
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/scheduler.h"

namespace manet::sim {
namespace {

/// A deterministic, clumpy timestamp sequence: bursts of equal and
/// near-equal times (MAC-like) plus occasional far-future timers.
std::vector<Time> workload(int n) {
  std::vector<Time> out;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    switch (x % 8) {
      case 0:
        out.push_back(Time::seconds(1 + static_cast<std::int64_t>(x % 20)));
        break;  // far-future timer (calendar overflow territory)
      case 1:
      case 2:
        out.push_back(Time::micros(static_cast<std::int64_t>(x % 50)));
        break;  // tie-heavy burst near t=0
      default:
        out.push_back(Time::micros(static_cast<std::int64_t>(x % 200000)));
        break;  // dense near future
    }
  }
  return out;
}

std::vector<std::pair<Time, EventId>> drain(EventQueue& q) {
  std::vector<std::pair<Time, EventId>> out;
  while (const EventEntry* top = q.peek()) {
    EXPECT_EQ(top->at, q.peek()->at);  // peek is stable
    EventEntry e = q.pop();
    out.emplace_back(e.at, e.id);
  }
  return out;
}

TEST(EventQueueTest, BothKindsPopIdenticalStrictlyOrderedSequences) {
  const std::vector<Time> times = workload(5000);
  auto heap = makeEventQueue(EventQueueKind::kHeap);
  auto cal = makeEventQueue(EventQueueKind::kCalendar);
  EventId id = 1;
  for (Time t : times) {
    heap->push(EventEntry{t, id, EventFn{}, prof::Category::kOther});
    cal->push(EventEntry{t, id, EventFn{}, prof::Category::kOther});
    ++id;
  }
  EXPECT_EQ(heap->size(), times.size());
  EXPECT_EQ(cal->size(), times.size());
  const auto a = drain(*heap);
  const auto b = drain(*cal);
  ASSERT_EQ(a.size(), times.size());
  ASSERT_EQ(a, b);
  for (std::size_t i = 1; i < a.size(); ++i) {
    const bool ordered = a[i - 1].first < a[i].first ||
                         (a[i - 1].first == a[i].first &&
                          a[i - 1].second < a[i].second);
    ASSERT_TRUE(ordered) << "disorder at " << i;
  }
}

TEST(EventQueueTest, InterleavedPushPopStaysOrderedOnBothKinds) {
  // Pops interleaved with pushes at ever-later times, as a simulation does.
  const std::vector<Time> times = workload(2000);
  for (EventQueueKind kind :
       {EventQueueKind::kHeap, EventQueueKind::kCalendar}) {
    auto q = makeEventQueue(kind);
    EventId id = 1;
    Time lastPopped = Time::zero();
    std::size_t pushed = 0;
    std::vector<std::pair<Time, EventId>> popped;
    while (popped.size() < times.size()) {
      while (pushed < times.size() && pushed < popped.size() * 2 + 8) {
        // Keep the sequence schedulable: times must be >= "now".
        q->push(EventEntry{lastPopped + times[pushed], id++, EventFn{},
                           prof::Category::kOther});
        ++pushed;
      }
      EventEntry e = q->pop();
      EXPECT_GE(e.at, lastPopped) << q->name() << " went backwards";
      lastPopped = e.at;
      popped.emplace_back(e.at, e.id);
    }
    EXPECT_TRUE(q->empty()) << q->name();
  }
}

TEST(EventQueueTest, CalendarRoutesFarTimersThroughOverflow) {
  CalendarEventQueue q;
  q.push(EventEntry{Time::seconds(30), 1, EventFn{}, prof::Category::kOther});
  q.push(EventEntry{Time::micros(5), 2, EventFn{}, prof::Category::kOther});
  EXPECT_EQ(q.overflowSize(), 1u);  // the 30 s timer is beyond the wheel
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().id, 2u);
  // Popping advances the window; the far timer is served (migrating into
  // the wheel or straight off the overflow heap) in correct order.
  EXPECT_EQ(q.pop().id, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, DefaultSchedulerRunsTheCalendarQueue) {
  // Unit tests build bare schedulers; they must exercise the queue that
  // scenario runs use, not the heap oracle.
  const Scheduler sched;
  EXPECT_STREQ(sched.queueName(), "calendar");
}

TEST(EventQueueTest, SchedulerBehavesIdenticallyOnBothQueues) {
  // The same scheduling program — ties, cascading reschedules, cancels —
  // must produce the same firing order and the same event ids.
  auto runProgram = [](EventQueueKind kind) {
    Scheduler sched(kind);
    std::vector<std::string> log;
    // Ties at t=10us, scheduled out of order.
    sched.scheduleAt(Time::micros(10), [&] { log.push_back("tie-a"); });
    sched.scheduleAt(Time::micros(5), [&] {
      log.push_back("early");
      // Cascade: schedule a tie for t=10us from inside a handler; FIFO
      // order puts it after the two pre-scheduled ties.
      sched.scheduleAt(Time::micros(10), [&] { log.push_back("tie-c"); });
      // And a far-future timer that later gets cancelled.
      const EventId doomed = sched.scheduleAt(
          Time::seconds(5), [&] { log.push_back("never"); });
      sched.scheduleAt(Time::seconds(2), [&, doomed] {
        log.push_back("cancel");
        sched.cancel(doomed);
      });
    });
    sched.scheduleAt(Time::micros(10), [&] { log.push_back("tie-b"); });
    EXPECT_STREQ(sched.queueName(),
                 kind == EventQueueKind::kHeap ? "heap" : "calendar");
    EXPECT_EQ(sched.nextEventAt(), Time::micros(5));
    sched.run();
    log.push_back("executed=" + std::to_string(sched.executedCount()));
    return log;
  };
  const auto heapLog = runProgram(EventQueueKind::kHeap);
  const auto calLog = runProgram(EventQueueKind::kCalendar);
  EXPECT_EQ(heapLog,
            (std::vector<std::string>{"early", "tie-a", "tie-b", "tie-c",
                                      "cancel", "executed=5"}));
  EXPECT_EQ(heapLog, calLog);
}

TEST(EventQueueTest, SchedulerIntrospectionIsQueueAgnostic) {
  for (EventQueueKind kind :
       {EventQueueKind::kHeap, EventQueueKind::kCalendar}) {
    Scheduler sched(kind);
    EXPECT_EQ(sched.nextEventAt(), Time::max());
    const EventId a = sched.scheduleAt(Time::millis(1), [] {});
    sched.scheduleAt(Time::millis(2), [] {});
    sched.scheduleAt(Time::seconds(9), [] {});  // calendar overflow
    EXPECT_EQ(sched.pendingCount(), 3u);
    EXPECT_EQ(sched.queueHighWater(), 3u);
    sched.cancel(a);
    EXPECT_EQ(sched.pendingCount(), 2u);
    EXPECT_EQ(sched.nextEventAt(), Time::millis(1));  // lazily cancelled
    sched.run();
    EXPECT_EQ(sched.executedCount(), 2u);
    EXPECT_EQ(sched.pendingCount(), 0u);
  }
}

}  // namespace
}  // namespace manet::sim
