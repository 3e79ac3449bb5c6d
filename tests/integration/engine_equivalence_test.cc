// Engine-core equivalence: each hot-path machine of the engine — the grid
// neighbor index, the calendar event queue, and the packet pool — has a
// slow test oracle (full scan, binary heap, plain heap allocation). Against
// its oracle a run must stay byte-identical: same metrics, same event
// count, same trace contents.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/net/packet_pool.h"
#include "src/scenario/scenario.h"

namespace manet::scenario {
namespace {

using sim::Time;

ScenarioConfig baseCfg() {
  ScenarioConfig c;
  c.numNodes = 20;
  c.field = {900.0, 450.0};
  c.numFlows = 5;
  c.packetsPerSecond = 2.0;
  c.duration = Time::seconds(25);
  c.mobilitySeed = 7;
  c.telemetry = telemetry::TelemetryConfig{};
  c.telemetry.ringCapacity = 300000;
  c.fault = {};
  c.prof = {};
  return c;
}

struct Capture {
  RunResult result;
  std::vector<std::string> trace;  // canonicalized ring records
};

Capture run(const std::function<void(ScenarioConfig&)>& mutate) {
  ScenarioConfig c = baseCfg();
  mutate(c);
  Scenario s(c);
  Capture cap{s.run(), {}};
  // Canonicalize uids to first-appearance order, as the determinism tests
  // do (uid counters are thread-local, not scenario-local, under sweeps).
  std::map<std::uint64_t, std::uint64_t> ids;
  const auto ring = s.ring()->snapshot();
  EXPECT_LT(ring.size(), s.ring()->capacity()) << "ring wrapped; grow it";
  for (const auto& entry : ring) {
    telemetry::TraceRecord r = entry.rec;
    if (r.uid != 0) {
      r.uid = ids.emplace(r.uid, ids.size() + 1).first->second;
    }
    cap.trace.push_back(telemetry::toJson(r, entry.note));
  }
  return cap;
}

void expectIdentical(const Capture& a, const Capture& b) {
  EXPECT_EQ(a.result.eventsExecuted, b.result.eventsExecuted);
  EXPECT_EQ(a.result.metrics.dataOriginated, b.result.metrics.dataOriginated);
  EXPECT_EQ(a.result.metrics.dataDelivered, b.result.metrics.dataDelivered);
  EXPECT_EQ(a.result.metrics.delaySumSec, b.result.metrics.delaySumSec);
  EXPECT_EQ(a.result.metrics.totalDropped(), b.result.metrics.totalDropped());
  EXPECT_EQ(a.result.metrics.rreqTx, b.result.metrics.rreqTx);
  EXPECT_EQ(a.result.metrics.rrepTx, b.result.metrics.rrepTx);
  EXPECT_EQ(a.result.metrics.rerrTx, b.result.metrics.rerrTx);
  EXPECT_EQ(a.result.metrics.cacheHits, b.result.metrics.cacheHits);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_EQ(a.trace[i], b.trace[i]) << "first divergence at record " << i;
  }
}

TEST(EngineEquivalenceTest, DefaultConfigIgnoresRetiredEngineEnvVars) {
  // The engine has one configuration; the environment variables that used
  // to select the oracles must not reach a default ScenarioConfig.
  const char* names[] = {"MANET_PHY_INDEX", "MANET_EVENT_QUEUE"};
  std::optional<std::string> saved[2];
  for (int i = 0; i < 2; ++i) {
    if (const char* v = std::getenv(names[i])) saved[i] = v;
  }
  ::setenv("MANET_PHY_INDEX", "scan", 1);
  ::setenv("MANET_EVENT_QUEUE", "heap", 1);
  ScenarioConfig c;
  for (int i = 0; i < 2; ++i) {
    if (saved[i]) {
      ::setenv(names[i], saved[i]->c_str(), 1);
    } else {
      ::unsetenv(names[i]);
    }
  }
  EXPECT_EQ(c.phy.neighborIndex, phy::NeighborIndexKind::kGrid);
  EXPECT_EQ(c.eventQueue, sim::EventQueueKind::kCalendar);
}

TEST(EngineEquivalenceTest, ScanAndGridDeliverByteIdenticalRuns) {
  const Capture scan =
      run([](ScenarioConfig& c) { c.phy.neighborIndex = phy::NeighborIndexKind::kScan; });
  const Capture grid =
      run([](ScenarioConfig& c) { c.phy.neighborIndex = phy::NeighborIndexKind::kGrid; });
  EXPECT_GT(scan.result.metrics.dataDelivered, 0u);
  expectIdentical(scan, grid);
}

TEST(EngineEquivalenceTest, HeapAndCalendarQueuesRunByteIdentical) {
  const Capture heap =
      run([](ScenarioConfig& c) { c.eventQueue = sim::EventQueueKind::kHeap; });
  const Capture cal = run(
      [](ScenarioConfig& c) { c.eventQueue = sim::EventQueueKind::kCalendar; });
  EXPECT_GT(heap.result.metrics.dataDelivered, 0u);
  expectIdentical(heap, cal);
}

TEST(EngineEquivalenceTest, PacketPoolOnOffRunsByteIdentical) {
  const bool saved = net::PacketPool::enabled();
  net::PacketPool::setEnabled(false);
  const Capture off = run([](ScenarioConfig&) {});
  net::PacketPool::setEnabled(true);
  const Capture on = run([](ScenarioConfig&) {});
  net::PacketPool::setEnabled(saved);
  EXPECT_GT(off.result.metrics.dataDelivered, 0u);
  expectIdentical(off, on);
}

TEST(EngineEquivalenceTest, GridFanoutExaminesFarFewerRadiosThanScan) {
  // The fan-out histogram (PR 8) measured the scan's waste: every
  // transmission examined all N-1 radios. With the grid active, examined
  // must collapse toward the true in-range count while in-range itself —
  // part of the simulated outcome — stays exactly equal.
  auto profiled = [](phy::NeighborIndexKind kind) {
    return run([kind](ScenarioConfig& c) {
      // Sparse field: the 3x3 candidate block covers a small fraction of
      // the area, so the examined/in-range gap is unambiguous.
      c.numNodes = 60;
      c.field = {3000.0, 3000.0};
      c.duration = Time::seconds(15);
      c.phy.neighborIndex = kind;
      c.prof.enabled = true;
    });
  };
  const Capture scan = profiled(phy::NeighborIndexKind::kScan);
  const Capture grid = profiled(phy::NeighborIndexKind::kGrid);
  const prof::FanoutReport& fs = scan.result.profile.hotspot.fanout;
  const prof::FanoutReport& fg = grid.result.profile.hotspot.fanout;
  ASSERT_GT(fs.transmissions, 0u);
  EXPECT_EQ(fs.transmissions, fg.transmissions);
  EXPECT_EQ(fs.radiosInRange, fg.radiosInRange);
  // Scan examines everyone; that is its definition.
  EXPECT_EQ(fs.radiosExamined, fs.transmissions * 59);
  // The grid examines only the candidate block: a superset of in-range,
  // but far below the full scan.
  EXPECT_GE(fg.radiosExamined, fg.radiosInRange);
  EXPECT_LT(fg.radiosExamined * 2, fs.radiosExamined);
}

}  // namespace
}  // namespace manet::scenario
