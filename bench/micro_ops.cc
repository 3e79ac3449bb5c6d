// Microbenchmarks (google-benchmark): hot-path costs of the simulator —
// cache operations, scheduler throughput, mobility queries and a whole
// small simulation measured in simulated-events per second.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/core/negative_cache.h"
#include "src/core/route_cache.h"
#include "src/mobility/mobility_model.h"
#include "src/mobility/waypoint.h"
#include "src/net/packet.h"
#include "src/net/packet_pool.h"
#include "src/phy/channel.h"
#include "src/phy/neighbor_index.h"
#include "src/phy/radio.h"
#include "src/prof/profiler.h"
#include "src/scenario/scenario.h"
#include "src/sim/rng.h"
#include "src/sim/scheduler.h"
#include "src/telemetry/trace.h"

namespace {

using namespace manet;

// Bare-scheduler throughput on the shipped (calendar) queue. Arg 0 is the
// event count; arg 1 selects the timer pattern: 0 = strictly increasing
// times, 1 = ties mixed with spread-out timers like a real MAC/timer mix
// (the calendar queue's bucket-sharing case).
void BM_SchedulerScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool tieMix = state.range(1) != 0;
  for (auto _ : state) {
    sim::Scheduler sched;
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      const std::int64_t us = tieMix ? (i * 7) % (n / 4 + 1) : i;
      sched.scheduleAt(sim::Time::micros(us), [&sum] { ++sum; });
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerScheduleRun)
    ->Args({1000, 0})
    ->Args({100000, 0})
    ->Args({100000, 1});

void BM_RouteCacheInsert(benchmark::State& state) {
  sim::Rng rng(1);
  std::vector<std::vector<net::NodeId>> paths;
  for (int i = 0; i < 256; ++i) {
    std::vector<net::NodeId> p{0};
    const int len = static_cast<int>(rng.uniformInt(1, 8));
    for (int j = 0; j < len; ++j) {
      net::NodeId next;
      do {
        next = static_cast<net::NodeId>(rng.uniformInt(1, 100));
      } while (std::find(p.begin(), p.end(), next) != p.end());
      p.push_back(next);
    }
    paths.push_back(std::move(p));
  }
  core::RouteCache cache(0, 128);
  std::size_t i = 0;
  for (auto _ : state) {
    ++i;
    cache.insert(paths[i % paths.size()],
                 sim::Time::micros(static_cast<std::int64_t>(i)));
    benchmark::DoNotOptimize(cache.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteCacheInsert);

void BM_RouteCacheFindRoute(benchmark::State& state) {
  sim::Rng rng(2);
  core::RouteCache cache(0, 128);
  for (int i = 0; i < 128; ++i) {
    std::vector<net::NodeId> p{0};
    for (int j = 0; j < 6; ++j) {
      p.push_back(static_cast<net::NodeId>(1 + i * 7 + j));
    }
    cache.insert(p, sim::Time::zero());
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto r = cache.findRoute(static_cast<net::NodeId>(1 + (i++ % 800)));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteCacheFindRoute);

void BM_RouteCacheRemoveLink(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::RouteCache cache(0, 128);
    for (int i = 0; i < 128; ++i) {
      cache.insert(std::vector<net::NodeId>{0, 1, static_cast<net::NodeId>(
                                                       2 + i)},
                   sim::Time::zero());
    }
    state.ResumeTiming();
    auto affected = cache.removeLink(net::LinkId{0, 1}, sim::Time::zero());
    benchmark::DoNotOptimize(affected);
  }
}
BENCHMARK(BM_RouteCacheRemoveLink);

void BM_NegativeCacheOps(benchmark::State& state) {
  core::NegativeCache neg(64, sim::Time::seconds(10));
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto now = sim::Time::millis(static_cast<std::int64_t>(i));
    neg.insert(net::LinkId{static_cast<net::NodeId>(i % 100),
                           static_cast<net::NodeId>((i + 1) % 100)},
               now);
    benchmark::DoNotOptimize(
        neg.contains(net::LinkId{static_cast<net::NodeId>((i / 2) % 100),
                                 static_cast<net::NodeId>((i / 2 + 1) % 100)},
                     now));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NegativeCacheOps);

// NegativeCache primitive costs in isolation (BM_NegativeCacheOps above
// measures the mixed insert+contains workload the DSR agent produces).
void BM_NegativeCacheInsert(benchmark::State& state) {
  core::NegativeCache neg(64, sim::Time::seconds(10));
  std::uint64_t i = 0;
  for (auto _ : state) {
    neg.insert(net::LinkId{static_cast<net::NodeId>(i % 64),
                           static_cast<net::NodeId>((i + 1) % 64)},
               sim::Time::millis(static_cast<std::int64_t>(i)));
    ++i;
    benchmark::DoNotOptimize(neg.rawSize());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NegativeCacheInsert);

void BM_NegativeCacheLookup(benchmark::State& state) {
  core::NegativeCache neg(64, sim::Time::seconds(10));
  const auto now = sim::Time::seconds(1);
  for (std::uint64_t i = 0; i < 64; ++i) {
    neg.insert(net::LinkId{static_cast<net::NodeId>(i),
                           static_cast<net::NodeId>(i + 1)},
               sim::Time::zero());
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    // Alternate hits and misses; no entry expires at t=1 s so contains()
    // never triggers a sweep and measures lookup alone.
    benchmark::DoNotOptimize(
        neg.contains(net::LinkId{static_cast<net::NodeId>(i % 128),
                                 static_cast<net::NodeId>(i % 128 + 1)},
                     now));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NegativeCacheLookup);

void BM_NegativeCacheExpirySweep(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::NegativeCache neg(128, sim::Time::seconds(10));
    for (std::uint64_t i = 0; i < 128; ++i) {
      neg.insert(net::LinkId{static_cast<net::NodeId>(i),
                             static_cast<net::NodeId>(i + 1)},
                 sim::Time::zero());
    }
    state.ResumeTiming();
    // All 128 entries are past their TTL: one full sweep.
    benchmark::DoNotOptimize(neg.size(sim::Time::seconds(20)));
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_NegativeCacheExpirySweep);

void BM_WaypointPositionQuery(benchmark::State& state) {
  mobility::RandomWaypoint::Params p;
  p.horizon = sim::Time::seconds(500);
  mobility::RandomWaypoint wp(sim::Rng(7), p);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wp.positionAt(sim::Time::millis(static_cast<std::int64_t>(
            (i++ * 37) % 500000))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WaypointPositionQuery);

scenario::ScenarioConfig smallSimConfig() {
  scenario::ScenarioConfig cfg;
  cfg.numNodes = 20;
  cfg.field = {800.0, 400.0};
  cfg.numFlows = 5;
  cfg.packetsPerSecond = 2.0;
  cfg.duration = sim::Time::seconds(10);
  cfg.mobilitySeed = 3;
  // Pin telemetry off regardless of MANET_* env so the baseline is stable.
  cfg.telemetry = telemetry::TelemetryConfig{};
  return cfg;
}

void BM_SmallSimulationEventsPerSec(benchmark::State& state) {
  for (auto _ : state) {
    const scenario::RunResult r = scenario::runScenario(smallSimConfig());
    state.counters["events"] = static_cast<double>(r.eventsExecuted);
    benchmark::DoNotOptimize(r.metrics.dataDelivered);
  }
}
BENCHMARK(BM_SmallSimulationEventsPerSec)->Unit(benchmark::kMillisecond);

// Same simulation with a ring sink attached: the cost of tracing when ON.
// Compare against BM_SmallSimulationEventsPerSec for the enabled overhead.
void BM_SmallSimulationTraced(benchmark::State& state) {
  for (auto _ : state) {
    scenario::ScenarioConfig cfg = smallSimConfig();
    cfg.telemetry.ringCapacity = 1 << 16;
    const scenario::RunResult r = scenario::runScenario(cfg);
    state.counters["events"] = static_cast<double>(r.eventsExecuted);
    benchmark::DoNotOptimize(r.metrics.dataDelivered);
  }
}
BENCHMARK(BM_SmallSimulationTraced)->Unit(benchmark::kMillisecond);

// The hook guard every trace site pays when tracing is disabled: a null
// check plus Tracer::enabled() (an empty-vector check). This is the cost
// added to the hot path when no sink is attached — it must stay ~free.
void BM_TracerDisabledHookGuard(benchmark::State& state) {
  telemetry::Tracer tracer;
  telemetry::Tracer* hook = &tracer;
  benchmark::DoNotOptimize(hook);
  std::uint64_t taken = 0;
  for (auto _ : state) {
    if (hook != nullptr && hook->enabled()) ++taken;
    benchmark::DoNotOptimize(taken);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerDisabledHookGuard);

// Cost of one enabled emit into the in-memory ring (record construction,
// dispatch, ring copy).
void BM_TracerRingEmit(benchmark::State& state) {
  telemetry::Tracer tracer;
  telemetry::RingBufferSink ring(4096);
  tracer.addSink(&ring);
  std::uint64_t i = 0;
  for (auto _ : state) {
    telemetry::TraceRecord r;
    r.at = sim::Time::micros(static_cast<std::int64_t>(++i));
    r.event = telemetry::TraceEvent::kPktForward;
    r.node = static_cast<net::NodeId>(i % 100);
    r.uid = i;
    r.src = 1;
    r.dst = 2;
    tracer.emit(r);
    benchmark::DoNotOptimize(ring.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerRingEmit);

// The guard a prof::Scope pays when profiling is off: a null/bool check,
// no clock read. This is what every tagged handler costs in normal runs.
void BM_ProfScopeDisabled(benchmark::State& state) {
  prof::Profiler prof(prof::ProfConfig{});  // enabled = false
  prof::Profiler* hook = &prof;
  benchmark::DoNotOptimize(hook);
  for (auto _ : state) {
    prof::Scope scope(hook, prof::Category::kMac);
    benchmark::DoNotOptimize(&scope);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfScopeDisabled);

// Full cost of one enabled scope: two clock reads plus a histogram record.
void BM_ProfScopeEnabled(benchmark::State& state) {
  prof::ProfConfig cfg;
  cfg.enabled = true;
  prof::Profiler prof(cfg);
  for (auto _ : state) {
    prof::Scope scope(&prof, prof::Category::kMac);
    benchmark::DoNotOptimize(&scope);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfScopeEnabled);

void BM_ProfHistogramRecord(benchmark::State& state) {
  prof::LatencyHistogram hist;
  std::uint64_t i = 0;
  for (auto _ : state) {
    hist.record((i++ * 2654435761u) & 0xFFFFF);  // spread across octaves
    benchmark::DoNotOptimize(hist.count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfHistogramRecord);

// Scheduler dispatch with a profiler installed and collecting — compare
// against BM_SchedulerScheduleRun for the per-event profiling overhead.
void BM_SchedulerDispatchProfiled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  prof::ProfConfig cfg;
  cfg.enabled = true;
  for (auto _ : state) {
    sim::Scheduler sched;
    prof::Profiler prof(cfg);
    sched.setProfiler(&prof);
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      sched.scheduleAt(sim::Time::micros(i), [&sum] { ++sum; },
                       prof::Category::kMac);
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerDispatchProfiled)->Arg(100000);

// --- Engine-core hot-path machinery (PR 10) -------------------------------

// Packet allocation through the pool (Packet::make's engine path).
void BM_PacketMakePooled(benchmark::State& state) {
  const bool saved = net::PacketPool::enabled();
  net::PacketPool::setEnabled(true);
  for (auto _ : state) {
    auto p = net::Packet::make();
    benchmark::DoNotOptimize(p);
  }
  net::PacketPool::setEnabled(saved);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketMakePooled);

// One neighborhood query against N radios: the grid visits only the
// candidate block around the transmitter.
void BM_NeighborQueryGrid(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Scheduler sched;
  phy::PhyConfig cfg;
  phy::Channel channel{sched, cfg};
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobs;
  std::vector<std::unique_ptr<phy::Radio>> radios;
  sim::Rng rng(42);
  for (int i = 0; i < n; ++i) {
    mobs.push_back(std::make_unique<mobility::StaticMobility>(
        Vec2{rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0)}));
    radios.push_back(std::make_unique<phy::Radio>(
        static_cast<net::NodeId>(i), *mobs.back(), channel, sched));
  }
  phy::GridNeighborIndex grid(sched, 250.0, 20.0, sim::Time::seconds(1));
  for (auto& r : radios) grid.attach(r.get());
  std::uint64_t i = 0;
  for (auto _ : state) {
    const phy::Radio& tx = *radios[i++ % radios.size()];
    std::uint64_t inRange = 0;
    grid.forEachInRange(tx.mobility().positionAt(sched.now()), 250.0,
                        sched.now(), &tx,
                        [&](phy::Radio&, double) { ++inRange; });
    benchmark::DoNotOptimize(inRange);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["radios"] = static_cast<double>(radios.size());
}
BENCHMARK(BM_NeighborQueryGrid)->Arg(50)->Arg(500);

}  // namespace

BENCHMARK_MAIN();
