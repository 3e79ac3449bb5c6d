// NeighborIndex contract: the grid must be an exact, order-preserving
// drop-in for the full scan — same radios visited, same distances, same
// (attach) order — with static and moving nodes, under lazy refreshes.
#include "src/phy/neighbor_index.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/mobility/mobility_model.h"
#include "src/phy/channel.h"
#include "src/phy/radio.h"
#include "src/sim/rng.h"
#include "src/sim/scheduler.h"

namespace manet::phy {
namespace {

using mobility::StaticMobility;
using sim::Scheduler;
using sim::Time;

/// Constant-velocity trajectory for staleness tests.
class LinearMobility final : public mobility::MobilityModel {
 public:
  LinearMobility(Vec2 start, Vec2 velocity) : start_(start), v_(velocity) {}
  Vec2 positionAt(Time t) const override {
    const double s = t.toSeconds();
    return {start_.x + v_.x * s, start_.y + v_.y * s};
  }

 private:
  Vec2 start_;
  Vec2 v_;
};

struct Fixture {
  Scheduler sched;
  PhyConfig cfg;  // radios need a channel; its own index is not under test
  Channel channel{sched, cfg};
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobs;
  std::vector<std::unique_ptr<Radio>> radios;

  Radio& addRadio(net::NodeId id, std::unique_ptr<mobility::MobilityModel> m) {
    mobs.push_back(std::move(m));
    radios.push_back(
        std::make_unique<Radio>(id, *mobs.back(), channel, sched));
    return *radios.back();
  }

  /// Attach every radio to `index` in id order (as Network does).
  void attachAll(NeighborIndex& index) {
    for (auto& r : radios) index.attach(r.get());
  }
};

/// (id, distance) visit log of one forEachInRange call.
std::vector<std::pair<net::NodeId, double>> query(const NeighborIndex& index,
                                                  const Vec2& pos,
                                                  double range, Time now,
                                                  const Radio* exclude) {
  std::vector<std::pair<net::NodeId, double>> out;
  index.forEachInRange(pos, range, now, exclude,
                       [&](Radio& r, double d) { out.emplace_back(r.id(), d); });
  return out;
}

TEST(NeighborIndexTest, GridMatchesScanOnRandomStaticTopologies) {
  sim::Rng rng(1234);
  for (int topo = 0; topo < 5; ++topo) {
    Fixture fx;
    const int n = 40;
    for (int i = 0; i < n; ++i) {
      fx.addRadio(static_cast<net::NodeId>(i),
                  std::make_unique<StaticMobility>(Vec2{
                      rng.uniform(0.0, 2200.0), rng.uniform(0.0, 600.0)}));
    }
    ScanNeighborIndex scan(fx.sched);
    GridNeighborIndex grid(fx.sched, 250.0, 20.0, Time::seconds(1));
    fx.attachAll(scan);
    fx.attachAll(grid);
    for (int q = 0; q < 50; ++q) {
      const Vec2 pos{rng.uniform(-100.0, 2300.0), rng.uniform(-100.0, 700.0)};
      const Radio* exclude =
          q % 3 == 0 ? fx.radios[static_cast<std::size_t>(q) % n].get()
                     : nullptr;
      const auto a = query(scan, pos, 250.0, Time::zero(), exclude);
      const auto b = query(grid, pos, 250.0, Time::zero(), exclude);
      ASSERT_EQ(a, b) << "topology " << topo << " query " << q;
      // The grid may examine fewer candidates, never more.
      EXPECT_LE(grid.lastExamined(), scan.lastExamined());
    }
  }
}

TEST(NeighborIndexTest, GridStaysExactWhileNodesMove) {
  Fixture fx;
  // Nodes sweeping in both directions at the speed bound, crossing cell
  // boundaries and each other's range repeatedly.
  const double kSpeed = 20.0;
  for (int i = 0; i < 20; ++i) {
    fx.addRadio(static_cast<net::NodeId>(i),
                std::make_unique<LinearMobility>(
                    Vec2{50.0 * i, 10.0 * i},
                    Vec2{i % 2 == 0 ? kSpeed : -kSpeed, 0.0}));
  }
  ScanNeighborIndex scan(fx.sched);
  GridNeighborIndex grid(fx.sched, 250.0, kSpeed, Time::seconds(1));
  fx.attachAll(scan);
  fx.attachAll(grid);
  for (int step = 1; step <= 40; ++step) {
    fx.sched.runUntil(Time::millis(250 * step));  // advances sim time
    const Time now = fx.sched.now();
    for (const auto& r : fx.radios) {
      const Vec2 pos = r->mobility().positionAt(now);
      ASSERT_EQ(query(scan, pos, 250.0, now, r.get()),
                query(grid, pos, 250.0, now, r.get()))
          << "step " << step << " around node " << r->id();
    }
  }
  // 10 s of queries against a 1 s refresh period: the lazy refresh must
  // have actually run (more than the initial bucketing, roughly once per
  // period).
  EXPECT_GE(grid.refreshCount(), 9u);
  EXPECT_LE(grid.refreshCount(), 42u);
}

TEST(NeighborIndexTest, ExactQueriesAgreeAcrossKinds) {
  sim::Rng rng(99);
  Fixture fx;
  for (int i = 0; i < 10; ++i) {
    fx.addRadio(static_cast<net::NodeId>(i),
                std::make_unique<StaticMobility>(
                    Vec2{rng.uniform(0.0, 800.0), rng.uniform(0.0, 800.0)}));
  }
  ScanNeighborIndex scan(fx.sched);
  GridNeighborIndex grid(fx.sched, 250.0, 20.0, Time::seconds(1));
  fx.attachAll(scan);
  fx.attachAll(grid);
  for (net::NodeId a = 0; a < 10; ++a) {
    const Vec2 pa = scan.positionAt(a, Time::zero());
    const Vec2 pb = grid.positionAt(a, Time::zero());
    EXPECT_EQ(pa.x, pb.x);
    EXPECT_EQ(pa.y, pb.y);
    for (net::NodeId b = 0; b < 10; ++b) {
      EXPECT_EQ(scan.inRangeAt(a, b, Time::zero(), 250.0),
                grid.inRangeAt(a, b, Time::zero(), 250.0));
    }
  }
}

TEST(NeighborIndexTest, ForEachRadioVisitsAllInAttachOrder) {
  Fixture fx;
  for (int i = 0; i < 7; ++i) {
    fx.addRadio(static_cast<net::NodeId>(i),
                std::make_unique<StaticMobility>(Vec2{100.0 * i, 0.0}));
  }
  for (NeighborIndexKind kind :
       {NeighborIndexKind::kScan, NeighborIndexKind::kGrid}) {
    auto index =
        makeNeighborIndex(kind, fx.sched, 250.0, 20.0, Time::seconds(1));
    fx.attachAll(*index);
    EXPECT_EQ(index->size(), 7u);
    std::vector<net::NodeId> seen;
    index->forEachRadio([&](Radio& r) { seen.push_back(r.id()); });
    EXPECT_EQ(seen, (std::vector<net::NodeId>{0, 1, 2, 3, 4, 5, 6}));
  }
}

TEST(NeighborIndexTest, FactoryBuildsEachKind) {
  Scheduler sched;
  EXPECT_STREQ(makeNeighborIndex(NeighborIndexKind::kScan, sched, 250.0, 20.0,
                                 Time::seconds(1))
                   ->name(),
               "scan");
  EXPECT_STREQ(makeNeighborIndex(NeighborIndexKind::kGrid, sched, 250.0, 20.0,
                                 Time::seconds(1))
                   ->name(),
               "grid");
}

}  // namespace
}  // namespace manet::phy
