#include "src/phy/neighbor_index.h"

#include <algorithm>
#include <cmath>

#include "src/phy/radio.h"
#include "src/prof/profiler.h"

namespace manet::phy {

// ------------------------------------------------------------ base class

void NeighborIndex::registerId(Radio* r) { byId_[r->id()] = r; }

Vec2 NeighborIndex::positionAt(net::NodeId id, sim::Time t) const {
  const Radio* r = byId_.at(id);
  // Trajectory evaluation is mobility work wherever it runs; charge it to
  // the queried node's per-entity row like every other position query.
  prof::Scope profScope(sched_.profiler(), prof::Category::kMobility,
                        static_cast<std::uint32_t>(id));
  return r->mobility().positionAt(t);
}

bool NeighborIndex::inRangeAt(net::NodeId a, net::NodeId b, sim::Time t,
                              double range) const {
  return distance(positionAt(a, t), positionAt(b, t)) <= range;
}

// ------------------------------------------------------------ full scan

void ScanNeighborIndex::attach(Radio* r) {
  registerId(r);
  radios_.push_back(r);
}

void ScanNeighborIndex::forEachInRange(const Vec2& pos, double range,
                                       sim::Time /*now*/,
                                       const Radio* exclude,
                                       RadioVisitor fn) const {
  std::size_t examined = 0;
  for (Radio* r : radios_) {
    if (r == exclude) continue;
    ++examined;
    const double d = distance(pos, r->positionQuiet());
    if (d > range) continue;
    fn(*r, d);
  }
  lastExamined_ = examined;
}

void ScanNeighborIndex::forEachRadio(
    const std::function<void(Radio&)>& fn) const {
  for (Radio* r : radios_) fn(*r);
}

// ------------------------------------------------------------ uniform grid

GridNeighborIndex::GridNeighborIndex(sim::Scheduler& sched, double cellRange,
                                     double speedBound,
                                     sim::Time refreshPeriod)
    : NeighborIndex(sched),
      // Cell size covers the query disc plus the worst drift between two
      // refreshes, so a 3x3 cell block around any query point always holds
      // every possible receiver.
      cellSize_(cellRange + speedBound * refreshPeriod.toSeconds()),
      speedBound_(speedBound),
      refreshPeriod_(refreshPeriod) {}

std::uint64_t GridNeighborIndex::cellKey(const Vec2& p, double cellSize) {
  const auto cx = static_cast<std::int64_t>(std::floor(p.x / cellSize));
  const auto cy = static_cast<std::int64_t>(std::floor(p.y / cellSize));
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
}

void GridNeighborIndex::attach(Radio* r) {
  registerId(r);
  const auto idx = static_cast<std::uint32_t>(slots_.size());
  const std::uint64_t key = cellKey(r->positionQuiet(), cellSize_);
  slots_.push_back(Slot{r, key});
  // Attach order is ascending, so push_back keeps each bucket sorted.
  cells_[key].push_back(idx);
}

void GridNeighborIndex::refresh(sim::Time now) const {
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    const std::uint64_t key = cellKey(s.radio->positionQuiet(), cellSize_);
    if (key == s.cell) continue;
    std::vector<std::uint32_t>& old = cells_[s.cell];
    old.erase(std::find(old.begin(), old.end(), i));
    std::vector<std::uint32_t>& fresh = cells_[key];
    fresh.insert(std::lower_bound(fresh.begin(), fresh.end(), i), i);
    s.cell = key;
  }
  lastRefresh_ = now;
  ++refreshes_;
}

void GridNeighborIndex::forEachInRange(const Vec2& pos, double range,
                                       sim::Time now, const Radio* exclude,
                                       RadioVisitor fn) const {
  if (now - lastRefresh_ >= refreshPeriod_) refresh(now);
  // A radio in range *now* was bucketed at most `slack` meters away from its
  // current position, so searching the cells within `range + slack` of the
  // query point yields a guaranteed superset of the true receiver set.
  const double slack = speedBound_ * (now - lastRefresh_).toSeconds();
  const double reach = range + slack;

  scratch_.clear();
  const auto cx0 = static_cast<std::int64_t>(std::floor((pos.x - reach) /
                                                        cellSize_));
  const auto cx1 = static_cast<std::int64_t>(std::floor((pos.x + reach) /
                                                        cellSize_));
  const auto cy0 = static_cast<std::int64_t>(std::floor((pos.y - reach) /
                                                        cellSize_));
  const auto cy1 = static_cast<std::int64_t>(std::floor((pos.y + reach) /
                                                        cellSize_));
  for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
      const auto it = cells_.find(key);
      if (it == cells_.end()) continue;
      scratch_.insert(scratch_.end(), it->second.begin(), it->second.end());
    }
  }
  // Buckets are individually sorted but interleave across cells; restore
  // global attach order so grid and scan visit receivers identically.
  std::sort(scratch_.begin(), scratch_.end());

  std::size_t examined = 0;
  for (const std::uint32_t idx : scratch_) {
    Radio& r = *slots_[idx].radio;
    if (&r == exclude) continue;
    ++examined;
    const double d = distance(pos, r.positionQuiet());
    if (d > range) continue;
    fn(r, d);
  }
  lastExamined_ = examined;
}

void GridNeighborIndex::forEachRadio(
    const std::function<void(Radio&)>& fn) const {
  for (const Slot& s : slots_) fn(*s.radio);
}

// ------------------------------------------------------------ factory

std::unique_ptr<NeighborIndex> makeNeighborIndex(NeighborIndexKind kind,
                                                 sim::Scheduler& sched,
                                                 double rangeMeters,
                                                 double speedBound,
                                                 sim::Time refreshPeriod) {
  if (kind == NeighborIndexKind::kGrid) {
    return std::make_unique<GridNeighborIndex>(sched, rangeMeters, speedBound,
                                               refreshPeriod);
  }
  return std::make_unique<ScanNeighborIndex>(sched);
}

}  // namespace manet::phy
