// Shared wireless channel with a disc propagation model.
//
// Models the paper's WaveLAN radio: 2 Mb/s shared medium, 250 m nominal
// range. Every transmission is heard by all radios within range of the
// transmitter's position at transmission start; overlapping receptions at a
// radio corrupt each other (receiver-side collision), which is what makes
// hidden terminals, request storms and congestion behave realistically.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/mac/frame.h"
#include "src/net/packet.h"
#include "src/phy/neighbor_index.h"
#include "src/sim/scheduler.h"
#include "src/util/vec2.h"

namespace manet::phy {

struct PhyConfig {
  double rangeMeters = 250.0;   // nominal WaveLAN range
  double bitRateBps = 2e6;      // nominal WaveLAN bit rate
  /// Fixed per-frame physical-layer overhead (PLCP preamble + header time).
  sim::Time phyOverhead = sim::Time::micros(192);
  /// Propagation delay; 250 m at light speed is ~0.83 us.
  sim::Time propagationDelay = sim::Time::micros(1);
  /// Capture effect, as in the CMU ns-2 wireless PHY: an ongoing reception
  /// survives an overlapping arrival whose power is `captureThreshold`
  /// times weaker (power falls off as distance^-pathLossExponent).
  bool captureEffect = true;
  double captureThreshold = 10.0;  // ns-2 CPThresh
  double pathLossExponent = 4.0;   // two-ray ground regime at these ranges

  /// Which neighbor index the channel delivers broadcasts through: the
  /// grid, or the full-scan test oracle. Not a tuning knob: both produce
  /// byte-identical runs (the grid confirms candidates with exact distance
  /// checks and visits them in scan order).
  NeighborIndexKind neighborIndex = NeighborIndexKind::kGrid;
  /// Fastest node movement the grid plans for (m/s). Scenario raises it to
  /// the configured maxSpeed automatically; raise it manually when driving
  /// Network directly with faster custom mobility.
  double indexSpeedBound = 50.0;
  /// How stale grid buckets may get before a query triggers a re-bucket.
  sim::Time indexRefreshPeriod = sim::Time::seconds(1);
};

class Radio;
class Channel;

namespace detail {

/// One transmission's reception batch: a single copy of the frame plus every
/// radio that can hear it, in the neighbor index's attach order. Owned by
/// the Channel and recycled once the end event has run.
struct Delivery {
  struct Receiver {
    Radio* radio;
    double distance;  // sender distance at tx start (capture comparison)
  };
  std::uint64_t txId = 0;
  mac::Frame frame;
  std::vector<Receiver> receivers;
};

/// The two events a transmission schedules: reception start at every
/// receiver (tx start + propagation delay) and reception end (tx end +
/// propagation delay). Named types rather than lambdas so their size can be
/// checked against sim::EventFn's inline buffer.
struct RxStartBatch {
  Delivery* delivery;
  void operator()() const;
};
struct RxEndBatch {
  Channel* channel;
  Delivery* delivery;
  void operator()() const;
};

}  // namespace detail

class Channel {
 public:
  Channel(sim::Scheduler& sched, PhyConfig cfg)
      : sched_(sched),
        cfg_(cfg),
        index_(makeNeighborIndex(cfg.neighborIndex, sched, cfg.rangeMeters,
                                 cfg.indexSpeedBound,
                                 cfg.indexRefreshPeriod)) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Register a radio. The pointer must outlive the channel's use.
  void attach(Radio* r) { index_->attach(r); }

  /// The spatial index every neighbor query goes through — transmission
  /// delivery here, ground-truth link checks in metrics::LinkOracle,
  /// radio-wide sweeps in fault::FaultInjector.
  NeighborIndex& neighborIndex() { return *index_; }
  const NeighborIndex& neighborIndex() const { return *index_; }

  /// Begin transmitting `f` from `sender`; schedules one reception-start
  /// and one reception-end event covering every radio in range. Returns
  /// when the transmission will end.
  sim::Time transmit(Radio& sender, const mac::Frame& f);

  /// Carrier sense for `r`: true if any ongoing transmission (including its
  /// own) is audible at `r` right now.
  bool carrierBusy(const Radio& r) const;

  /// Latest end time among transmissions currently audible at `r`
  /// (now() if the medium is free). MAC uses this to re-defer.
  sim::Time busyUntil(const Radio& r) const;

  /// Airtime for a frame of `bytes` bytes, including PHY overhead.
  sim::Time txDuration(std::uint32_t bytes) const {
    return cfg_.phyOverhead +
           // manet-lint: allow(float-time): airtime from a constant bit rate;
           // fixed-op, same inputs -> same duration on every host.
           sim::Time::fromSeconds(static_cast<double>(bytes) * 8.0 /
                                  cfg_.bitRateBps);
  }

  const PhyConfig& config() const { return cfg_; }
  sim::Scheduler& scheduler() { return sched_; }

  // --- fault injection (src/fault/) ---
  /// Block the directed link from->to during [start, end): the receiver
  /// neither receives frames from, nor carrier-senses, that transmitter.
  /// Registering only one direction models an asymmetric link. Expired
  /// windows are pruned lazily; with none registered the cost is one
  /// empty-vector check per receiver.
  void addLinkBlackout(net::NodeId from, net::NodeId to, sim::Time start,
                       sim::Time end);
  /// True if from->to is inside an active blackout window at `t`.
  bool linkBlocked(net::NodeId from, net::NodeId to, sim::Time t) const;

 private:
  struct ActiveTx {
    const Radio* sender;
    Vec2 senderPos;
    sim::Time end;
  };

  struct Blackout {
    net::NodeId from;
    net::NodeId to;
    sim::Time start;
    sim::Time end;
  };

  friend struct detail::RxEndBatch;

  void prune() const;
  /// An idle delivery record (recycled, or a new one when none is idle).
  detail::Delivery* acquireDelivery();
  /// Drop the record's frame (and with it the payload reference) and make
  /// it available to the next transmission.
  void releaseDelivery(detail::Delivery* d);

  sim::Scheduler& sched_;
  PhyConfig cfg_;
  std::unique_ptr<NeighborIndex> index_;
  mutable std::vector<ActiveTx> active_;
  mutable std::vector<Blackout> blackouts_;
  std::uint64_t nextTxId_ = 1;
  /// Every delivery record ever created (at most the peak number of
  /// transmissions in flight at once), and the subset currently idle.
  std::vector<std::unique_ptr<detail::Delivery>> deliveries_;
  std::vector<detail::Delivery*> idleDeliveries_;
};

}  // namespace manet::phy
