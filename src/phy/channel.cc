#include "src/phy/channel.h"

#include <algorithm>

#include "src/phy/radio.h"

namespace manet::phy {

sim::Time Channel::transmit(Radio& sender, const mac::Frame& f) {
  const sim::Time now = sched_.now();
  const sim::Time dur = txDuration(f.bytes());
  const sim::Time end = now + dur;
  const Vec2 pos = sender.position();
  const std::uint64_t txId = nextTxId_++;

  prune();
  active_.push_back(ActiveTx{&sender, pos, end});

  detail::Delivery* d = acquireDelivery();
  // In-range tests use positions at transmission start. Frames last
  // microseconds; node movement within a frame is negligible (< 1 mm at
  // 20 m/s). The index visits receivers in attach (id) order, so delivery
  // ordering — and therefore every downstream tie-break — is identical
  // whichever index implementation is configured.
  index_->forEachInRange(
      pos, cfg_.rangeMeters, now, &sender, [&](Radio& r, double dist) {
        if (!blackouts_.empty() && linkBlocked(sender.id(), r.id(), now)) {
          return;
        }
        d->receivers.push_back(detail::Delivery::Receiver{&r, dist});
      });
  const auto inRange = static_cast<std::uint32_t>(d->receivers.size());
  // Fan-out tally: how many radios this broadcast had to examine versus how
  // many could actually hear it — the O(N) waste the grid index reclaims.
  if (prof::Profiler* p = sched_.profiler()) {
    p->recordFanout(static_cast<std::uint32_t>(index_->lastExamined()),
                    inRange);
  }
  if (inRange == 0) {
    releaseDelivery(d);
    return end;
  }
  // One event per edge of the transmission, each walking the receivers in
  // attach order. Dispatch matches one event per receiver exactly: those
  // would all be scheduled here, back to back at the same two timestamps,
  // so nothing else could run between them (see DESIGN.md).
  d->txId = txId;
  d->frame = f;  // the sender's copy may be reused
  sched_.scheduleAt(now + cfg_.propagationDelay, detail::RxStartBatch{d},
                    prof::Category::kPhy);
  sched_.scheduleAt(end + cfg_.propagationDelay, detail::RxEndBatch{this, d},
                    prof::Category::kPhy);
  return end;
}

void detail::RxStartBatch::operator()() const {
  for (const Delivery::Receiver& r : delivery->receivers) {
    r.radio->rxStart(delivery->txId, r.distance);
  }
}

void detail::RxEndBatch::operator()() const {
  for (const Delivery::Receiver& r : delivery->receivers) {
    r.radio->rxEnd(delivery->txId, delivery->frame);
  }
  channel->releaseDelivery(delivery);
}

detail::Delivery* Channel::acquireDelivery() {
  if (idleDeliveries_.empty()) {
    deliveries_.push_back(std::make_unique<detail::Delivery>());
    return deliveries_.back().get();
  }
  detail::Delivery* d = idleDeliveries_.back();
  idleDeliveries_.pop_back();
  return d;
}

void Channel::releaseDelivery(detail::Delivery* d) {
  d->frame = mac::Frame{};
  d->receivers.clear();
  idleDeliveries_.push_back(d);
}

bool Channel::carrierBusy(const Radio& r) const {
  prune();
  const sim::Time now = sched_.now();
  const Vec2 pos = r.position();
  for (const ActiveTx& tx : active_) {
    if (tx.sender == &r) return true;  // transmitting ourselves
    if (distance(tx.senderPos, pos) > cfg_.rangeMeters) continue;
    // A blacked-out link is inaudible to carrier sense too — jamming blinds
    // the receiver, it does not politely defer it.
    if (!blackouts_.empty() && linkBlocked(tx.sender->id(), r.id(), now)) {
      continue;
    }
    return true;
  }
  return false;
}

sim::Time Channel::busyUntil(const Radio& r) const {
  prune();
  const sim::Time now = sched_.now();
  sim::Time latest = now;
  const Vec2 pos = r.position();
  for (const ActiveTx& tx : active_) {
    if (tx.sender != &r) {
      if (distance(tx.senderPos, pos) > cfg_.rangeMeters) continue;
      if (!blackouts_.empty() && linkBlocked(tx.sender->id(), r.id(), now)) {
        continue;
      }
    }
    latest = std::max(latest, tx.end);
  }
  return latest;
}

void Channel::addLinkBlackout(net::NodeId from, net::NodeId to,
                              sim::Time start, sim::Time end) {
  blackouts_.push_back(Blackout{from, to, start, end});
}

bool Channel::linkBlocked(net::NodeId from, net::NodeId to,
                          sim::Time t) const {
  std::erase_if(blackouts_, [t](const Blackout& b) { return b.end <= t; });
  for (const Blackout& b : blackouts_) {
    if (b.from == from && b.to == to && b.start <= t) return true;
  }
  return false;
}

void Channel::prune() const {
  const sim::Time now = sched_.now();
  std::erase_if(active_, [now](const ActiveTx& tx) { return tx.end < now; });
}

}  // namespace manet::phy
