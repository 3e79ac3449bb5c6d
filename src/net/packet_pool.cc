#include "src/net/packet_pool.h"

#include "src/util/thread_annotations.h"

namespace manet::net {

namespace {

constexpr bool kAsanBuild =
#if defined(__SANITIZE_ADDRESS__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

/// Round to max_align_t so slab slots stay aligned for any packed object.
constexpr std::size_t roundUp(std::size_t bytes) {
  constexpr std::size_t a = alignof(std::max_align_t);
  return (bytes + a - 1) / a * a;
}

std::atomic<bool>& enabledFlag() {
  // manet-lint: allow(shared-mutable): process-wide switch, set only by
  // tests (to run the unpooled oracle) and benchmarks (to pin the pool on);
  // flipping it mid-run is safe because allocate_shared embeds the
  // allocator, making every packet's deallocation path independent of it.
  static std::atomic<bool> flag{!kAsanBuild};
  return flag;
}

}  // namespace

bool PacketPool::enabled() {
  return enabledFlag().load(std::memory_order_relaxed);
}

void PacketPool::setEnabled(bool on) {
  enabledFlag().store(on, std::memory_order_relaxed);
}

PacketPool& PacketPool::local() {
  // manet-lint: allow(shared-mutable): thread-local — each sweep worker
  // owns a private pool, and packets never cross run (thread) boundaries.
  static thread_local PacketPool t_pool;
  return t_pool;
}

PacketPool::~PacketPool() {
  for (SizeClass& c : classes_) {
    for (void* slab : c.slabs) ::operator delete(slab);
  }
}

PacketPool::SizeClass& PacketPool::classFor(std::size_t bytes) {
  for (SizeClass& c : classes_) {
    if (c.bytes == bytes) return c;
  }
  classes_.push_back(SizeClass{bytes, {}, {}});
  return classes_.back();
}

void* PacketPool::acquire(std::size_t bytes) {
  ++acquires_;
  SizeClass& c = classFor(roundUp(bytes));
  if (c.free.empty()) {
    ++slabAllocs_;
    auto* slab = static_cast<unsigned char*>(
        ::operator new(c.bytes * kSlabObjects));
    c.slabs.push_back(slab);
    c.free.reserve(c.free.size() + kSlabObjects);
    // Push in reverse so slots hand out in ascending address order.
    for (std::size_t i = kSlabObjects; i > 0; --i) {
      c.free.push_back(slab + (i - 1) * c.bytes);
    }
  }
  void* p = c.free.back();
  c.free.pop_back();
  return p;
}

void PacketPool::release(void* p, std::size_t bytes) noexcept {
  ++releases_;
  classFor(roundUp(bytes)).free.push_back(p);
}

PacketPool::Stats PacketPool::stats() const {
  Stats s;
  s.acquires = acquires_;
  s.releases = releases_;
  s.slabAllocs = slabAllocs_;
  for (const SizeClass& c : classes_) s.freeObjects += c.free.size();
  return s;
}

}  // namespace manet::net
