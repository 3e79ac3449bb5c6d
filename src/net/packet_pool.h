// Per-thread freelist recycling packet allocations (Click-style).
//
// Every Packet lives in a shared_ptr, and the hot paths (originate, clone
// on forward, control-packet generation) were paying one heap round-trip
// per packet — the exact cost the AllocTracker's kPacket site was added to
// measure. The pool removes it: allocate_shared with PoolAllocator places
// the packet and its control block in one pooled slot, and freed slots go
// onto a freelist instead of back to the heap. Slots come from slabs of 64
// so steady-state traffic allocates nothing at all.
//
// Correctness properties:
//  * Determinism — recycling changes only addresses, never contents, and
//    nothing in the simulator orders by pointer value; pooled and
//    non-pooled runs are byte-identical (covered by tests/net).
//  * Symmetric deallocation — the enabled() gate is consulted only at
//    Packet::make / clone. allocate_shared embeds a copy of the allocator
//    in the control block, so a packet allocated from the pool frees into
//    the pool even if the flag is flipped mid-run.
//  * Thread safety — the pool is thread_local (one per sweep worker); a
//    packet must be released on the thread that made it, which holds
//    because a run executes wholly on one thread and packets never
//    outlive their run (Scenario owns everything transitively).
//
// Always enabled except under AddressSanitizer, where recycling would mask
// use-after-free of packet memory. setEnabled exists for tests, which run
// plain heap allocation as the oracle the pool must match; it is not a
// tuning knob.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace manet::net {

class PacketPool {
 public:
  /// Objects per slab: one ::operator new per 64 packets when growing.
  static constexpr std::size_t kSlabObjects = 64;

  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool();

  /// Process-wide switch, consulted only at allocation sites.
  static bool enabled();
  static void setEnabled(bool on);

  /// This thread's pool (created on first use).
  static PacketPool& local();

  /// A slot of at least `bytes` bytes (max_align_t aligned).
  void* acquire(std::size_t bytes);
  /// Return a slot obtained from acquire(`bytes`) on this thread.
  void release(void* p, std::size_t bytes) noexcept;

  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t releases = 0;
    std::uint64_t slabAllocs = 0;  // heap allocations actually performed
    std::size_t freeObjects = 0;   // slots currently on freelists
  };
  Stats stats() const;

 private:
  /// One freelist per distinct (rounded) allocation size. In practice the
  /// process sees a single size — the allocate_shared block for Packet —
  /// so the linear class lookup is one comparison.
  struct SizeClass {
    std::size_t bytes;
    std::vector<void*> free;   // LIFO freelist
    std::vector<void*> slabs;  // owned slab base pointers
  };

  SizeClass& classFor(std::size_t bytes);

  std::vector<SizeClass> classes_;
  std::uint64_t acquires_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t slabAllocs_ = 0;
};

/// Minimal std allocator over the thread's PacketPool, for allocate_shared.
/// Single-object allocations go through the pool; anything else (not used
/// by allocate_shared) falls back to the heap.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    if (n == 1) return static_cast<T*>(PacketPool::local().acquire(sizeof(T)));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1) {
      PacketPool::local().release(p, sizeof(T));
      return;
    }
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace manet::net
