// Algorithm 1: linearizable active set with adaptive step complexity.
//
// A C-slot announcement array; each slot holds an owner item and the pool
// handle of an immutable *snapshot* — the set of owners of this slot and
// every slot above it. insert() claims the first ownerless slot with one
// CAS and climbs; remove() clears its slot and climbs; climb(i) walks from
// slot i down to slot 0, rebuilding `set[j] = set[j+1] + owner[j]` with a
// CAS. A level whose CAS succeeds is done; one whose CAS failed is tried
// once more, the f-array propagate (DESIGN.md §3.1): after two failures a
// rival has installed a snapshot read after this climber reached the level.
// getSet() is one load of slot 0's snapshot handle — O(1), as Theorem 5.2
// requires; insert/remove are O(set size + contention).
//
// The pseudocode's corner case (`announcements[C].set` above the top slot)
// is the reserved handle kNullIndex, which resolves to one permanently-empty
// process-local snapshot. That is what makes removals at the top slot
// actually drain: the top slot's snapshot is rebuilt from {} + its own
// owner. Every slot starts at kNullIndex too, so no pool slot is reserved.
//
// Snapshots are addressed by handle, never by pointer, so the slots have
// the same two placements as IndexPool and EbrDomain: owned (on this
// process's heap) or laid into a ShmArena, where processes mapping it at
// different bases share one set (core/shm_table.hpp, DESIGN.md §10).
//
// Snapshots are immutable once published; replaced snapshots are retired
// through EBR (readers hold a guard across their use of getSet results).
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>

#include "wfl/mem/arena.hpp"
#include "wfl/mem/ebr.hpp"
#include "wfl/util/align.hpp"
#include "wfl/util/assert.hpp"
#include "wfl/util/shm.hpp"

namespace wfl {

// Upper bound on members of one snapshot; also bounds the announcement
// array capacity C. 64 covers every experiment in this repo (κ per lock for
// the known-bounds algorithm, P for the adaptive variant).
inline constexpr std::uint32_t kMaxSetCap = 64;

template <typename T>
struct SetSnap {
  std::uint32_t count = 0;
  T items[kMaxSetCap];

  bool contains(T x) const {
    for (std::uint32_t i = 0; i < count; ++i) {
      if (items[i] == x) return true;
    }
    return false;
  }
};

// Shared memory-management context for all active sets of one lock space:
// climb() gets and returns every snapshot slot through it.
template <typename T>
struct SetMem {
  using Snap = SetSnap<T>;

  IndexPool<Snap>& pool;
  EbrDomain& ebr;
  // Optional per-process snapshot-slot caches, indexed by EBR pid and owned
  // by the lock space. When present, snapshot slots are allocated and
  // retired through the calling process's cache, so a steady-state attempt
  // touches no shared freelist line (lock spaces install these; standalone
  // sets — baselines, unit tests — run directly against the pool).
  CachePadded<SlotCache<Snap>>* caches = nullptr;
  // Optional stall handler for a pool that cannot grow (arena placement).
  // When present, an empty pool is not an abort: alloc() hands the wait to
  // the handler, which returns a slot once reclamation frees one
  // (DESIGN.md §10.3). The handler may exit and re-enter the caller's EBR
  // guard, so climb() allocates before it reads any snapshot handle.
  std::uint32_t (*on_empty)(void* ctx, int ebr_pid) = nullptr;
  void* on_empty_ctx = nullptr;

  SlotCache<Snap>* cache(int pid) {
    return caches == nullptr ? nullptr : &*caches[pid];
  }

  std::uint32_t alloc(int pid) {
    if (SlotCache<Snap>* c = cache(pid)) return c->alloc();
    if (on_empty == nullptr) return pool.alloc();
    const std::uint32_t idx = pool.try_alloc();
    return idx != kNullIndex ? idx : on_empty(on_empty_ctx, pid);
  }

  // Returns a never-published slot.
  void free(int pid, std::uint32_t idx) {
    if (SlotCache<Snap>* c = cache(pid)) return c->free(idx);
    pool.free(idx);
  }

  // Retires a replaced snapshot. With caches installed the expired slot
  // comes back to the retiring process's own cache (deleters run on the
  // retiring participant — see EbrDomain::retire/collect — or under
  // quiescent domain teardown).
  void retire(int pid, std::uint32_t idx) {
    if (SlotCache<Snap>* c = cache(pid)) {
      return ebr.retire(pid, c, idx, &SlotCache<Snap>::free_to_cache);
    }
    ebr.retire(pid, &pool, idx, &free_to_pool);
  }

  static void free_to_pool(void* ctx, std::uint32_t handle) {
    static_cast<IndexPool<Snap>*>(ctx)->free(handle);
  }
};

template <typename Plat, typename T>
class ActiveSet {
 public:
  using Snap = SetSnap<T>;

  // Owned placement: the slots live on this process's heap.
  ActiveSet(std::uint32_t capacity, SetMem<T>& mem)
      : capacity_(capacity),
        mem_(mem),
        own_(std::make_unique<Slot[]>(capacity)),
        slots_(own_.get()) {
    init_slots(slots_, capacity);
  }

  // Arena placement, creator side: lays `capacity` slots out in `a` and
  // returns their offset for any process to attach. Owners must be plain
  // words (a pointer means nothing in another mapping).
  static std::uint64_t create_in(ShmArena& a, std::uint32_t capacity) {
    static_assert(!std::is_pointer_v<T>,
                  "an arena-placed set needs address-free owner words");
    const std::uint64_t off = a.create<Layout>();
    Layout* l = a.at<Layout>(off);
    l->capacity = capacity;
    l->slots_off = a.create_array<Slot>(capacity);
    init_slots(a.at<Slot>(l->slots_off), capacity);
    return off;
  }

  // Arena placement, any process: resolves the slots at `off` against this
  // process's mapping. `mem` must hold the same arena's pool and domain.
  ActiveSet(const ShmArena& a, std::uint64_t off, SetMem<T>& mem)
      : capacity_(a.at<Layout>(off)->capacity),
        mem_(mem),
        slots_(a.at<Slot>(a.at<Layout>(off)->slots_off)) {}

  ActiveSet(const ActiveSet&) = delete;
  ActiveSet& operator=(const ActiveSet&) = delete;

  std::uint32_t capacity() const { return capacity_; }

  // Claims a slot for `item` and propagates. Returns the slot index (the
  // caller passes it back to remove()). Caller must hold an EBR guard for
  // `ebr_pid`. Aborts if the capacity contract (point contention <= C) is
  // violated beyond any transient amount.
  int insert(T item, int ebr_pid) {
    WFL_DASSERT(item != T{});
    // One pass almost always suffices under the contention contract; a CAS
    // can lose to a racing insert whose owner then frees a slot behind our
    // scan position, hence the bounded retry. The bound keeps wait-freedom
    // structural: exceeding it means the κ contract was violated.
    for (int pass = 0; pass < kMaxInsertPasses; ++pass) {
      for (std::uint32_t i = 0; i < capacity_; ++i) {
        if (slots_[i].owner.load() == T{} && slots_[i].owner.cas(T{}, item)) {
          climb(static_cast<int>(i), ebr_pid);
          return static_cast<int>(i);
        }
      }
    }
    WFL_CHECK_MSG(false,
                  "ActiveSet::insert found no free slot: point contention "
                  "exceeds the configured bound (kappa)");
    return -1;
  }

  // Clears the slot claimed by the previous insert and propagates.
  void remove(int slot, int ebr_pid) {
    WFL_CHECK(slot >= 0 && slot < static_cast<int>(capacity_));
    slots_[slot].owner.store(T{});
    climb(slot, ebr_pid);
  }

  // Removes `owner` from every slot it still claims and propagates: crash
  // recovery on behalf of an owner whose record of its slot indices died
  // with it. Bounded: one pass over the C slots.
  void evict(T owner, int ebr_pid) {
    WFL_DASSERT(owner != T{});
    for (std::uint32_t i = 0; i < capacity_; ++i) {
      if (slots_[i].owner.load() == owner) {
        slots_[i].owner.store(T{});
        climb(static_cast<int>(i), ebr_pid);
      }
    }
  }

  // O(1): returns the current slot-0 snapshot. Valid while the caller's EBR
  // guard (entered before this call) remains held.
  const Snap* get_set() { return &snap(slots_[0].set.load()); }

 private:
  static constexpr int kMaxInsertPasses = 8;
  static constexpr std::uint32_t kPoolLowWater = 64;
  static constexpr Snap kEmpty{};  // what the sentinel handle resolves to

  struct Slot {
    typename Plat::template Atomic<T> owner;
    typename Plat::template Atomic<std::uint32_t> set;
  };

  // The arena placement's shared part: the slot count and where the slots
  // are, as an offset.
  struct Layout {
    std::uint32_t capacity = 0;
    std::uint64_t slots_off = 0;
  };

  static void init_slots(Slot* slots, std::uint32_t capacity) {
    WFL_CHECK(capacity > 0 && capacity <= kMaxSetCap);
    for (std::uint32_t i = 0; i < capacity; ++i) {
      slots[i].owner.init(T{});
      slots[i].set.init(kNullIndex);
    }
  }

  const Snap& snap(std::uint32_t handle) {
    return handle == kNullIndex ? kEmpty : mem_.pool.at(handle);
  }

  // Rebuilds snapshots from slot i down to slot 0. A level is done once
  // one of its CASes succeeds; it is tried a second time only when the
  // first CAS failed (DESIGN.md §3.1).
  void climb(int i, int ebr_pid) {
    // Backpressure: when the snapshot pool runs low (e.g. a preempted
    // process is pinning the epoch), try to reclaim before allocating.
    if (mem_.pool.free_count() < kPoolLowWater) mem_.ebr.collect(ebr_pid);
    for (int j = i; j >= 0; --j) {
      for (int k = 0; k < 2; ++k) {
        // Allocate BEFORE reading the slots: a stall handler may bounce
        // the caller's EBR guard (SetMem::on_empty), and no handle read
        // under the old guard may be used after re-entry.
        const std::uint32_t fresh = mem_.alloc(ebr_pid);
        const std::uint32_t cur = slots_[j].set.load();
        const std::uint32_t above =
            j + 1 == static_cast<int>(capacity_) ? kNullIndex
                                                 : slots_[j + 1].set.load();
        const T member = slots_[j].owner.load();
        build(mem_.pool.at(fresh), snap(above), member);
        if (slots_[j].set.cas(cur, fresh)) {
          // The sentinel is never reclaimed.
          if (cur != kNullIndex) mem_.retire(ebr_pid, cur);
          break;
        }
        mem_.free(ebr_pid, fresh);  // never published
      }
    }
  }

  static void build(Snap& out, const Snap& above, T member) {
    WFL_CHECK(above.count <= kMaxSetCap);
    out.count = 0;
    for (std::uint32_t i = 0; i < above.count; ++i) {
      if (above.items[i] != member) out.items[out.count++] = above.items[i];
    }
    if (member != T{}) {
      WFL_CHECK_MSG(out.count < kMaxSetCap, "set snapshot overflow");
      out.items[out.count++] = member;
    }
  }

  std::uint32_t capacity_;
  SetMem<T>& mem_;
  std::unique_ptr<Slot[]> own_;  // owned placement only
  Slot* slots_;                  // own_, or the slots inside the arena
};

}  // namespace wfl
