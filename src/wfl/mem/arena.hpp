// Fixed-address object pools, on the heap or in a shared-memory arena.
//
// The lock algorithm allocates descriptors and immutable set snapshots on
// every attempt. The paper's model treats allocation as primitive, so pool
// operations use race::Atomic and are *not* counted as algorithm steps
// (DESIGN.md substitution #2); they are also excluded from the wait-freedom
// accounting, exactly as the paper excludes memory management.
//
// Design constraints:
//   * addresses must never move (helpers hold raw pointers across epochs),
//   * reclamation can stall for as long as any process is preempted inside
//     an EBR guard, so demand is unbounded by any static formula — the pool
//     must grow.
// Storage is therefore segmented: a fixed directory of segment pointers,
// segments allocated lazily under a mutex (rare slow path) and published
// with release stores; readers touch only immutable-once-published state.
// The freelist head packs (index:32, tag:32) into one 64-bit CAS; the tag
// increments on every pop, which removes the Treiber-stack ABA case. A
// per-slot membership bit turns a double free (or a pop of a slot that is
// not on the list) into an immediate abort. Exceeding max_capacity is a
// loud failure (leak or runaway workload), never UB.
//
// Two placements share every line of the freelist:
//   * owned (IndexPool(initial, max)): the shared State and the segments
//     live on this process's heap, and alloc() grows on demand;
//   * arena (create_in + IndexPool(arena, offset)): the State, the items
//     and the links are carved from a ShmArena at a fixed capacity and
//     addressed by byte offset, so every attached process — each with its
//     own mapping base — sees the same slots. The local segment directory
//     points into this process's mapping. Growth would need cross-process
//     agreement on new mappings, so an arena pool never grows: alloc()
//     aborts on exhaustion, and try_alloc() reports it for callers that
//     can apply backpressure (core/shm_table.hpp, DESIGN.md §10.3).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>

#include "wfl/check/race.hpp"
#include "wfl/util/align.hpp"
#include "wfl/util/assert.hpp"
#include "wfl/util/shm.hpp"

namespace wfl {

inline constexpr std::uint32_t kNullIndex = 0xFFFFFFFFu;

template <typename T>
class IndexPool {
 public:
  // Owned placement: pre-sizes to `initial_capacity`, grows to
  // `max_capacity`.
  explicit IndexPool(std::uint32_t initial_capacity,
                     std::uint32_t max_capacity = 1u << 22)
      : own_(std::make_unique<State>()), st_(own_.get()) {
    st_->max_capacity = round_up(max_capacity);
    WFL_CHECK(initial_capacity > 0 && initial_capacity <= st_->max_capacity);
    make_directory();
    while (capacity() < initial_capacity) {
      grow(/*force=*/true);  // pre-size: grow even though slots are free
    }
  }

  // Arena placement, creator side: lays out the State, `capacity` items
  // and their links in `a`, and links every slot onto the freelist (index
  // 0 pops first). Returns the State's offset for any process to attach.
  static std::uint64_t create_in(ShmArena& a, std::uint32_t capacity) {
    WFL_CHECK(capacity > 0 && capacity < kNullIndex);
    const std::uint64_t off = a.create<State>();
    State* st = a.at<State>(off);
    st->max_capacity = capacity;
    st->items_off = a.create_array<T>(capacity);
    st->links_off = a.create_array<Link>(capacity);
    st->capacity.store(capacity, std::memory_order_relaxed);
    IndexPool(a, off).push_fresh(0, capacity);
    return off;
  }

  // Arena placement, any process: resolves the State at `state_off`
  // against this process's mapping. Side-effect free on shared state.
  IndexPool(const ShmArena& a, std::uint64_t state_off)
      : st_(a.at<State>(state_off)) {
    make_directory();
    T* items = a.at<T>(st_->items_off);
    Link* links = a.at<Link>(st_->links_off);
    for (std::uint32_t s = 0; s < dir_size(); ++s) {
      items_dir_[s].store(items + (s << kSegBits), std::memory_order_relaxed);
      links_dir_[s].store(links + (s << kSegBits), std::memory_order_relaxed);
    }
  }

  IndexPool(const IndexPool&) = delete;
  IndexPool& operator=(const IndexPool&) = delete;

  ~IndexPool() {
    if (!own_) return;  // arena storage belongs to the arena
    for (std::uint32_t s = 0; s < dir_size(); ++s) {
      delete[] items_dir_[s].load(std::memory_order_relaxed);
      delete[] links_dir_[s].load(std::memory_order_relaxed);
    }
  }

  std::uint32_t capacity() const {
    return st_->capacity.load(std::memory_order_acquire);
  }

  std::uint32_t free_count() const {
    return st_->free_count.load(std::memory_order_relaxed);
  }

  // Number of shared-freelist transactions (successful pops/pushes, single
  // or batched) since construction. Diagnostic: the allocation-locality
  // tests assert this stays flat across a steady-state window, and
  // bench_hotpath reports it per attempt.
  std::uint64_t freelist_ops() const {
    return st_->freelist_ops.load(std::memory_order_relaxed);
  }

  // Pops a slot, growing an owned pool if the freelist is empty. Aborts at
  // max_capacity (a leak, not a transient condition) or, arena-placed, at
  // the fixed capacity.
  std::uint32_t alloc() {
    std::uint32_t idx = kNullIndex;
    (void)alloc_batch(&idx, 1);
    return idx;
  }

  // Pops a slot without growing; kNullIndex when the freelist is empty.
  // The count decides, not `idx`: a pop that lost its head CAS to the pop
  // that emptied the freelist has already written the stale head there.
  std::uint32_t try_alloc() {
    std::uint32_t idx = kNullIndex;
    return try_alloc_batch(&idx, 1) == 1 ? idx : kNullIndex;
  }

  // Pops up to `want` slots (>= 1), growing like alloc().
  std::uint32_t alloc_batch(std::uint32_t* out, std::uint32_t want) {
    for (;;) {
      const std::uint32_t got = try_alloc_batch(out, want);
      if (got > 0) return got;
      WFL_CHECK_MSG(own_ != nullptr,
                    "IndexPool exhausted: undersized arena pool or crash "
                    "leakage");
      grow();
    }
  }

  // Pops up to `want` slots with ONE head CAS by walking the freelist chain
  // and swinging the head past it. A successful CAS proves the (index, tag)
  // pair never changed, and every pop or push bumps the tag, so the chain
  // walked is exactly the chain popped; a failed CAS discards the walk
  // (stale next-pointers read during a lost race are valid-or-null indices,
  // never garbage — see free_batch()). Returns the number popped; 0 when
  // the freelist is empty (never grows — the backpressure signal). Only
  // out[0, returned) is meaningful: a lost race leaves its walk behind.
  std::uint32_t try_alloc_batch(std::uint32_t* out, std::uint32_t want) {
    WFL_DASSERT(want > 0);
    std::uint64_t head =
        st_->head.load(std::memory_order_acquire, Site::kPoolHeadLoad);
    while (index_of(head) != kNullIndex) {
      std::uint32_t got = 0;
      std::uint32_t idx = index_of(head);
      while (got < want && idx != kNullIndex) {
        out[got++] = idx;
        idx = link(idx).next.load(std::memory_order_relaxed,
                                  Site::kPoolNextLoad);
      }
      const std::uint64_t desired = pack(idx, tag_of(head) + 1);
      if (st_->head.compare_exchange_weak(head, desired,
                                          std::memory_order_acq_rel,
                                          Site::kPoolHeadCas)) {
        for (std::uint32_t i = 0; i < got; ++i) {
          WFL_CHECK_MSG(
              link(out[i]).listed.exchange(0, std::memory_order_acq_rel) == 1,
              "IndexPool popped a slot not on the freelist (corruption)");
        }
        st_->free_count.fetch_sub(got, std::memory_order_relaxed);
        st_->freelist_ops.fetch_add(1, std::memory_order_relaxed);
        return got;
      }
    }
    return 0;
  }

  void free(std::uint32_t idx) { free_batch(&idx, 1); }

  // Pushes `n` slots with ONE head CAS: links them into a private chain,
  // then splices the chain onto the head.
  void free_batch(const std::uint32_t* idxs, std::uint32_t n) {
    if (n == 0) return;
    for (std::uint32_t i = 0; i < n; ++i) {
      WFL_DASSERT(idxs[i] < capacity());
      WFL_CHECK_MSG(
          link(idxs[i]).listed.exchange(1, std::memory_order_acq_rel) == 0,
          "IndexPool double free");
    }
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      link(idxs[i]).next.store(idxs[i + 1], std::memory_order_relaxed,
                               Site::kPoolNextStore);
    }
    race::Atomic<std::uint32_t>& tail = link(idxs[n - 1]).next;
    std::uint64_t head =
        st_->head.load(std::memory_order_acquire, Site::kPoolHeadLoad);
    for (;;) {
      tail.store(index_of(head), std::memory_order_relaxed,
                 Site::kPoolNextStore);
      const std::uint64_t desired = pack(idxs[0], tag_of(head) + 1);
      if (st_->head.compare_exchange_weak(head, desired,
                                          std::memory_order_acq_rel,
                                          Site::kPoolHeadCas)) {
        st_->free_count.fetch_add(n, std::memory_order_relaxed);
        st_->freelist_ops.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  }

  T& at(std::uint32_t idx) {
    WFL_DASSERT(idx < capacity());
    T* seg = items_dir_[idx >> kSegBits].load(std::memory_order_acquire);
    WFL_DASSERT(seg != nullptr);
    return seg[idx & kSegMask];
  }
  const T& at(std::uint32_t idx) const {
    return const_cast<IndexPool*>(this)->at(idx);
  }

  T* ptr(std::uint32_t idx) { return &at(idx); }

 private:
  using Site = race::Site;

  static constexpr std::uint32_t kSegBits = 8;
  static constexpr std::uint32_t kSegSize = 1u << kSegBits;
  static constexpr std::uint32_t kSegMask = kSegSize - 1;

  // A slot's freelist link and its membership bit (1 = on the freelist).
  struct Link {
    race::Atomic<std::uint32_t> next{kNullIndex};
    std::atomic<std::uint8_t> listed{0};
  };

  // The shared half: everything every placement's accessors agree on. It
  // holds offsets, never pointers, so it can live in a ShmArena. Read-mostly
  // words share a line; the two words every pool transaction hammers — the
  // CAS'd head and the relaxed occupancy counters — each get a line of
  // their own so head CAS traffic does not invalidate the counters' line
  // and vice versa.
  struct State {
    std::uint32_t max_capacity = 0;
    std::uint64_t items_off = 0;  // arena placement: T[max_capacity]
    std::uint64_t links_off = 0;  // arena placement: Link[max_capacity]
    std::atomic<std::uint32_t> capacity{0};
    alignas(kCacheLine) race::Atomic<std::uint64_t> head{pack(kNullIndex, 0)};
    alignas(kCacheLine) std::atomic<std::uint32_t> free_count{0};
    std::atomic<std::uint64_t> freelist_ops{0};
  };

  static std::uint32_t round_up(std::uint32_t v) {
    return (v + kSegMask) & ~kSegMask;
  }
  static constexpr std::uint64_t pack(std::uint32_t idx, std::uint32_t tag) {
    return (static_cast<std::uint64_t>(tag) << 32) | idx;
  }
  static std::uint32_t index_of(std::uint64_t head) {
    return static_cast<std::uint32_t>(head & 0xFFFFFFFFu);
  }
  static std::uint32_t tag_of(std::uint64_t head) {
    return static_cast<std::uint32_t>(head >> 32);
  }

  std::uint32_t dir_size() const {
    return (st_->max_capacity + kSegMask) >> kSegBits;
  }

  void make_directory() {
    items_dir_ = std::make_unique<std::atomic<T*>[]>(dir_size());
    links_dir_ = std::make_unique<std::atomic<Link*>[]>(dir_size());
  }

  Link& link(std::uint32_t idx) {
    Link* seg = links_dir_[idx >> kSegBits].load(std::memory_order_acquire);
    return seg[idx & kSegMask];
  }

  // Pushes the never-listed slots [first, first + n) so that `first` pops
  // first and the rest follow in index order: applications use pool
  // indices as lock ids ("node i is protected by lock i") and size their
  // lock spaces by the indices they expect to see. Chunks go highest
  // first, one head CAS each.
  void push_fresh(std::uint32_t first, std::uint32_t n) {
    std::uint32_t chunk[kSegSize];
    for (std::uint32_t end = first + n; end > first;) {
      const std::uint32_t lo = end - first > kSegSize ? end - kSegSize : first;
      for (std::uint32_t i = lo; i < end; ++i) chunk[i - lo] = i;
      free_batch(chunk, end - lo);
      end = lo;
    }
  }

  // Slow path of an owned pool: appends one segment and pushes its slots
  // onto the freelist. `force` skips the refill re-check — used only by
  // the constructor's pre-sizing loop, where free slots must not stop
  // capacity growth.
  void grow(bool force = false) {
    std::lock_guard<std::mutex> lock(grow_mutex_);
    // Re-check under the lock: a concurrent grower may have refilled.
    if (!force && free_count() > 0) return;
    const std::uint32_t cap = st_->capacity.load(std::memory_order_relaxed);
    WFL_CHECK_MSG(cap < st_->max_capacity,
                  "IndexPool reached max_capacity: leak or runaway demand");
    const std::uint32_t seg = cap >> kSegBits;
    items_dir_[seg].store(new T[kSegSize](), std::memory_order_release);
    links_dir_[seg].store(new Link[kSegSize], std::memory_order_release);
    st_->capacity.store(cap + kSegSize, std::memory_order_release);
    push_fresh(cap, kSegSize);
  }

  std::unique_ptr<State> own_;  // owned placement only
  State* st_;                   // own_, or the State inside the arena
  std::unique_ptr<std::atomic<T*>[]> items_dir_;
  std::unique_ptr<std::atomic<Link*>[]> links_dir_;
  std::mutex grow_mutex_;
};

// A small owner-private LIFO of pool slots fronting a shared IndexPool.
// alloc() pops the cache and refills a batch (one head CAS) only when
// empty; free() pushes and spills the *coldest* batch (one head CAS) only
// when full — so a steady-state balanced alloc/free stream touches no
// shared freelist line at all. Single-owner by construction: the owning
// process allocates from it, and EBR deleters push into it only when run
// by that same process (retire/collect are per-participant) or during
// quiescent domain teardown. Like the pool itself, caches are outside the
// step model (DESIGN.md substitution #2).
//
// The cache always lives in the owner's private memory, whichever
// placement its pool has — only the slot indices it traffics in are
// meaningful across processes.
template <typename T, std::uint32_t Cap = 64>
class SlotCache {
  static_assert(Cap >= 8 && (Cap % 4) == 0);

 public:
  static constexpr std::uint32_t kBatch = Cap / 4;

  void bind(IndexPool<T>* pool) { pool_ = pool; }
  IndexPool<T>& pool() { return *pool_; }

  std::uint32_t alloc() {
    // Single-owner plain region: every access must be ordered against every
    // other (the owner's program order, or EBR's deleter-runs-on-owner).
    WFL_PLAIN_WRITE(&slots_[0], kSlotCacheBatch);
    if (n_ == 0) n_ = pool_->alloc_batch(slots_, kBatch);
    return slots_[--n_];
  }

  // Backpressure-aware variant: kNullIndex when the cache is empty and the
  // shared pool has nothing to refill from (never grows the pool).
  std::uint32_t try_alloc() {
    WFL_PLAIN_WRITE(&slots_[0], kSlotCacheBatch);
    if (n_ == 0) n_ = pool_->try_alloc_batch(slots_, kBatch);
    if (n_ == 0) return kNullIndex;
    return slots_[--n_];
  }

  void free(std::uint32_t idx) {
    WFL_PLAIN_WRITE(&slots_[0], kSlotCacheBatch);
    if (n_ == Cap) {
      pool_->free_batch(slots_, kBatch);  // spill the cold (bottom) end
      std::memmove(slots_, slots_ + kBatch,
                   (Cap - kBatch) * sizeof(std::uint32_t));
      n_ -= kBatch;
    }
    slots_[n_++] = idx;
  }

  // Returns every cached slot to the shared pool (session release, crash
  // cleanup — the allocation-locality tests assert nothing is leaked).
  void drain() {
    WFL_PLAIN_WRITE(&slots_[0], kSlotCacheBatch);
    pool_->free_batch(slots_, n_);
    n_ = 0;
  }

  std::uint32_t size() const { return n_; }

  // EbrDomain deleter that returns `handle` to the cache's spill side; ctx
  // is the retiring process's own SlotCache.
  static void free_to_cache(void* ctx, std::uint32_t handle) {
    static_cast<SlotCache*>(ctx)->free(handle);
  }

 private:
  IndexPool<T>* pool_ = nullptr;
  std::uint32_t n_ = 0;
  std::uint32_t slots_[Cap];
};

}  // namespace wfl
