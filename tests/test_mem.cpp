// Unit tests for the memory substrate: IndexPool and EbrDomain, each in
// both placements — owned (heap) and arena (ShmArena, DESIGN.md §10).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "wfl/mem/arena.hpp"
#include "wfl/mem/ebr.hpp"
#include "wfl/util/shm.hpp"

namespace wfl {
namespace {

// The two placements behind one factory surface, so each typed test body
// runs unchanged against both.
struct HeapPlacement {
  static constexpr const char* kName = "Heap";
  template <typename T>
  std::unique_ptr<IndexPool<T>> pool(std::uint32_t capacity) {
    return std::make_unique<IndexPool<T>>(capacity);
  }
  std::unique_ptr<EbrDomain> ebr(int max_participants) {
    return std::make_unique<EbrDomain>(max_participants);
  }
};

struct ArenaPlacement {
  static constexpr const char* kName = "Arena";
  ShmArena arena = ShmArena::create_anon(8u << 20);
  template <typename T>
  std::unique_ptr<IndexPool<T>> pool(std::uint32_t capacity) {
    return std::make_unique<IndexPool<T>>(
        arena, IndexPool<T>::create_in(arena, capacity));
  }
  std::unique_ptr<EbrDomain> ebr(int max_participants) {
    return std::make_unique<EbrDomain>(
        arena, EbrDomain::create_in(arena, max_participants));
  }
};

struct PlacementName {
  template <typename P>
  static std::string GetName(int) {
    return P::kName;
  }
};

using Placements = ::testing::Types<HeapPlacement, ArenaPlacement>;

template <typename P>
class PoolTest : public ::testing::Test {
 protected:
  template <typename T>
  std::unique_ptr<IndexPool<T>> make_pool(std::uint32_t capacity) {
    return place_.template pool<T>(capacity);
  }
  P place_;
};
TYPED_TEST_SUITE(PoolTest, Placements, PlacementName);

template <typename P>
class EbrTest : public PoolTest<P> {
 protected:
  std::unique_ptr<EbrDomain> make_ebr(int max_participants) {
    return this->place_.ebr(max_participants);
  }
};
TYPED_TEST_SUITE(EbrTest, Placements, PlacementName);

TYPED_TEST(PoolTest, AllocatesDistinctIndices) {
  auto pool = this->template make_pool<int>(16);
  const std::uint32_t cap = pool->capacity();
  std::set<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < cap; ++i) {
    const std::uint32_t idx = pool->alloc();
    EXPECT_TRUE(seen.insert(idx).second);
    pool->at(idx) = static_cast<int>(i);
  }
  EXPECT_EQ(pool->free_count(), 0u);
}

TYPED_TEST(PoolTest, FreeMakesSlotReusable) {
  auto pool = this->template make_pool<int>(2);
  const std::uint32_t a = pool->alloc();
  const std::uint32_t b = pool->alloc();
  const std::uint32_t before = pool->free_count();
  pool->free(a);
  const std::uint32_t c = pool->alloc();
  EXPECT_EQ(c, a);  // LIFO freelist
  pool->free(b);
  pool->free(c);
  EXPECT_EQ(pool->free_count(), before + 2);
}

TYPED_TEST(PoolTest, ConcurrentAllocFreeKeepsSlotsUnique) {
  // 4 threads churn alloc/free; at no instant may two threads hold the same
  // index. Detected by stamping ownership into the slot.
  auto pool = this->template make_pool<std::atomic<int>>(64);
  std::atomic<bool> failed{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < 20000; ++i) {
        const std::uint32_t idx = pool->alloc();
        int expected = 0;
        if (!pool->at(idx).compare_exchange_strong(expected, t + 1)) {
          failed.store(true);
        }
        pool->at(idx).store(0);
        pool->free(idx);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_FALSE(failed.load()) << "two threads held the same pool slot";
  EXPECT_EQ(pool->free_count(), pool->capacity());
}

// try_alloc on a nearly drained pool: 4 threads contend for the last 3
// free slots, so pops keep losing their head CAS to the pop that empties
// the freelist. Such a pop must report kNullIndex, never the stale head it
// walked (the slot another thread now owns). Ownership is stamped into the
// slot, as above; a stale pop that slips past the stamp is caught by the
// double-free check when both owners free it.
TYPED_TEST(PoolTest, ConcurrentTryAllocOnANearlyEmptyPoolKeepsSlotsUnique) {
  auto pool = this->template make_pool<std::atomic<int>>(64);
  const std::uint32_t cap = pool->capacity();
  for (std::uint32_t i = 0; i + 3 < cap; ++i) (void)pool->alloc();
  std::atomic<int> ready{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < 4) {
      }
      for (int i = 0; i < 1'000'000; ++i) {
        const std::uint32_t idx = pool->try_alloc();
        if (idx == kNullIndex) continue;
        int expected = 0;
        if (!pool->at(idx).compare_exchange_strong(expected, t + 1)) {
          failed.store(true);
          return;  // not ours to free
        }
        pool->at(idx).store(0);
        pool->free(idx);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_FALSE(failed.load()) << "two threads held the same pool slot";
  EXPECT_EQ(pool->free_count(), 3u);
}

// Regression: allocation hands out *low* indices first. Applications use
// pool indices as lock ids ("node i is protected by lock i") and size
// their lock spaces accordingly; a pool that popped from the top of each
// fresh segment would hand index 255 to the first caller.
TYPED_TEST(PoolTest, FreshPoolAllocatesLowIndicesFirst) {
  auto pool = this->template make_pool<int>(64);
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(pool->alloc(), i);
  }
}

// The per-slot membership bit turns a double free — single or batched —
// into an abort instead of a freelist cycle.
TYPED_TEST(PoolTest, DoubleFreeAborts) {
  auto pool = this->template make_pool<int>(8);
  const std::uint32_t a = pool->alloc();
  const std::uint32_t b = pool->alloc();
  pool->free(a);
  EXPECT_DEATH(pool->free(a), "double free");
  const std::uint32_t batch[] = {a, b};
  EXPECT_DEATH(pool->free_batch(batch, 2), "double free");
}

TEST(IndexPool, GrowsOnDemandWithStableAddresses) {
  IndexPool<int> pool(256, /*max_capacity=*/4096);
  std::vector<std::uint32_t> held;
  std::vector<int*> addrs;
  // Exhaust the initial capacity and keep going: the pool must grow, and
  // previously handed-out addresses must not move.
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t idx = pool.alloc();
    pool.at(idx) = i;
    held.push_back(idx);
    addrs.push_back(pool.ptr(idx));
  }
  EXPECT_GE(pool.capacity(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(pool.ptr(held[static_cast<std::size_t>(i)]),
              addrs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(pool.at(held[static_cast<std::size_t>(i)]), i);
  }
  for (const auto idx : held) pool.free(idx);
}

TEST(IndexPool, MaxCapacityIsALoudFailure) {
  IndexPool<int> pool(256, /*max_capacity=*/256);
  for (int i = 0; i < 256; ++i) (void)pool.alloc();
  EXPECT_DEATH((void)pool.alloc(), "max_capacity");
}

// Regression: the constructor must pre-size to the requested capacity even
// though each grown segment refills the freelist (an early-return on
// "free slots exist" here once livelocked every LockTable construction).
TEST(IndexPool, ConstructorPreSizesPastOneSegment) {
  IndexPool<int> pool(4096);  // many segments of 256
  EXPECT_GE(pool.capacity(), 4096u);
  EXPECT_GE(pool.free_count(), 4096u);
}

// try_alloc/try_alloc_batch report an empty freelist instead of growing,
// in both placements: they are the backpressure signal.
TYPED_TEST(PoolTest, TryAllocNeverGrows) {
  auto pool = this->template make_pool<int>(300);
  const std::uint32_t cap = pool->capacity();
  std::uint32_t last = kNullIndex;
  for (std::uint32_t i = 0; i < cap; ++i) last = pool->alloc();
  std::uint32_t out[4];
  EXPECT_EQ(pool->try_alloc(), kNullIndex);
  EXPECT_EQ(pool->try_alloc_batch(out, 4), 0u);
  EXPECT_EQ(pool->capacity(), cap) << "try_alloc must never grow the pool";
  pool->free(last);
  EXPECT_EQ(pool->try_alloc(), last);
}

// An arena pool has a fixed capacity (here not a segment multiple), so
// alloc aborts where an owned pool would grow.
TEST(IndexPoolArena, AllocAbortsWhenExhausted) {
  ShmArena arena = ShmArena::create_anon(1u << 20);
  IndexPool<int> pool(arena, IndexPool<int>::create_in(arena, 300));
  EXPECT_EQ(pool.capacity(), 300u);
  for (std::uint32_t i = 0; i < 300; ++i) EXPECT_EQ(pool.alloc(), i);
  EXPECT_DEATH((void)pool.alloc(), "exhausted");
}

// Two mappings of one named arena in one process: the accessors see
// different base addresses but one freelist and one epoch.
TEST(IndexPoolArena, TwoMappingsShareOnePoolAndOneDomain) {
  char name[64];
  std::snprintf(name, sizeof(name), "/wfl_test_mem_%d", ::getpid());
  ShmArena owner = ShmArena::create_named(name, 1u << 20);
  const std::uint64_t pool_off =
      IndexPool<std::uint64_t>::create_in(owner, 64);
  const std::uint64_t ebr_off = EbrDomain::create_in(owner, 2);
  owner.publish_ready();
  ShmArena view = ShmArena::attach_named(name);
  ASSERT_NE(owner.base(), view.base());

  IndexPool<std::uint64_t> pa(owner, pool_off);
  IndexPool<std::uint64_t> pb(view, pool_off);
  std::vector<std::uint32_t> held;
  for (int i = 0; i < 64; ++i) held.push_back(pa.alloc());
  EXPECT_EQ(pb.try_alloc(), kNullIndex) << "pool drained through A";
  pa.at(held[5]) = 0xABCD;
  EXPECT_NE(pa.ptr(held[5]), pb.ptr(held[5]));
  EXPECT_EQ(pb.at(held[5]), 0xABCDu);
  pa.free(held[5]);
  EXPECT_EQ(pb.alloc(), held[5]) << "slot freed through A not seen by B";
  pb.free(held[7]);
  EXPECT_EQ(pa.alloc(), held[7]) << "slot freed through B not seen by A";

  struct FreeCount {
    int n = 0;
    static void deleter(void* ctx, std::uint32_t) {
      ++static_cast<FreeCount*>(ctx)->n;
    }
  } freed;
  EbrDomain da(owner, ebr_off);
  EbrDomain db(view, ebr_off);
  const int reader = da.register_participant();
  const int writer = db.register_participant();
  da.bind_os_pid(reader, static_cast<int>(::getpid()));
  EXPECT_EQ(db.os_pid(reader), static_cast<int>(::getpid()));
  da.enter(reader);
  db.retire(writer, &freed, 1, &FreeCount::deleter);
  for (int i = 0; i < 10; ++i) db.collect(writer);
  EXPECT_EQ(freed.n, 0) << "guard held through A did not block B";
  da.exit(reader);
  for (int i = 0; i < 10; ++i) db.collect(writer);
  EXPECT_EQ(freed.n, 1);
  EXPECT_EQ(da.epoch(), db.epoch());
}

struct FreeLog {
  std::vector<std::uint32_t> freed;
  static void deleter(void* ctx, std::uint32_t h) {
    static_cast<FreeLog*>(ctx)->freed.push_back(h);
  }
};

// abandon() drops a guard on behalf of a participant that provably takes
// no further steps, letting reclamation (and teardown) proceed.
TYPED_TEST(EbrTest, AbandonReleasesACrashedParticipantsGuard) {
  std::atomic<int> freed{0};
  auto deleter = +[](void* ctx, std::uint32_t) {
    static_cast<std::atomic<int>*>(ctx)->fetch_add(1);
  };
  {
    auto ebr = this->make_ebr(2);
    const int crashed = ebr->register_participant();
    const int live = ebr->register_participant();
    ebr->enter(crashed);  // "crashes" here, never exits
    ebr->retire(live, &freed, 1, deleter);
    // The stuck guard pins the epoch: repeated collects free nothing.
    for (int i = 0; i < 8; ++i) ebr->collect(live);
    EXPECT_EQ(freed.load(), 0);
    ebr->abandon(crashed);
    for (int i = 0; i < 8; ++i) ebr->collect(live);
    EXPECT_EQ(freed.load(), 1) << "reclamation still stalled after abandon";
  }  // destructor must not fire the held-guard check either
}

TYPED_TEST(EbrTest, NothingFreedWhileGuardCouldHoldReference) {
  auto dom = this->make_ebr(2);
  const int p0 = dom->register_participant();
  const int p1 = dom->register_participant();
  FreeLog log;

  dom->enter(p0);  // reader enters before the retire
  dom->enter(p1);
  dom->retire(p1, &log, 7, &FreeLog::deleter);
  dom->exit(p1);
  // p0 still inside: epoch can't advance twice; nothing may be freed.
  for (int i = 0; i < 10; ++i) dom->collect(p1);
  EXPECT_TRUE(log.freed.empty());
  dom->exit(p0);
  // Now quiescent: a few collects must advance twice and free.
  for (int i = 0; i < 10; ++i) dom->collect(p1);
  ASSERT_EQ(log.freed.size(), 1u);
  EXPECT_EQ(log.freed[0], 7u);
}

TYPED_TEST(EbrTest, GuardRaiiEntersAndExits) {
  auto dom = this->make_ebr(1);
  const int p = dom->register_participant();
  {
    EbrDomain::Guard g(*dom, p);
    // Nested enter would abort (checked); we just verify scoping compiles
    // and exits cleanly.
  }
  {
    EbrDomain::Guard g(*dom, p);
  }
}

TEST(Ebr, DrainsOnDestruction) {
  FreeLog log;
  {
    EbrDomain dom(1);
    const int p = dom.register_participant();
    dom.retire(p, &log, 1, &FreeLog::deleter);
    dom.retire(p, &log, 2, &FreeLog::deleter);
  }
  EXPECT_EQ(log.freed.size(), 2u);
}

TYPED_TEST(EbrTest, EpochAdvancesWhenAllQuiescent) {
  auto dom = this->make_ebr(3);
  const int p0 = dom->register_participant();
  (void)dom->register_participant();
  const std::uint64_t before = dom->epoch();
  dom->collect(p0);
  dom->collect(p0);
  EXPECT_GE(dom->epoch(), before + 2);
}

TYPED_TEST(EbrTest, ConcurrentChurnNeverFreesHeldObjects) {
  // Writers retire tokens; a reader under guard records the tokens it can
  // see; retired tokens must never be freed while the observing guard that
  // could reach them is active. We model "reachability" with a shared slot.
  // The pool must absorb the writer's entire churn: on a single core a
  // preempted reader can pin the epoch for a full scheduling quantum, so no
  // upper bound below "everything" is safe to assert here. The pool is
  // declared before the domain because the domain's destructor drains
  // retired objects back into it.
  using Pool = IndexPool<std::atomic<std::uint64_t>>;
  std::unique_ptr<Pool> pool =
      this->template make_pool<std::atomic<std::uint64_t>>(32768);
  auto dom = this->make_ebr(4);
  struct Ctx {
    Pool* pool;
    static void deleter(void* c, std::uint32_t h) {
      auto* ctx = static_cast<Ctx*>(c);
      ctx->pool->at(h).store(0xDEAD);  // poison on free
      ctx->pool->free(h);
    }
  } ctx{pool.get()};

  std::atomic<std::uint32_t> shared{pool->alloc()};
  pool->at(shared.load()).store(1);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};

  std::vector<std::thread> ts;
  for (int t = 0; t < 2; ++t) {
    ts.emplace_back([&, t] {
      const int pid = dom->register_participant();
      (void)t;
      while (!stop.load(std::memory_order_relaxed)) {
        dom->enter(pid);
        const std::uint32_t idx = shared.load(std::memory_order_seq_cst);
        if (pool->at(idx).load() == 0xDEAD) bad.fetch_add(1);
        dom->exit(pid);
      }
    });
  }
  ts.emplace_back([&] {
    const int pid = dom->register_participant();
    for (int i = 0; i < 30000; ++i) {
      const std::uint32_t fresh = pool->alloc();
      pool->at(fresh).store(1);
      const std::uint32_t old = shared.exchange(fresh);
      dom->retire(pid, &ctx, old, &Ctx::deleter);
    }
    stop.store(true);
  });
  for (auto& th : ts) th.join();
  EXPECT_EQ(bad.load(), 0u) << "a guarded reader saw a freed object";
}

}  // namespace
}  // namespace wfl
