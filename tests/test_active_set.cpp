// Algorithm 1 (active set) and Algorithm 2 (multi active set).
//
// The linearizability-shaped checks exploit the simulator: because all
// fibers share one thread, plain C++ event logs give a total order of
// invocations/responses, against which we verify the containment rules that
// linearizability (active set) and set regularity (multi set) demand.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "wfl/active/active_set.hpp"
#include "wfl/active/multi_set.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/platform/sim.hpp"
#include "wfl/sim/sim.hpp"
#include "wfl/util/shm.hpp"

namespace wfl {
namespace {

// A trivially flaggable item for multi-set tests.
struct Item {
  std::uint64_t id = 0;
  RealPlat::Atomic<int> flagged{0};
  bool flag() { return flagged.load() != 0; }
  void set_flag() { flagged.store(1); }
  void clear_flag() { flagged.store(0); }
};

struct SimItem {
  std::uint64_t id = 0;
  SimPlat::Atomic<int> flagged{0};
  bool flag() { return flagged.load() != 0; }
  void set_flag() { flagged.store(1); }
  void clear_flag() { flagged.store(0); }
};

template <typename T>
struct Harness {
  IndexPool<SetSnap<T*>> pool{4096};
  EbrDomain ebr{8};
  SetMem<T*> mem{pool, ebr};
};

// The two placements of a set — slots, snapshot pool and EBR domain all
// owned on the heap, or all laid into one ShmArena — behind one factory, so
// each typed test body runs unchanged against both. Owners are
// address-free words, as in the shared-memory table.
using WordSet = ActiveSet<RealPlat, std::uint32_t>;
using WordSnap = WordSet::Snap;

struct OwnedPlacement {
  static constexpr const char* kName = "Owned";
  IndexPool<WordSnap> pool{4096};
  EbrDomain ebr{8};
  SetMem<std::uint32_t> mem{pool, ebr};
  std::unique_ptr<WordSet> make_set(std::uint32_t capacity) {
    return std::make_unique<WordSet>(capacity, mem);
  }
};

struct ArenaPlacement {
  static constexpr const char* kName = "Arena";
  ShmArena arena = ShmArena::create_anon(8u << 20);
  IndexPool<WordSnap> pool{arena, IndexPool<WordSnap>::create_in(arena, 4096)};
  EbrDomain ebr{arena, EbrDomain::create_in(arena, 8)};
  SetMem<std::uint32_t> mem{pool, ebr};
  std::unique_ptr<WordSet> make_set(std::uint32_t capacity) {
    return std::make_unique<WordSet>(arena, WordSet::create_in(arena, capacity),
                                     mem);
  }
};

struct PlacementName {
  template <typename P>
  static std::string GetName(int) {
    return P::kName;
  }
};

template <typename P>
class ActiveSetTest : public ::testing::Test {
 protected:
  P place_;
};
using Placements = ::testing::Types<OwnedPlacement, ArenaPlacement>;
TYPED_TEST_SUITE(ActiveSetTest, Placements, PlacementName);

TYPED_TEST(ActiveSetTest, InsertGetRemoveSequential) {
  auto& h = this->place_;
  auto set = h.make_set(4);
  const int pid = h.ebr.register_participant();
  const std::uint32_t a = 1, b = 2;

  EbrDomain::Guard g(h.ebr, pid);
  EXPECT_EQ(set->get_set()->count, 0u);
  const int sa = set->insert(a, pid);
  EXPECT_TRUE(set->get_set()->contains(a));
  const int sb = set->insert(b, pid);
  EXPECT_TRUE(set->get_set()->contains(a));
  EXPECT_TRUE(set->get_set()->contains(b));
  EXPECT_EQ(set->get_set()->count, 2u);
  set->remove(sa, pid);
  EXPECT_FALSE(set->get_set()->contains(a));
  EXPECT_TRUE(set->get_set()->contains(b));
  set->remove(sb, pid);
  EXPECT_EQ(set->get_set()->count, 0u);
}

TYPED_TEST(ActiveSetTest, ReinsertAfterRemoveReusesCapacity) {
  auto& h = this->place_;
  auto set = h.make_set(2);
  const int pid = h.ebr.register_participant();
  const std::uint32_t a = 1, b = 2;
  EbrDomain::Guard g(h.ebr, pid);
  for (int round = 0; round < 50; ++round) {
    const int sa = set->insert(a, pid);
    const int sb = set->insert(b, pid);
    set->remove(sa, pid);
    set->remove(sb, pid);
  }
  EXPECT_EQ(set->get_set()->count, 0u);
}

TYPED_TEST(ActiveSetTest, TopSlotDrainsViaSentinel) {
  // Regression for the pseudocode's j == C corner case: removing the item
  // in the *top* slot must actually drain it from the snapshots.
  auto& h = this->place_;
  auto set = h.make_set(2);
  const int pid = h.ebr.register_participant();
  const std::uint32_t a = 1, b = 2;
  EbrDomain::Guard g(h.ebr, pid);
  const int sa = set->insert(a, pid);  // slot 0
  const int sb = set->insert(b, pid);  // slot 1 == top
  EXPECT_EQ(sa, 0);
  EXPECT_EQ(sb, 1);
  set->remove(sb, pid);
  EXPECT_FALSE(set->get_set()->contains(b));
  set->remove(sa, pid);
  EXPECT_EQ(set->get_set()->count, 0u);
}

// evict() is the crash-recovery remove: it drops an owner by value, from
// whatever slot it holds — the top slot included — and frees that slot.
TYPED_TEST(ActiveSetTest, EvictRemovesAnOwnerFromEverySnapshot) {
  auto& h = this->place_;
  auto set = h.make_set(3);
  const int pid = h.ebr.register_participant();
  const std::uint32_t a = 1, b = 2, c = 3, d = 4;
  EbrDomain::Guard g(h.ebr, pid);
  set->insert(a, pid);                // slot 0
  const int sb = set->insert(b, pid);  // slot 1
  const int sc = set->insert(c, pid);  // slot 2 == top
  set->evict(b, pid);
  EXPECT_FALSE(set->get_set()->contains(b));
  EXPECT_EQ(set->get_set()->count, 2u);
  EXPECT_EQ(set->insert(d, pid), sb) << "evicted slot not freed";
  set->evict(c, pid);
  EXPECT_FALSE(set->get_set()->contains(c)) << "top slot did not drain";
  set->evict(b, pid);  // no longer a member: a no-op
  EXPECT_EQ(set->get_set()->count, 2u);
  EXPECT_TRUE(set->get_set()->contains(a));
  EXPECT_TRUE(set->get_set()->contains(d));
  EXPECT_EQ(set->insert(c, pid), sc);
}

// Two mappings of one named arena, at different bases: a set attached
// through each resolves the same slots and snapshot handles, so an insert
// through one accessor is visible to the other's getSet, and a remove
// through the other is visible back.
TEST(ActiveSetArena, TwoMappingsShareOneSet) {
  char name[64];
  std::snprintf(name, sizeof(name), "/wfl_test_active_set_%d", ::getpid());
  ShmArena owner = ShmArena::create_named(name, 4u << 20);
  const std::uint64_t pool_off = IndexPool<WordSnap>::create_in(owner, 1024);
  const std::uint64_t ebr_off = EbrDomain::create_in(owner, 2);
  const std::uint64_t set_off = WordSet::create_in(owner, 4);
  owner.publish_ready();
  ShmArena view = ShmArena::attach_named(name);
  ASSERT_NE(owner.base(), view.base());

  IndexPool<WordSnap> pool_a(owner, pool_off);
  IndexPool<WordSnap> pool_b(view, pool_off);
  EbrDomain ebr_a(owner, ebr_off);
  EbrDomain ebr_b(view, ebr_off);
  SetMem<std::uint32_t> mem_a{pool_a, ebr_a};
  SetMem<std::uint32_t> mem_b{pool_b, ebr_b};
  WordSet set_a(owner, set_off, mem_a);
  WordSet set_b(view, set_off, mem_b);
  const int pid_a = ebr_a.register_participant();
  const int pid_b = ebr_b.register_participant();

  EbrDomain::Guard ga(ebr_a, pid_a);
  EbrDomain::Guard gb(ebr_b, pid_b);
  const int slot = set_a.insert(7, pid_a);
  EXPECT_TRUE(set_b.get_set()->contains(7)) << "insert through A not seen by B";
  EXPECT_NE(set_a.get_set(), set_b.get_set())
      << "both accessors resolved to one address: not handle-addressed";
  set_b.remove(slot, pid_b);
  EXPECT_EQ(set_a.get_set()->count, 0u) << "remove through B not seen by A";
  EXPECT_EQ(set_a.insert(9, pid_a), slot) << "slot freed through B not reused";
}

TEST(ActiveSet, GetSetIsConstantStepCount) {
  Harness<Item> h;
  ActiveSet<SimPlat, Item*> set_unused(2, h.mem);  // silence template
  (void)set_unused;

  // Count steps of get_set under sim with k resident members: must not grow.
  IndexPool<SetSnap<SimItem*>> pool{4096};
  EbrDomain ebr{4};
  SetMem<SimItem*> mem{pool, ebr};
  std::vector<std::uint64_t> costs;
  for (std::uint32_t k : {1u, 4u, 16u}) {
    ActiveSet<SimPlat, SimItem*> set(16, mem);
    const int pid = ebr.register_participant();
    std::vector<std::unique_ptr<SimItem>> items;
    for (std::uint32_t i = 0; i < k; ++i) {
      items.push_back(std::make_unique<SimItem>());
    }
    Simulator sim(1);
    std::uint64_t cost = 0;
    sim.add_process([&] {
      EbrDomain::Guard g(ebr, pid);
      for (std::uint32_t i = 0; i < k; ++i) set.insert(items[i].get(), pid);
      const std::uint64_t before = SimPlat::steps();
      (void)set.get_set();
      cost = SimPlat::steps() - before;
    });
    RoundRobinSchedule rr(1);
    ASSERT_TRUE(sim.run(rr, 1'000'000));
    costs.push_back(cost);
  }
  EXPECT_EQ(costs[0], costs[1]);
  EXPECT_EQ(costs[1], costs[2]);  // O(1) getSet, Theorem 5.2
}

// Own steps of an uncontended insert at slot i of a capacity-C set whose
// slots 0..i-1 are occupied: i+1 owner loads and one owner CAS to claim
// slot i, then a climb over levels i..0. An uncontended climb's first CAS
// at each level succeeds, so a level costs four steps (load cur, load the
// level above, load the owner, CAS) and the top slot three (nothing above
// it to load). The matching remove is one owner store plus the same climb.
TEST(ActiveSet, UncontendedClimbStepCount) {
  IndexPool<SetSnap<SimItem*>> pool{4096};
  EbrDomain ebr{4};
  SetMem<SimItem*> mem{pool, ebr};
  const int pid = ebr.register_participant();
  for (std::uint32_t cap : {1u, 2u, 4u, 8u}) {
    for (std::uint32_t i = 0; i < cap; ++i) {
      SCOPED_TRACE("capacity " + std::to_string(cap) + ", slot " +
                   std::to_string(i));
      ActiveSet<SimPlat, SimItem*> set(cap, mem);
      std::vector<std::unique_ptr<SimItem>> items(i + 1);
      for (auto& it : items) it = std::make_unique<SimItem>();
      std::uint64_t insert_steps = 0;
      std::uint64_t remove_steps = 0;
      int slot = -1;
      Simulator sim(1);
      sim.add_process([&] {
        EbrDomain::Guard g(ebr, pid);
        for (std::uint32_t k = 0; k < i; ++k) set.insert(items[k].get(), pid);
        std::uint64_t before = SimPlat::steps();
        slot = set.insert(items[i].get(), pid);
        insert_steps = SimPlat::steps() - before;
        before = SimPlat::steps();
        set.remove(slot, pid);
        remove_steps = SimPlat::steps() - before;
      });
      RoundRobinSchedule rr(1);
      ASSERT_TRUE(sim.run(rr, 1'000'000));
      ASSERT_EQ(slot, static_cast<int>(i));
      const std::uint64_t climb = 4 * (i + 1) - (i + 1 == cap ? 1 : 0);
      EXPECT_EQ(insert_steps, (i + 1) + 1 + climb);
      EXPECT_EQ(remove_steps, 1 + climb);
    }
  }
}

// Workers churn insert/remove on a shared set; a monitor getSets. Using the
// sim's total order, each getSet is checked against what every worker had
// done in one round (one insert and its remove) around the call:
//  * an item must appear if its insert responded before the call and its
//    remove was not invoked before the call returned, in the same round;
//  * an item must not appear if its remove responded (or, before its first
//    round, nothing was inserted) before the call and no insert was invoked
//    before the call returned.
// The state is read both before get_set() and after it returns: its one
// load is a schedule point, so a worker can start (or finish) a remove or
// a whole round while the monitor waits for it. Swept over schedule seeds
// and worker counts; a climb that never retries a level whose CAS failed
// is caught here.
void run_containment(int workers, std::uint64_t seed) {
  IndexPool<SetSnap<SimItem*>> pool{65536};
  EbrDomain ebr{8};
  SetMem<SimItem*> mem{pool, ebr};
  ActiveSet<SimPlat, SimItem*> set(static_cast<std::uint32_t>(workers), mem);

  enum Phase { kOut, kInserting, kIn, kRemoving };
  struct State {
    int round = 0;  // inserts invoked so far
    Phase phase = kOut;
  };
  const auto n = static_cast<std::size_t>(workers);
  std::vector<std::unique_ptr<SimItem>> items(n);
  std::vector<State> state(n);
  for (auto& it : items) it = std::make_unique<SimItem>();

  Simulator sim(seed);
  for (int w = 0; w < workers; ++w) {
    sim.add_process([&, w] {
      const int pid = ebr.register_participant();
      State& st = state[static_cast<std::size_t>(w)];
      for (int round = 0; round < 30; ++round) {
        EbrDomain::Guard g(ebr, pid);
        ++st.round;
        st.phase = kInserting;
        const int slot = set.insert(items[static_cast<std::size_t>(w)].get(),
                                    pid);
        st.phase = kIn;
        // hold membership for a few steps
        for (int s = 0; s < 5; ++s) SimPlat::step();
        st.phase = kRemoving;
        set.remove(slot, pid);
        st.phase = kOut;
      }
    });
  }
  int violations = 0;
  sim.add_process([&] {
    const int pid = ebr.register_participant();
    for (int q = 0; q < 200; ++q) {
      EbrDomain::Guard g(ebr, pid);
      // Plain reads are safe: every fiber runs on one OS thread.
      const std::vector<State> pre = state;
      const auto* snap = set.get_set();
      const std::vector<State> post = state;
      for (std::size_t w = 0; w < n; ++w) {
        const bool present = snap->contains(items[w].get());
        if (pre[w].round != post[w].round) continue;  // a round overlapped
        if (pre[w].phase == kIn && post[w].phase == kIn && !present) {
          ++violations;  // must have been visible
        }
        if (pre[w].phase == kOut && present) {
          ++violations;  // must have been gone
        }
      }
      SimPlat::step();
    }
  });
  UniformSchedule sched(workers + 1, seed);
  ASSERT_TRUE(sim.run(sched, 50'000'000));
  EXPECT_EQ(violations, 0) << workers << " workers, seed " << seed;
}

TEST(ActiveSetSim, LinearizabilityContainmentUnderInterleaving) {
  for (int workers : {3, 4}) {
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      run_containment(workers, seed);
    }
  }
}

TEST(MultiActiveSet, FlagGatesVisibility) {
  Harness<Item> h;
  ActiveSet<RealPlat, Item*> s0(4, h.mem), s1(4, h.mem);
  ActiveSet<RealPlat, Item*>* sets[] = {&s0, &s1};
  const int pid = h.ebr.register_participant();
  Item a;
  a.id = 1;
  int slots[2];

  EbrDomain::Guard g(h.ebr, pid);
  // Manually do the multiInsert steps to observe the intermediate state:
  a.clear_flag();
  slots[0] = s0.insert(&a, pid);
  slots[1] = s1.insert(&a, pid);
  MemberList<Item*> out;
  multi_get_set<RealPlat>(s0, out);
  EXPECT_EQ(out.count, 0u) << "unflagged item visible";
  a.set_flag();
  multi_get_set<RealPlat>(s0, out);
  ASSERT_EQ(out.count, 1u);
  EXPECT_EQ(out.items[0], &a);
  multi_get_set<RealPlat>(s1, out);
  ASSERT_EQ(out.count, 1u);

  multi_remove<RealPlat>(&a, sets, slots, 2, pid);
  multi_get_set<RealPlat>(s0, out);
  EXPECT_EQ(out.count, 0u);
  multi_get_set<RealPlat>(s1, out);
  EXPECT_EQ(out.count, 0u);
}

TEST(MultiActiveSet, MultiInsertHelperApi) {
  Harness<Item> h;
  ActiveSet<RealPlat, Item*> s0(4, h.mem), s1(4, h.mem), s2(4, h.mem);
  ActiveSet<RealPlat, Item*>* sets[] = {&s0, &s1, &s2};
  const int pid = h.ebr.register_participant();
  Item a;
  int slots[3];
  EbrDomain::Guard g(h.ebr, pid);
  multi_insert<RealPlat>(&a, sets, slots, 3, pid);
  EXPECT_TRUE(a.flag());
  MemberList<Item*> out;
  for (auto* s : sets) {
    multi_get_set<RealPlat>(*s, out);
    ASSERT_EQ(out.count, 1u);
  }
  multi_remove<RealPlat>(&a, sets, slots, 3, pid);
  EXPECT_FALSE(a.flag());
}

TEST(MultiActiveSetSim, SetRegularity) {
  // Set regularity (Theorem 5.1): a getSet invoked after a multiInsert's
  // flag-set must see the item; one responding before the multiInsert began
  // must not. Overlapping calls may go either way — not checked.
  IndexPool<SetSnap<SimItem*>> pool{65536};
  EbrDomain ebr{4};
  SetMem<SimItem*> mem{pool, ebr};
  ActiveSet<SimPlat, SimItem*> s0(2, mem), s1(2, mem);
  ActiveSet<SimPlat, SimItem*>* sets[] = {&s0, &s1};

  SimItem a;
  enum Phase { kOut, kInserting, kIn, kRemoving };
  Phase phase = kOut;
  int violations = 0;

  Simulator sim(9);
  sim.add_process([&] {
    const int pid = ebr.register_participant();
    int slots[2];
    for (int r = 0; r < 40; ++r) {
      EbrDomain::Guard g(ebr, pid);
      phase = kInserting;
      multi_insert<SimPlat>(&a, sets, slots, 2, pid);
      phase = kIn;
      for (int s = 0; s < 6; ++s) SimPlat::step();
      phase = kRemoving;
      multi_remove<SimPlat>(&a, sets, slots, 2, pid);
      phase = kOut;
      for (int s = 0; s < 6; ++s) SimPlat::step();
    }
  });
  sim.add_process([&] {
    const int pid = ebr.register_participant();
    MemberList<SimItem*> out;
    for (int q = 0; q < 300; ++q) {
      EbrDomain::Guard g(ebr, pid);
      const Phase pre = phase;
      multi_get_set<SimPlat>(s0, out);
      const Phase post = phase;
      bool present = false;
      for (auto* it : out) present |= (it == &a);
      if (pre == kIn && post == kIn && !present) ++violations;
      if (pre == kOut && post == kOut && present) ++violations;
    }
  });
  UniformSchedule sched(2, 1234);
  ASSERT_TRUE(sim.run(sched, 50'000'000));
  EXPECT_EQ(violations, 0);
}

}  // namespace
}  // namespace wfl
