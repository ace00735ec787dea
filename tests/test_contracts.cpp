// Contract enforcement: the library's capacity/usage contracts must fail
// loudly (WFL_CHECK), never corrupt silently.
#include <gtest/gtest.h>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

using Space = LockTable<RealPlat>;

LockConfig tiny_cfg() {
  LockConfig cfg;
  cfg.kappa = 2;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 4;
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

// The raw-span overload's O(L²) duplicate scan is demoted to a debug
// assertion (LockSetView/StaticLockSet construction is the validated
// path), so the release-build duplicate contract lives in the view layer:
// StaticLockSet collapses duplicates before the budget check (see
// test_session's LockSet suite), and a view over a genuinely malformed
// span is the caller's contract violation. In debug builds the raw-span
// scan still dies loudly.
TEST(Contracts, DuplicateLockIdsRejected) {
#ifndef NDEBUG
  Space space(tiny_cfg(), 1, 4);
  auto proc = space.register_process();
  const std::uint32_t ids[] = {1, 1};
  EXPECT_DEATH(space.try_locks(proc, ids, typename Space::Thunk{}), "");
#else
  // Release: duplicates collapse in the owning set type instead of
  // aborting the attempt path.
  StaticLockSet<4> set({1, 1});
  EXPECT_EQ(set.size(), 1u);
#endif
}

TEST(Contracts, LockSetBeyondLRejected) {
  Space space(tiny_cfg(), 1, 4);
  auto proc = space.register_process();
  const std::uint32_t ids[] = {0, 1, 2};
  EXPECT_DEATH(space.try_locks(proc, ids, typename Space::Thunk{}),
               "exceeds the configured L bound");
}

TEST(Contracts, OutOfRangeLockIdRejected) {
  Space space(tiny_cfg(), 1, 4);
  auto proc = space.register_process();
  const std::uint32_t ids[] = {99};
  EXPECT_DEATH(space.try_locks(proc, ids, typename Space::Thunk{}), "");
}

TEST(Contracts, ThunkOpBudgetEnforced) {
  Space space(tiny_cfg(), 1, 2);
  auto proc = space.register_process();
  Cell<RealPlat> c{0};
  const std::uint32_t ids[] = {0};
  EXPECT_DEATH(space.try_locks(proc, ids,
                               [&c](IdemCtx<RealPlat>& m) {
                                 for (int i = 0; i < 100; ++i) {
                                   m.store(c, static_cast<std::uint32_t>(i));
                                 }
                               }),
               "kMaxThunkOps");
}

TEST(Contracts, ConfigValidationCatchesZeros) {
  LockConfig cfg = tiny_cfg();
  cfg.kappa = 0;
  EXPECT_DEATH((Space{cfg, 1, 1}), "");
}

TEST(Contracts, UnregisteredProcessRejected) {
  Space space(tiny_cfg(), 1, 2);
  typename Space::Process bogus;  // ebr_pid == -1
  const std::uint32_t ids[] = {0};
  EXPECT_DEATH(space.try_locks(bogus, ids, typename Space::Thunk{}), "");
}

TEST(Contracts, EbrParticipantCapacityEnforced) {
  EbrDomain dom(1);
  (void)dom.register_participant();
  EXPECT_DEATH((void)dom.register_participant(), "participant capacity");
}

TEST(Contracts, EbrDoubleEnterCaught) {
  EbrDomain dom(2);
  const int p = dom.register_participant();
  dom.enter(p);
  EXPECT_DEATH(dom.enter(p), "already in a critical region");
  dom.exit(p);
}

TEST(Contracts, ActiveSetOverContentionIsLoud) {
  // Capacity-2 active set; inserting three concurrent members violates the
  // κ contract and must abort rather than loop or corrupt.
  IndexPool<SetSnap<int*>> pool(1024);
  EbrDomain ebr(2);
  SetMem<int*> mem{pool, ebr};
  ActiveSet<RealPlat, int*> set(2, mem);
  const int pid = ebr.register_participant();
  int a = 0, b = 0, c = 0;
  EbrDomain::Guard g(ebr, pid);
  set.insert(&a, pid);
  set.insert(&b, pid);
  EXPECT_DEATH(set.insert(&c, pid), "point contention");
}

}  // namespace
}  // namespace wfl
