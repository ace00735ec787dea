// Smoke: the whole stack compiles and a single-threaded attempt works on
// both platforms.
#include <gtest/gtest.h>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

TEST(Smoke, SingleAttemptRealPlat) {
  LockConfig cfg;
  cfg.kappa = 2;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 4;
  cfg.delay_mode = DelayMode::kOff;
  LockTable<RealPlat> space(cfg, /*max_procs=*/2, /*num_locks=*/4);
  auto proc = space.register_process();

  Cell<RealPlat> counter{10};
  const std::uint32_t ids[] = {0, 2};
  const bool won = space.try_locks(proc, ids, [&](IdemCtx<RealPlat>& m) {
    m.store(counter, m.load(counter) + 5);
  });
  EXPECT_TRUE(won);
  EXPECT_EQ(counter.peek(), 15u);
  EXPECT_EQ(space.stats().wins, 1u);
}

TEST(Smoke, SingleAttemptSimPlat) {
  LockConfig cfg;
  cfg.kappa = 2;
  cfg.max_locks = 1;
  cfg.max_thunk_steps = 4;
  LockTable<SimPlat> space(cfg, 2, 2);
  auto proc = space.register_process();
  Cell<SimPlat> counter{0};

  Simulator sim(42);
  bool won = false;
  sim.add_process([&] {
    const std::uint32_t ids[] = {1};
    won = space.try_locks(proc, ids, [&](IdemCtx<SimPlat>& m) {
      m.store(counter, m.load(counter) + 1);
    });
  });
  RoundRobinSchedule rr(1);
  ASSERT_TRUE(sim.run(rr, 1'000'000));
  EXPECT_TRUE(won);
  EXPECT_EQ(counter.peek(), 1u);
}

TEST(Smoke, EmptyLockSetRunsThunkImmediately) {
  LockConfig cfg;
  cfg.delay_mode = DelayMode::kOff;
  LockTable<RealPlat> space(cfg, 1, 1);
  auto proc = space.register_process();
  Cell<RealPlat> c{0};
  EXPECT_TRUE(space.try_locks(proc, {}, [&](IdemCtx<RealPlat>& m) {
    m.store(c, 7);
  }));
  EXPECT_EQ(c.peek(), 7u);
}

}  // namespace
}  // namespace wfl
