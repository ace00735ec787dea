// Baseline comparators: correctness of the blocking 2PL backends
// (spin2pl, mutex2pl), the Turek-style lock-free backend, and the
// Lehmann–Rabin philosophers protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "wfl/apps/bank.hpp"
#include "wfl/baseline/lehmann_rabin.hpp"
#include "wfl/baseline/mutex2pl_backend.hpp"
#include "wfl/baseline/spin2pl_backend.hpp"
#include "wfl/baseline/turek_backend.hpp"
#include "wfl/idem/cell.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/platform/sim.hpp"
#include "wfl/sim/sim.hpp"

namespace wfl {
namespace {

BackendConfig baseline_cfg(int procs, int num_locks) {
  BackendConfig bc;
  bc.lock.kappa = static_cast<std::uint32_t>(procs);
  bc.lock.max_locks = 2;
  bc.lock.max_thunk_steps = 4;
  bc.max_procs = procs;
  bc.num_locks = num_locks;
  return bc;
}

// 4 threads x 5000 retry submissions of a plain (lock-protected) counter
// increment over `ids`: mutual exclusion means no update is lost.
template <typename B>
void expect_retry_runs_exclusively(const StaticLockSet<2>& ids) {
  auto space = B::make_space(baseline_cfg(4, 4));
  std::uint64_t counter = 0;  // plain: protected by the locks
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      typename B::Session session(*space);
      for (int i = 0; i < 5000; ++i) {
        const Outcome o = B::submit(
            session, ids, [&](IdemCtx<RealPlat>&) { ++counter; },
            Policy::retry());
        EXPECT_TRUE(o.won);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(counter, 20000u);
}

TEST(Spin2plBackend, RetryRunsExclusively) {
  expect_retry_runs_exclusively<Spin2plBackend<RealPlat>>({1, 3});
}

TEST(Spin2plBackend, OneShotBacksOffWhileALockIsHeld) {
  using B = Spin2plBackend<RealPlat>;
  auto space = B::make_space(baseline_cfg(2, 2));
  B::Session holder(*space);
  B::Session other(*space);
  const StaticLockSet<2> ids{0, 1};
  const StaticLockSet<1> hold{1};
  // Hold lock 1 inside one session's critical section: a one-shot
  // submission over {0, 1} must fail and release lock 0 again.
  bool inner_ran = false;
  B::submit(holder, hold, [&](IdemCtx<RealPlat>&) {
    EXPECT_FALSE(B::submit(other, ids, [&](IdemCtx<RealPlat>&) {
                   inner_ran = true;
                 }).won);
  });
  EXPECT_FALSE(inner_ran);
  EXPECT_TRUE(B::submit(other, ids, [&](IdemCtx<RealPlat>&) {
                inner_ran = true;
              }).won);
  EXPECT_TRUE(inner_ran);
}

TEST(Mutex2plBackend, RetryRunsExclusively) {
  expect_retry_runs_exclusively<Mutex2plBackend>({0, 2});
}

TEST(Mutex2plBackend, ConcurrentTransfersConserveTotal) {
  using B = Mutex2plBackend;
  constexpr int kThreads = 4;
  constexpr std::uint32_t kAccounts = 8;
  auto space = B::make_space(baseline_cfg(kThreads, kAccounts));
  Bank<B> bank(*space, kAccounts, 100);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      B::Session session(*space);
      Xoshiro256 rng(77 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 2000; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.next_below(kAccounts));
        const auto b = static_cast<std::uint32_t>(
            (a + 1 + rng.next_below(kAccounts - 1)) % kAccounts);
        bank.transfer(session, a, b,
                      static_cast<std::uint32_t>(rng.next_below(10)),
                      Policy::retry());
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(bank.total_balance(), bank.expected_total());
}

TEST(Mutex2plBackend, RetryIsOneBlockingAttempt) {
  using B = Mutex2plBackend;
  auto space = B::make_space(baseline_cfg(1, 2));
  B::Session session(*space);
  const StaticLockSet<2> ids{0, 1};
  int runs = 0;
  const Outcome o =
      B::submit(session, ids, [&](IdemCtx<RealPlat>&) { ++runs; },
                Policy::retry());
  EXPECT_TRUE(o.won);
  EXPECT_EQ(o.attempts, 1u);
  EXPECT_EQ(runs, 1);
}

TEST(Mutex2plBackend, BoundedPolicyLosesWhileAnotherThreadHoldsALock) {
  using B = Mutex2plBackend;
  auto space = B::make_space(baseline_cfg(2, 2));
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    B::Session session(*space);
    const StaticLockSet<1> hold{1};
    B::submit(
        session, hold,
        [&](IdemCtx<RealPlat>&) {
          held.store(true);
          while (!release.load()) std::this_thread::yield();
        },
        Policy::retry());
  });
  while (!held.load()) std::this_thread::yield();
  B::Session session(*space);
  const StaticLockSet<2> ids{0, 1};
  bool ran = false;
  const Outcome lost = B::submit(
      session, ids, [&](IdemCtx<RealPlat>&) { ran = true; },
      Policy::attempts(3));
  EXPECT_FALSE(lost.won);
  EXPECT_EQ(lost.attempts, 3u);
  EXPECT_FALSE(ran);
  release.store(true);
  holder.join();
  // Every failed pass released lock 0 again: the set is free once the
  // holder is done.
  const Outcome won = B::submit(
      session, ids, [&](IdemCtx<RealPlat>&) { ran = true; },
      Policy::attempts(3));
  EXPECT_TRUE(won.won);
  EXPECT_TRUE(ran);
}

TEST(TurekBackend, AppliesExactlyOnceSingleThread) {
  using B = TurekBackend<RealPlat>;
  auto space = B::make_space(baseline_cfg(2, 4));
  B::Session session(*space);
  Cell<RealPlat> c{0};
  const StaticLockSet<2> ids{0, 3};
  B::submit(session, ids, [&c](IdemCtx<RealPlat>& m) {
    m.store(c, m.load(c) + 1);
  });
  EXPECT_EQ(c.peek(), 1u);
}

TEST(TurekBackend, ConcurrentTransfersConserveTotal) {
  using B = TurekBackend<RealPlat>;
  auto space = B::make_space(baseline_cfg(4, 8));
  std::vector<std::unique_ptr<Cell<RealPlat>>> accounts;
  for (int i = 0; i < 8; ++i) {
    accounts.push_back(std::make_unique<Cell<RealPlat>>(100u));
  }
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      B::Session session(*space);
      Xoshiro256 rng(55 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 2000; ++i) {
        const std::uint32_t a = static_cast<std::uint32_t>(rng.next_below(8));
        const std::uint32_t b = static_cast<std::uint32_t>((a + 1 +
            rng.next_below(7)) % 8);
        Cell<RealPlat>& src = *accounts[a];
        Cell<RealPlat>& dst = *accounts[b];
        const StaticLockSet<2> ids{a, b};
        B::submit(session, ids, [&src, &dst](IdemCtx<RealPlat>& m) {
          const std::uint32_t s = m.load(src);
          if (s >= 1) {
            m.store(src, s - 1);
            m.store(dst, m.load(dst) + 1);
          }
        });
      }
    });
  }
  for (auto& th : ts) th.join();
  std::uint64_t total = 0;
  for (const auto& a : accounts) total += a->peek();
  EXPECT_EQ(total, 800u);
}

TEST(TurekBackend, HelpingHappensUnderSimStarvation) {
  // Process 0 grabs locks and is then starved; process 1 must finish *its
  // own* operation anyway by helping process 0 through — the property that
  // distinguishes lock-free locks from blocking 2PL.
  using B = TurekBackend<SimPlat>;
  auto space = B::make_space(baseline_cfg(2, 2));
  Cell<SimPlat> c{0};
  Simulator sim(17);
  std::vector<B::Session> sessions;
  for (int p = 0; p < 2; ++p) sessions.emplace_back(*space);
  int completed = 0;
  for (int p = 0; p < 2; ++p) {
    sim.add_process([&, p] {
      const StaticLockSet<2> ids{0, 1};
      for (int i = 0; i < 5; ++i) {
        B::submit(sessions[static_cast<std::size_t>(p)], ids,
                  [&c](IdemCtx<SimPlat>& m) { m.store(c, m.load(c) + 1); });
      }
      ++completed;
    });
  }
  // Process 0 gets very few slots: its operations complete via helping.
  WeightedSchedule sched({0.02, 1.0}, 23);
  ASSERT_TRUE(sim.run(sched, 500'000'000));
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(c.peek(), 10u);
}

TEST(LehmannRabin, EveryPhilosopherEventuallyEats) {
  const int n = 5;
  LehmannRabinTable<SimPlat> table(n);
  std::vector<std::uint64_t> rounds(static_cast<std::size_t>(n), 0);
  Simulator sim(41);
  for (int p = 0; p < n; ++p) {
    sim.add_process([&, p] {
      for (int meal = 0; meal < 10; ++meal) {
        rounds[static_cast<std::size_t>(p)] +=
            table.dine(p, /*max_rounds=*/1'000'000);
      }
    });
  }
  UniformSchedule sched(n, 4242);
  ASSERT_TRUE(sim.run(sched, 500'000'000));
  for (int p = 0; p < n; ++p) {
    EXPECT_GE(rounds[static_cast<std::size_t>(p)], 10u);  // >=1 round/meal
  }
}

TEST(LehmannRabin, RealThreadsSmoke) {
  const int n = 4;
  LehmannRabinTable<RealPlat> table(n);
  std::vector<std::thread> ts;
  std::atomic<std::uint64_t> meals{0};
  for (int p = 0; p < n; ++p) {
    ts.emplace_back([&, p] {
      RealPlat::seed_rng(900 + static_cast<std::uint64_t>(p));
      for (int meal = 0; meal < 200; ++meal) {
        table.dine(p);
        meals.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(meals.load(), static_cast<std::uint64_t>(n) * 200);
}

}  // namespace
}  // namespace wfl
