// The contended-path optimizations (DESIGN.md §5): thin-word fast path,
// cooperative helping, and batched submission.
//
// Safety-critical interleavings run under the deterministic simulator —
// revocation races (a thin-word owner crashing at swept slots while a
// contender revokes and helps), help-claim expiry (a crashed claimer must
// not wedge anyone), and the step-for-step equivalence of submit_batch
// against a loop of single submits. The RealPlat tests pin the observable
// contracts: a warm uncontended single-lock attempt decides entirely
// through the thin word (zero descriptor-pool traffic), kTheory executions
// are untouched, and a revoked descriptor cools down through a grace
// period before reuse.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "wfl/wfl.hpp"

#include "test_plat.hpp"

namespace wfl {

using test::TestPlat;
namespace {

using Table = LockTable<RealPlat>;
using SimTable = LockTable<TestPlat>;

LockConfig off_cfg(std::uint32_t kappa, std::uint32_t max_locks = 2,
                   std::uint32_t thunk_steps = 8) {
  LockConfig cfg;
  cfg.kappa = kappa;
  cfg.max_locks = max_locks;
  cfg.max_thunk_steps = thunk_steps;
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

// --- fast-path basics (RealPlat) -----------------------------------------

// A warm uncontended single-lock workload must decide every attempt via
// the thin word: fastpath_hits tracks attempts 1:1, no shard's descriptor
// pool is ever touched, the shared freelists see zero transactions, and
// nothing is revoked.
TEST(FastPath, UncontendedHitsAndZeroPoolTraffic) {
  Table t(off_cfg(2, 1), 2, 16, SpaceSizing{.shards = 4});
  ASSERT_TRUE(t.fast_path_enabled());
  auto proc = t.register_process();
  Cell<RealPlat> c{0};
  // Pool construction pushes every slot through the freelist; the attempt
  // window below must add ZERO on top of that.
  const std::uint64_t fl0 = t.freelist_ops();
  const int kAttempts = 500;
  for (int a = 0; a < kAttempts; ++a) {
    const std::uint32_t ids[] = {static_cast<std::uint32_t>(a % 16)};
    ASSERT_TRUE(t.try_locks(proc, ids, [&c](IdemCtx<RealPlat>& m) {
      m.store(c, m.load(c) + 1);
    }));
  }
  const LockStats s = t.stats();
  EXPECT_EQ(s.attempts, static_cast<std::uint64_t>(kAttempts));
  EXPECT_EQ(s.wins, static_cast<std::uint64_t>(kAttempts));
  EXPECT_EQ(s.fastpath_hits, static_cast<std::uint64_t>(kAttempts));
  EXPECT_EQ(s.fastpath_revocations, 0u);
  EXPECT_EQ(c.peek(), static_cast<std::uint32_t>(kAttempts));
  EXPECT_EQ(t.freelist_ops(), fl0) << "fast path touched a shared freelist";
  for (std::uint32_t sh = 0; sh < t.num_shards(); ++sh) {
    EXPECT_EQ(t.shard_desc_free(sh), t.shard_desc_capacity(sh))
        << "fast path allocated a descriptor in shard " << sh;
  }
  for (std::uint32_t id = 0; id < 16; ++id) {
    EXPECT_EQ(t.thin_word_peek(id), 0u) << "thin word leaked on lock " << id;
  }
}

// kTheory executions are bit-identical to the pre-fast-path tree: the
// switch is hard-gated on DelayMode::kOff.
TEST(FastPath, DisabledUnderTheoryDelays) {
  LockConfig cfg = off_cfg(2, 1);
  cfg.delay_mode = DelayMode::kTheory;
  cfg.c0 = 4.0;
  cfg.c1 = 4.0;
  Table t(cfg, 2, 8);
  EXPECT_FALSE(t.fast_path_enabled());
  EXPECT_FALSE(t.cooperative_help_enabled());
  auto proc = t.register_process();
  Cell<RealPlat> c{0};
  const std::uint32_t ids[] = {3};
  ASSERT_TRUE(t.try_locks(proc, ids, [&c](IdemCtx<RealPlat>& m) {
    m.store(c, m.load(c) + 1);
  }));
  EXPECT_EQ(t.stats().fastpath_hits, 0u);
}

TEST(FastPath, DisabledByConfigKnob) {
  LockConfig cfg = off_cfg(2, 1);
  cfg.fast_path = false;
  Table t(cfg, 2, 8);
  EXPECT_FALSE(t.fast_path_enabled());
  auto proc = t.register_process();
  Cell<RealPlat> c{0};
  const std::uint32_t ids[] = {0};
  ASSERT_TRUE(t.try_locks(proc, ids, [&c](IdemCtx<RealPlat>& m) {
    m.store(c, m.load(c) + 1);
  }));
  EXPECT_EQ(t.stats().fastpath_hits, 0u);
  EXPECT_LT(t.shard_desc_free(0), t.shard_desc_capacity(0))
      << "descriptor path not taken";
}

// An uncontended multi-lock attempt decides through its locks' thin words
// too: one fast-path hit, no descriptor or snapshot drawn in any shard, no
// freelist transaction, every word free afterwards. The span is unsorted
// and straddles two shards.
TEST(FastPath, MultiLockUncontendedHitsAndZeroPoolTraffic) {
  Table t(off_cfg(2, 2), 2, 16, SpaceSizing{.shards = 4});
  auto proc = t.register_process();
  Cell<RealPlat> c{0};
  std::vector<std::uint32_t> snap_free;
  for (std::uint32_t sh = 0; sh < t.num_shards(); ++sh) {
    snap_free.push_back(t.shard_snap_free(sh));
  }
  const std::uint64_t fl0 = t.freelist_ops();
  const std::uint32_t ids[] = {6, 1};
  AttemptInfo info;
  ASSERT_TRUE(t.try_locks(
      proc, ids, [&c](IdemCtx<RealPlat>& m) { m.store(c, m.load(c) + 1); },
      &info));
  const LockStats s = t.stats();
  EXPECT_EQ(s.fastpath_hits, 1u);
  EXPECT_EQ(s.fastpath_revocations, 0u);
  EXPECT_EQ(s.wins, 1u);
  EXPECT_EQ(c.peek(), 1u);
  EXPECT_TRUE(info.won);
  EXPECT_EQ(t.freelist_ops(), fl0) << "fast path touched a shared freelist";
  for (std::uint32_t sh = 0; sh < t.num_shards(); ++sh) {
    EXPECT_EQ(t.shard_desc_free(sh), t.shard_desc_capacity(sh))
        << "fast path allocated a descriptor in shard " << sh;
    EXPECT_EQ(t.shard_snap_free(sh), snap_free[sh])
        << "fast path climbed an active set in shard " << sh;
  }
  for (std::uint32_t id = 0; id < 16; ++id) {
    EXPECT_EQ(t.thin_word_peek(id), 0u) << "thin word leaked on lock " << id;
  }
}

// Holds a fast publication on the `held` locks while `inner` runs: the
// holder's thunk (run by its owner after the decide, with the thin words
// still published) calls `inner` exactly once — the helper replays of that
// thunk skip it.
template <typename TableT, typename Plat, typename Inner>
bool while_words_held(TableT& t, typename TableT::Process holder,
                      std::span<const std::uint32_t> held,
                      Cell<Plat>& holder_cell, Inner inner) {
  bool entered = false;
  return t.try_locks(holder, held, [&](IdemCtx<Plat>& m) {
    if (!entered) {
      entered = true;
      inner();
    }
    m.store(holder_cell, m.load(holder_cell) + 1);
  });
}

// A word held by another publication sends a multi-lock attempt down the
// descriptor path: the word it had already taken is unwound, its thunk
// runs exactly once there, and every word ends free.
TEST(FastPath, MultiLockHeldWordFallsBack) {
  Table t(off_cfg(2, 2), 2, 8);
  auto holder = t.register_process();
  auto proc = t.register_process();
  Cell<RealPlat> hc{0};
  Cell<RealPlat> c{0};
  int thunk_entries = 0;
  bool won = false;
  const std::uint32_t held[] = {5};
  ASSERT_TRUE(while_words_held(t, holder, held, hc, [&] {
    EXPECT_NE(t.thin_word_peek(5), 0u);
    const std::uint32_t ids[] = {5, 2};  // 2 is taken first, then unwound
    won = t.try_locks(proc, ids, [&](IdemCtx<RealPlat>& m) {
      ++thunk_entries;
      m.store(c, m.load(c) + 1);
    });
  }));
  EXPECT_TRUE(won);
  EXPECT_EQ(thunk_entries, 1);
  EXPECT_EQ(c.peek(), 1u);
  EXPECT_EQ(hc.peek(), 1u);
  const LockStats s = t.stats();
  EXPECT_EQ(s.fastpath_hits, 1u) << "only the holder decided on the fast path";
  EXPECT_EQ(s.wins, 2u);
  std::uint32_t desc_drawn = 0;
  for (std::uint32_t sh = 0; sh < t.num_shards(); ++sh) {
    desc_drawn += t.shard_desc_capacity(sh) - t.shard_desc_free(sh);
  }
  EXPECT_GT(desc_drawn, 0u) << "descriptor path not taken";
  for (std::uint32_t id = 0; id < 8; ++id) {
    EXPECT_EQ(t.thin_word_peek(id), 0u) << "thin word leaked on lock " << id;
  }
}

// A publication observed in two shards cools down through BOTH shards'
// grace periods: reclamation traffic in one shard alone re-arms nothing;
// the fast path resumes only once the second shard's token expires too.
TEST(FastPath, CooldownWaitsForEveryRevokedShard) {
  Table t(off_cfg(2, 2), 2, 16, SpaceSizing{.shards = 4});
  auto owner = t.register_process();
  auto rival = t.register_process();
  Cell<RealPlat> c{0};
  const auto bump = [&c](IdemCtx<RealPlat>& m) { m.store(c, m.load(c) + 1); };
  // The owner publishes {1, 2} (shards 1 and 2); from inside its thunk the
  // rival's attempt observes both words, so both release CASes fail.
  const std::uint32_t pair[] = {1, 2};
  ASSERT_TRUE(while_words_held(t, owner, pair, c, [&] {
    EXPECT_TRUE(t.try_locks(rival, pair, bump));
  }));
  EXPECT_EQ(t.stats().fastpath_revocations, 1u);
  EXPECT_FALSE(t.handle(owner).fast_ready());
  EXPECT_EQ(t.thin_word_peek(1), 0u);
  EXPECT_EQ(t.thin_word_peek(2), 0u);

  // Descriptor-path attempts on lock 1 retire only into shard 1: its token
  // expires, shard 2's does not.
  const std::uint32_t one[] = {1};
  for (int a = 0; a < 200; ++a) ASSERT_TRUE(t.try_locks(owner, one, bump));
  EXPECT_FALSE(t.handle(owner).fast_ready())
      << "re-armed before shard 2's grace period passed";
  const std::uint64_t hits = t.stats().fastpath_hits;
  EXPECT_EQ(hits, 1u) << "a cooling-down owner took the fast path";

  const std::uint32_t two[] = {2};
  for (int a = 0; a < 200 && !t.handle(owner).fast_ready(); ++a) {
    ASSERT_TRUE(t.try_locks(owner, two, bump));
  }
  EXPECT_TRUE(t.handle(owner).fast_ready())
      << "fast path never re-armed after both grace periods";
  ASSERT_TRUE(t.try_locks(owner, pair, bump));
  EXPECT_EQ(t.stats().fastpath_hits, hits + 1);
}

// --- revocation races under the simulator --------------------------------

struct SimRunResult {
  std::uint64_t wins_recorded = 0;       // survivor + victim returned wins
  std::uint64_t victim_recorded = 0;
  std::uint64_t counted = 0;             // critical-section counter
  std::uint64_t flag_violations = 0;     // CS overlap detector
  std::uint64_t fastpath_hits = 0;
  std::uint64_t fastpath_revocations = 0;
  std::uint64_t help_claim_skips = 0;
  bool survivors_finished = false;
  // The crashed victim's leftover publication, if any: how many thin words
  // it still holds, and whether its embedded descriptor was revealed.
  int victim_words = 0;
  bool victim_revealed = false;
};

// `procs` processes hammer the same `locks_per` locks (1 or 2) with kOff
// attempts (all of them fast-path candidates: whoever publishes first
// forces the rest onto the descriptor path, which must observe/revoke the
// thin words). Odd processes name the pair in descending order, so the
// fast path's ascending publish order is exercised. When crash_slot > 0,
// the last process is crashed there — including, across the sweep,
// mid-thunk with the thin words held, the interleaving the revocation
// protocol exists for, and (for pairs) mid-publish. When `windows` is
// non-null, the victim's state is read before every slot is granted, and
// each slot at which it holds thin words of an unrevealed publication is
// appended: a crash there strands the publication mid-publish.
template <typename Plat = TestPlat>
SimRunResult run_contended_sim(int procs, int attempts,
                               std::uint64_t crash_slot, std::uint64_t seed,
                               std::uint32_t locks_per = 1,
                               std::vector<std::uint64_t>* windows = nullptr) {
  using Space = LockTable<Plat>;
  auto space = std::make_unique<Space>(
      off_cfg(static_cast<std::uint32_t>(procs), locks_per), procs, 4);
  auto busy = std::make_unique<Cell<Plat>>(0u);
  auto cnt = std::make_unique<Cell<Plat>>(0u);
  std::vector<std::uint64_t> wins(static_cast<std::size_t>(procs), 0);
  std::uint64_t violations = 0;
  const int victim = crash_slot > 0 ? procs - 1 : -1;
  typename Space::Process victim_proc{};

  Simulator sim(seed);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      auto proc = space->register_process();
      if (p == victim) victim_proc = proc;
      int won_count = 0;
      // Retry until `attempts` wins so every process exercises both the
      // fast and the (contended) descriptor path many times.
      while (won_count < attempts) {
        const std::uint32_t ids[] = {
            locks_per == 1 || p % 2 == 0 ? 0u : 1u, p % 2 == 0 ? 1u : 0u};
        const std::span<const std::uint32_t> locks =
            locks_per == 1 ? std::span<const std::uint32_t>(ids, 1)
                           : std::span<const std::uint32_t>(ids, 2);
        Cell<Plat>* flag = busy.get();
        Cell<Plat>* counter = cnt.get();
        std::uint64_t* viol = &violations;
        const bool won = space->try_locks(
            proc, locks, [flag, counter, viol](IdemCtx<Plat>& m) {
              if (m.load(*flag) != 0) ++*viol;
              m.store(*flag, 1);
              m.store(*counter, m.load(*counter) + 1);
              m.store(*flag, 0);
            });
        if (won) {
          ++won_count;
          ++wins[static_cast<std::size_t>(p)];
        }
      }
    });
  }

  // The victim's leftover publication: thin words it holds, and whether
  // its embedded descriptor was revealed.
  auto victim_state = [&] {
    std::pair<int, bool> st{0, false};
    if (victim_proc.ebr_pid < 0) return st;
    auto& vh = space->handle(victim_proc);
    for (std::uint32_t l = 0; l < 4; ++l) {
      const std::uint64_t w = space->thin_word_peek(l);
      const int owner = static_cast<int>((w >> 1) & 0x7FFF) - 1;
      if (w != 0 && owner == vh.pid()) ++st.first;
    }
    st.second = vh.fast_desc().priority.peek() > 0;
    return st;
  };
  struct WindowProbe final : Schedule {
    Schedule* inner;
    std::function<std::pair<int, bool>()> state;
    std::vector<std::uint64_t>* out;
    std::uint64_t slot = 0;
    int next() override {
      const auto [words, revealed] = state();
      if (words > 0 && !revealed) out->push_back(slot);
      ++slot;
      return inner->next();
    }
  };

  UniformSchedule inner(procs, seed);
  SimRunResult res;
  if (victim >= 0) {
    CrashSchedule crash(inner, procs, {{victim, crash_slot}}, seed ^ 0xBEEF);
    WindowProbe probe;
    probe.inner = &crash;
    probe.state = victim_state;
    probe.out = windows;
    Schedule& sched = windows != nullptr ? static_cast<Schedule&>(probe)
                                         : static_cast<Schedule&>(crash);
    for (;;) {
      bool survivors_done = true;
      for (int p = 0; p < procs - 1; ++p) {
        survivors_done = survivors_done && sim.is_finished(p);
      }
      if (survivors_done) {
        res.survivors_finished = true;
        break;
      }
      if (!sim.run(sched, 400'000'000, sim.finished_count() + 1)) break;
    }
    std::tie(res.victim_words, res.victim_revealed) = victim_state();
    if (victim_proc.ebr_pid >= 0 && !sim.is_finished(victim)) {
      space->abandon_process(victim_proc);
    }
  } else {
    res.survivors_finished = sim.run(inner, 400'000'000);
  }

  for (int p = 0; p < procs; ++p) {
    res.wins_recorded += wins[static_cast<std::size_t>(p)];
    if (p == victim) res.victim_recorded = wins[static_cast<std::size_t>(p)];
  }
  res.counted = cnt->peek();
  res.flag_violations = violations;
  const LockStats s = space->stats();
  res.fastpath_hits = s.fastpath_hits;
  res.fastpath_revocations = s.fastpath_revocations;
  res.help_claim_skips = s.help_claim_skips;
  return res;
}

// Crash-free contention: every won attempt's critical section runs exactly
// once (counter == wins), sections never overlap, and the sweep actually
// exercised both the fast path and revocations.
TEST(FastPath, ContendedSimConservesAndRevokes) {
  std::uint64_t total_hits = 0;
  std::uint64_t total_revocations = 0;
  std::uint64_t total_claim_skips = 0;
  for (const std::uint64_t seed : {7ull, 21ull, 1234ull}) {
    const SimRunResult r = run_contended_sim(3, 12, 0, seed);
    ASSERT_TRUE(r.survivors_finished);
    EXPECT_EQ(r.flag_violations, 0u) << "overlapping critical sections";
    EXPECT_EQ(r.counted, r.wins_recorded) << "lost or duplicated update";
    total_hits += r.fastpath_hits;
    total_revocations += r.fastpath_revocations;
    total_claim_skips += r.help_claim_skips;
  }
  EXPECT_GT(total_hits, 0u) << "fast path never engaged under the sweep";
  EXPECT_GT(total_revocations, 0u)
      << "contenders never revoked a thin word under the sweep";
  EXPECT_GT(total_claim_skips, 0u)
      << "cooperative helping never ceded a drive to the claim holder";
}

// Determinism: the fast path must not perturb simulator reproducibility.
TEST(FastPath, ContendedSimIsDeterministic) {
  const SimRunResult a = run_contended_sim(3, 8, 0, 99);
  const SimRunResult b = run_contended_sim(3, 8, 0, 99);
  EXPECT_EQ(a.counted, b.counted);
  EXPECT_EQ(a.fastpath_hits, b.fastpath_hits);
  EXPECT_EQ(a.fastpath_revocations, b.fastpath_revocations);
  EXPECT_EQ(a.help_claim_skips, b.help_claim_skips);
}

// The revocation-race sweep: the victim crashes at slots chosen to land
// before, inside, and after its attempts — including holding the thin word
// with its thunk half-run, where a contender must revoke, replay the
// winner's thunk through the idempotence log, and move on. Survivors must
// always finish (no wedge) with exact accounting up to the single
// in-flight attempt.
class FastPathCrashSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(FastPathCrashSweep, SurvivorsFinishAndStayExact) {
  const std::uint64_t crash_slot = std::get<0>(GetParam());
  const auto seed = static_cast<std::uint64_t>(std::get<1>(GetParam()));
  const SimRunResult r = run_contended_sim(3, 10, crash_slot, seed);
  EXPECT_TRUE(r.survivors_finished)
      << "a crashed thin-word owner wedged the lock";
  EXPECT_EQ(r.flag_violations, 0u) << "overlapping critical sections";
  // The victim's one in-flight attempt may have been completed by a
  // helper after the crash (counted but not recorded).
  EXPECT_GE(r.counted, r.wins_recorded);
  EXPECT_LE(r.counted, r.wins_recorded + 1);
}

INSTANTIATE_TEST_SUITE_P(
    PhaseAndSeed, FastPathCrashSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 25, 120, 600,
                                                        3'000, 15'000),
                       ::testing::Values(1, 2, 5)),
    [](const ::testing::TestParamInfo<FastPathCrashSweep::ParamType>& info) {
      return "slot" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// The slots at which a crash of the victim strands a multi-lock fast
// publish, read off one uncrashed run of the same schedule: a crash at
// slot s leaves the victim exactly as it was before slot s was granted.
// The run is SimPlat with no race engine attached (the checked twin
// installs one for the whole binary, and the probe's quiescent peeks run
// mid-simulation).
std::vector<std::uint64_t> publish_windows(std::uint64_t seed) {
  race::RaceEngine* eng = race::engine();
  if (eng != nullptr) eng->uninstall();
  std::vector<std::uint64_t> windows;
  run_contended_sim<SimPlat>(3, 10, ~std::uint64_t{0}, seed, 2, &windows);
  if (eng != nullptr) eng->install();
  return windows;
}

// The two-lock crash sweep: crashes the victim at every slot that lands
// inside a multi-lock fast publish — between its two publish CASes (one
// word held, unrevealed) or between the last CAS and the reveal (both
// words held, unrevealed). The windows are found, not pinned, so a change
// to the number of steps an engine path takes moves them without breaking
// the test. The stranded unflagged publication must be invisible to rivals
// (they never help or duel it, so nothing of the victim's runs: cells ==
// wins exactly) and must not wedge anyone (fast attempts route around its
// held words).
TEST(FastPathCrashSweepL2, MidPublishCrashIsInvisible) {
  int total = 0;
  for (const std::uint64_t seed : {1u, 2u}) {
    bool held[3] = {false, false, false};
    for (const std::uint64_t slot : publish_windows(seed)) {
      SCOPED_TRACE("slot " + std::to_string(slot) + " seed " +
                   std::to_string(seed));
      const SimRunResult r = run_contended_sim(3, 10, slot, seed, 2);
      ASSERT_TRUE(r.victim_words == 1 || r.victim_words == 2)
          << "crash slot did not land in the observed publish window";
      EXPECT_FALSE(r.victim_revealed);
      EXPECT_TRUE(r.survivors_finished)
          << "a half-published multi-lock attempt wedged the locks";
      EXPECT_EQ(r.flag_violations, 0u) << "overlapping critical sections";
      EXPECT_EQ(r.counted, r.wins_recorded) << "lost or duplicated update";
      held[r.victim_words] = true;
      ++total;
    }
    EXPECT_TRUE(held[1]) << "seed " << seed
                         << ": no crash landed between the publish CASes";
    EXPECT_TRUE(held[2]) << "seed " << seed
                         << ": no crash landed between publish and reveal";
  }
  EXPECT_GE(total, 6);
}

// After a revocation the embedded descriptor cools down through a grace
// period — and once it expires, the fast path RESUMES (the cooldown is a
// pause, not a permanent demotion).
TEST(FastPath, CooldownResumesAfterGrace) {
  auto space = std::make_unique<SimTable>(off_cfg(2, 1), 2, 4);
  auto c = std::make_unique<Cell<TestPlat>>(0u);
  std::uint64_t hits_after_contention = 0;

  Simulator sim(31);
  sim.add_process([&] {
    auto proc = space->register_process();
    // Phase 1: contended window (proc 1 racing on the same lock).
    for (int a = 0; a < 200; ++a) {
      const std::uint32_t ids[] = {0};
      space->try_locks(proc, ids, [&](IdemCtx<TestPlat>& m) {
        m.store(*c, m.load(*c) + 1);
      });
    }
    // Phase 2: alone. Descriptor-path attempts keep retiring into the EBR
    // pipeline, so any pending cooldown token drains and the fast path
    // must come back.
    const std::uint64_t hits_before = space->stats().fastpath_hits;
    for (int a = 0; a < 400; ++a) {
      const std::uint32_t ids[] = {0};
      space->try_locks(proc, ids, [&](IdemCtx<TestPlat>& m) {
        m.store(*c, m.load(*c) + 1);
      });
    }
    hits_after_contention = space->stats().fastpath_hits - hits_before;
  });
  sim.add_process([&] {
    auto proc = space->register_process();
    for (int a = 0; a < 150; ++a) {
      const std::uint32_t ids[] = {0};
      space->try_locks(proc, ids, [&](IdemCtx<TestPlat>& m) {
        m.store(*c, m.load(*c) + 1);
      });
    }
  });
  UniformSchedule sched(2, 31);
  ASSERT_TRUE(sim.run(sched, 400'000'000));
  EXPECT_GT(hits_after_contention, 0u)
      << "fast path never resumed after cooldown";
}

// AttemptInfo::total_steps covers the whole attempt, including a fast try
// that found a word held: its publish CAS, its unwind and the descriptor
// path together equal the caller's own step delta across try_locks.
TEST(FastPath, TotalStepsCountsFailedFastPublish) {
  auto space = std::make_unique<SimTable>(off_cfg(2, 2), 2, 8);
  auto hc = std::make_unique<Cell<TestPlat>>(0u);
  auto c = std::make_unique<Cell<TestPlat>>(0u);
  std::uint64_t delta = 0;
  AttemptInfo info;
  bool won = false;
  Simulator sim(5);
  sim.add_process([&] {
    auto holder = space->register_process();
    auto proc = space->register_process();
    const std::uint32_t held[] = {5};
    while_words_held(*space, holder, held, *hc, [&] {
      const std::uint32_t ids[] = {2, 5};
      const std::uint64_t s0 = TestPlat::steps();
      won = space->try_locks(
          proc, ids,
          [&c](IdemCtx<TestPlat>& m) { m.store(*c, m.load(*c) + 1); }, &info);
      delta = TestPlat::steps() - s0;
    });
  });
  RoundRobinSchedule sched(1);
  ASSERT_TRUE(sim.run(sched, 10'000'000));
  EXPECT_TRUE(won);
  EXPECT_EQ(c->peek(), 1u);
  EXPECT_EQ(space->stats().fastpath_hits, 1u) << "only the holder is fast";
  EXPECT_EQ(info.total_steps, delta);
}

// --- cooperative helping --------------------------------------------------

// Under real-thread contention the claim protocol must engage (helpers
// skip redundant drives) while conservation stays exact — the claim is
// advisory and can never change an outcome.
TEST(HelpClaim, EngagesUnderContentionAndConserves) {
  const int threads = 4;
  const int per_thread = 400;
  auto t = std::make_unique<Table>(off_cfg(threads, 1), threads, 2);
  ASSERT_TRUE(t->cooperative_help_enabled());
  Cell<RealPlat> cnt{0};
  std::atomic<std::uint64_t> wins{0};
  std::vector<std::thread> ts;
  for (int k = 0; k < threads; ++k) {
    ts.emplace_back([&, k] {
      RealPlat::seed_rng(0x5EED + static_cast<std::uint64_t>(k));
      auto proc = t->register_process();
      std::uint64_t local = 0;
      for (int a = 0; a < per_thread; ++a) {
        const std::uint32_t ids[] = {0};
        local += t->try_locks(proc, ids, [&cnt](IdemCtx<RealPlat>& m) {
          m.store(cnt, m.load(cnt) + 1);
        });
      }
      wins.fetch_add(local);
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(cnt.peek(), wins.load()) << "lost or duplicated update";
  // Engagement (helps/skips/revocations > 0) is NOT asserted here: on a
  // single-core runner the OS can serialize the threads so completely that
  // no attempt ever overlaps another. The deterministic engagement
  // assertions live in the sim tests above/below.
}

// A crashed process that may hold help claims (it is helping others
// whenever it runs) must not stall anyone: patience-bounded revocation
// means survivors always finish. The contended crash sweep above already
// crashes claimers at arbitrary points; this adds more processes so claims
// are plentiful.
TEST(HelpClaim, CrashedClaimerIsRevoked) {
  for (const std::uint64_t crash_slot : {400ull, 2'000ull, 9'000ull}) {
    const SimRunResult r = run_contended_sim(4, 8, crash_slot, 13);
    EXPECT_TRUE(r.survivors_finished)
        << "a dead claimer wedged the competition at slot " << crash_slot;
    EXPECT_EQ(r.flag_violations, 0u);
    EXPECT_GE(r.counted, r.wins_recorded);
    EXPECT_LE(r.counted, r.wins_recorded + 1);
  }
}

// --- batched submission ---------------------------------------------------

struct BatchSimOut {
  std::uint64_t steps = 0;
  std::uint64_t wins = 0;
  std::uint32_t counters[3] = {};
};

// One process, three single-lock ops over three cells, submitted either as
// a loop of submit() calls or as one submit_batch. The batch's pre-entered
// guard is outside the step model, so the two executions must be
// step-for-step identical.
BatchSimOut run_batch_sim(bool batched, std::uint64_t seed) {
  BatchSimOut out;
  auto space = std::make_unique<SimTable>(off_cfg(2, 2), 2, 8);
  std::vector<std::unique_ptr<Cell<TestPlat>>> cells;
  for (int i = 0; i < 3; ++i) {
    cells.push_back(std::make_unique<Cell<TestPlat>>(0u));
  }
  Simulator sim(seed);
  sim.add_process([&] {
    BasicSession<SimTable> session(*space);
    using Op = PreparedOp<TestPlat>;
    std::vector<Op> ops;
    for (std::uint32_t i = 0; i < 3; ++i) {
      Cell<TestPlat>* cell = cells[i].get();
      const StaticLockSet<1> locks{i};
      ops.push_back(Op(locks, [cell](IdemCtx<TestPlat>& m) {
        m.store(*cell, m.load(*cell) + 1);
      }));
    }
    for (int round = 0; round < 8; ++round) {
      if (batched) {
        const BatchOutcome o = submit_batch(
            session, std::span<const Op>(ops.data(), ops.size()),
            Policy::retry());
        out.wins += o.wins;
      } else {
        for (const Op& op : ops) {
          const Outcome o =
              submit(session, op.locks(), op.armed(), Policy::retry());
          out.wins += o.won ? 1 : 0;
        }
      }
    }
  });
  RoundRobinSchedule sched(1);
  EXPECT_TRUE(sim.run(sched, 100'000'000));
  out.steps = sim.steps_of(0);
  for (int i = 0; i < 3; ++i) out.counters[i] = cells[i]->peek();
  return out;
}

TEST(Batch, StepForStepEquivalentToSubmitLoop) {
  const BatchSimOut loop = run_batch_sim(false, 2022);
  const BatchSimOut batch = run_batch_sim(true, 2022);
  EXPECT_EQ(loop.steps, batch.steps)
      << "submit_batch changed the op-visible step sequence";
  EXPECT_EQ(loop.wins, batch.wins);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(loop.counters[i], batch.counters[i]);
  }
}

TEST(Batch, PerOpOutcomesAndAggregates) {
  Table t(off_cfg(2, 2), 2, 8);
  BasicSession<Table> session(t);
  Cell<RealPlat> a{0}, b{0};
  using Op = PreparedOp<RealPlat>;
  const StaticLockSet<1> la{1};
  const StaticLockSet<2> lab{1, 2};
  Cell<RealPlat>* ap = &a;
  Cell<RealPlat>* bp = &b;
  const Op ops[] = {
      Op(la, [ap](IdemCtx<RealPlat>& m) { m.store(*ap, m.load(*ap) + 1); }),
      Op(lab,
         [ap, bp](IdemCtx<RealPlat>& m) {
           m.store(*ap, m.load(*ap) + 1);
           m.store(*bp, m.load(*bp) + 1);
         }),
      Op(la, [ap](IdemCtx<RealPlat>& m) { m.store(*ap, m.load(*ap) + 2); }),
  };
  Outcome per_op[3];
  const BatchOutcome o =
      submit_batch(session, std::span<const Op>(ops, 3), Policy::retry(),
                   per_op);
  EXPECT_TRUE(static_cast<bool>(o));
  EXPECT_EQ(o.ops, 3u);
  EXPECT_EQ(o.wins, 3u);
  std::uint64_t attempts = 0, steps = 0;
  for (const Outcome& po : per_op) {
    EXPECT_TRUE(po.won);
    attempts += po.attempts;
    steps += po.total_steps;
  }
  EXPECT_EQ(o.attempts, attempts);
  EXPECT_EQ(o.total_steps, steps);
  EXPECT_EQ(a.peek(), 4u);
  EXPECT_EQ(b.peek(), 1u);
}

TEST(Batch, TxnBatchRunsPrograms) {
  Table t(off_cfg(2, 2, 8), 2, 8);
  Session<RealPlat> session(t);
  Cell<RealPlat> x{0}, y{0};
  const std::uint32_t lx[] = {0};
  const std::uint32_t ly[] = {1};
  std::vector<PreparedTxn<RealPlat>> txns;
  TxnBuilder<RealPlat> b1;
  b1.op(lx, [&x](IdemCtx<RealPlat>& m) { m.store(x, m.load(x) + 1); });
  txns.push_back(std::move(b1).build());
  TxnBuilder<RealPlat> b2;
  b2.op(ly, [&y](IdemCtx<RealPlat>& m) { m.store(y, m.load(y) + 10); });
  txns.push_back(std::move(b2).build());
  const BatchOutcome o = submit_txn_batch<RealPlat>(
      session, std::span<PreparedTxn<RealPlat>>(txns.data(), txns.size()),
      Policy::retry());
  EXPECT_EQ(o.wins, 2u);
  EXPECT_EQ(x.peek(), 1u);
  EXPECT_EQ(y.peek(), 10u);
}

// The Bank substrate's batch entry point conserves money under real-thread
// contention — the canonical lost/duplicated-update detector, now through
// submit_batch.
TEST(Batch, BankTransferBatchConserves) {
  const int threads = 4;
  const std::uint32_t accounts = 8;
  BackendConfig bc;
  bc.lock = off_cfg(threads, 2);
  bc.max_procs = threads;
  bc.num_locks = static_cast<int>(accounts);
  auto space = WflBackend<RealPlat>::make_space(bc);
  Bank<WflBackend<RealPlat>> bank(*space, accounts, 1000);
  std::vector<std::thread> ts;
  for (int k = 0; k < threads; ++k) {
    ts.emplace_back([&, k] {
      RealPlat::seed_rng(0xABCD + static_cast<std::uint64_t>(k));
      BasicSession<Table> session(*space);
      Xoshiro256 rng(17 * k + 5);
      using Transfer = Bank<WflBackend<RealPlat>>::Transfer;
      for (int round = 0; round < 40; ++round) {
        std::vector<Transfer> xs;
        for (int i = 0; i < 12; ++i) {
          const auto from =
              static_cast<std::uint32_t>(rng.next_below(accounts));
          auto to = static_cast<std::uint32_t>(rng.next_below(accounts));
          if (to == from) to = (to + 1) % accounts;
          xs.push_back(Transfer{
              from, to, static_cast<std::uint32_t>(rng.next_below(20))});
        }
        const BatchOutcome o = bank.transfer_batch(
            session, std::span<const Transfer>(xs.data(), xs.size()),
            Policy::retry());
        EXPECT_EQ(o.wins, o.ops);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(bank.total_balance(), bank.expected_total());
}

TEST(Batch, HashMapPutBatch) {
  BackendConfig bc;
  bc.lock = off_cfg(2, 2, LockedHashMap<RealPlat>::thunk_step_budget());
  bc.max_procs = 2;
  bc.num_locks = 8;
  auto space = WflBackend<RealPlat>::make_space(bc);
  LockedHashMap<WflBackend<RealPlat>> map(*space, 8, 256);
  BasicSession<Table> session(*space);
  using Put = LockedHashMap<WflBackend<RealPlat>>::Put;
  std::vector<Put> puts;
  for (std::uint64_t k = 0; k < 40; ++k) {
    puts.push_back(Put{k, static_cast<std::uint32_t>(100 + k)});
  }
  puts.push_back(Put{7, 999});  // duplicate key: must report kMapExists
  std::vector<std::uint32_t> results(puts.size(), kMapPending);
  const BatchOutcome o = map.put_batch(
      session, std::span<const Put>(puts.data(), puts.size()),
      results.data());
  EXPECT_EQ(o.wins, o.ops);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(results[i], kMapOk) << "put " << i;
  }
  EXPECT_EQ(results[40], kMapExists);
  std::uint32_t v = 0;
  EXPECT_EQ(map.get_locked(session, 7, &v), kMapOk);
  EXPECT_EQ(v, 999u);
  EXPECT_EQ(map.get_locked(session, 39, &v), kMapOk);
  EXPECT_EQ(v, 139u);
}

}  // namespace
}  // namespace wfl
