// The table core shared by both lock spaces (core/table_core.hpp): one
// process registry, one shard store and one degenerate-attempt path, run
// as a typed suite over the known-bounds LockTable and the §6.2
// AdaptiveLockSpace.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <type_traits>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

// Both spaces built for the descriptor path (the thin-word fast path would
// skip the slot caches these tests watch), with several shards where the
// space has them.
template <typename Space>
struct SpaceMaker;

template <>
struct SpaceMaker<LockTable<RealPlat>> {
  static std::unique_ptr<LockTable<RealPlat>> make(int procs) {
    LockConfig cfg;
    cfg.kappa = static_cast<std::uint32_t>(procs);
    cfg.max_locks = 1;
    cfg.max_thunk_steps = 8;
    cfg.delay_mode = DelayMode::kOff;
    cfg.fast_path = false;
    return std::make_unique<LockTable<RealPlat>>(cfg, procs, 16,
                                                 SpaceSizing{.shards = 4});
  }
};

template <>
struct SpaceMaker<AdaptiveLockSpace<RealPlat>> {
  static std::unique_ptr<AdaptiveLockSpace<RealPlat>> make(int procs) {
    return std::make_unique<AdaptiveLockSpace<RealPlat>>(procs, 16);
  }
};

template <typename Space>
class TableCoreTest : public ::testing::Test {
 protected:
  using Process = typename Space::Process;

  std::unique_ptr<Space> space = SpaceMaker<Space>::make(3);
  Cell<RealPlat> cell{0};

  bool bump(Process p, std::uint32_t lock_id) {
    const std::uint32_t ids[] = {lock_id};
    Cell<RealPlat>* c = &cell;
    return space->try_locks(p, ids, [c](IdemCtx<RealPlat>& m) {
      m.store(*c, m.load(*c) + 1);
    });
  }
};

using Spaces =
    ::testing::Types<LockTable<RealPlat>, AdaptiveLockSpace<RealPlat>>;

class SpaceName {
 public:
  template <typename T>
  static std::string GetName(int) {
    return std::is_same_v<T, LockTable<RealPlat>> ? "LockTable" : "Adaptive";
  }
};

TYPED_TEST_SUITE(TableCoreTest, Spaces, SpaceName);

// An empty lock set has nothing to contend on: the thunk runs alone, the
// attempt is a win with zero work, and both facts are reported — through
// AttemptInfo and through the stats — exactly like any other win.
TYPED_TEST(TableCoreTest, EmptyLockSetIsAWinWithZeroWork) {
  auto p = this->space->register_process();
  Cell<RealPlat>* c = &this->cell;
  AttemptInfo info{false, 7, 7, 7};
  EXPECT_TRUE(this->space->try_locks(
      p, std::span<const std::uint32_t>{},
      [c](IdemCtx<RealPlat>& m) { m.store(*c, m.load(*c) + 1); }, &info));
  EXPECT_EQ(this->cell.peek(), 1u);
  EXPECT_TRUE(info.won);
  EXPECT_EQ(info.pre_reveal_work, 0u);
  EXPECT_EQ(info.post_reveal_work, 0u);
  EXPECT_EQ(info.total_steps, 0u);
  const LockStats s = this->space->stats();
  EXPECT_EQ(s.attempts, 1u);
  EXPECT_EQ(s.wins, 1u);
  EXPECT_EQ(s.thunk_runs, 1u);
}

// Fresh pids come out in ascending order and released ones are reused
// last-in first-out, handle and all: the table's stats never go backwards
// across session generations.
TYPED_TEST(TableCoreTest, LifoPidReuseKeepsStatsMonotone) {
  auto p0 = this->space->register_process();
  auto p1 = this->space->register_process();
  EXPECT_EQ(p0.ebr_pid, 0);
  EXPECT_EQ(p1.ebr_pid, 1);
  EXPECT_TRUE(this->bump(p0, 0));
  EXPECT_TRUE(this->bump(p1, 5));
  const LockStats gen1 = this->space->stats();
  EXPECT_EQ(gen1.attempts, 2u);
  EXPECT_EQ(gen1.wins, 2u);

  this->space->release_process(p0);
  this->space->release_process(p1);
  auto q1 = this->space->register_process();
  auto q0 = this->space->register_process();
  EXPECT_EQ(q1.ebr_pid, 1) << "the last pid released is the first reused";
  EXPECT_EQ(q0.ebr_pid, 0);
  EXPECT_EQ(this->space->stats().attempts, gen1.attempts);

  EXPECT_TRUE(this->bump(q0, 5));
  EXPECT_TRUE(this->bump(q1, 0));
  const LockStats gen2 = this->space->stats();
  EXPECT_EQ(gen2.attempts, gen1.attempts + 2);
  EXPECT_EQ(gen2.wins, gen1.wins + 2);
  EXPECT_EQ(this->cell.peek(), 4u);
}

// A release while a guard is held is the crash-parked shape: the pid is
// retired, and the next registration gets a fresh one that works in every
// shard (its participant ids line up with its pid).
TYPED_TEST(TableCoreTest, CrashParkedReleaseRetiresThePid) {
  auto p0 = this->space->register_process();
  auto p1 = this->space->register_process();
  EXPECT_TRUE(this->bump(p0, 0));
  this->space->ebr_enter(p0);
  this->space->release_process(p0);

  auto p2 = this->space->register_process();
  EXPECT_EQ(p2.ebr_pid, 2) << "a crash-parked pid must not be recycled";
  for (std::uint32_t id = 0; id < 8; ++id) EXPECT_TRUE(this->bump(p2, id));

  this->space->release_process(p1);
  auto p3 = this->space->register_process();
  EXPECT_EQ(p3.ebr_pid, p1.ebr_pid) << "an orderly pid is reused";
  EXPECT_EQ(this->cell.peek(), 9u);
}

// Cached slots must never leak: an orderly session release AND a
// crash-abandoned process (released while parked inside a guard) both
// spill their caches back to the shared pools.
TYPED_TEST(TableCoreTest, CachedSlotsSpillOnRelease) {
  // Orderly: run enough attempts to populate the caches, then release.
  auto p0 = this->space->register_process();
  for (int a = 0; a < 300; ++a) this->bump(p0, 0);
  EXPECT_GT(this->space->cached_slots(p0), 0u) << "caches never engaged";
  this->space->release_process(p0);
  EXPECT_EQ(this->space->cached_slots(p0), 0u)
      << "orderly release leaked cached slots";

  // Crash-abandoned: reuse the freed slot, warm it up again, then release
  // while an inspector guard is held — the parked path must spill too,
  // because the pid is retired forever and nothing could ever reuse the
  // cache.
  auto p1 = this->space->register_process();
  for (int a = 0; a < 300; ++a) this->bump(p1, 4);
  EXPECT_GT(this->space->cached_slots(p1), 0u);
  this->space->ebr_enter(p1);  // leaves guard depth nonzero
  this->space->release_process(p1);
  EXPECT_EQ(this->space->cached_slots(p1), 0u)
      << "crash-abandoned release leaked cached slots";
}

// max_procs bounds the pids ever issued: live sessions beyond it abort,
// and so does a registration whose only free pid was retired by a crash.
TYPED_TEST(TableCoreTest, RegisteringPastMaxProcsAborts) {
  using Space = TypeParam;
  EXPECT_DEATH(
      {
        auto s = SpaceMaker<Space>::make(2);
        (void)s->register_process();
        (void)s->register_process();
        (void)s->register_process();
      },
      "max_procs");
  EXPECT_DEATH(
      {
        auto s = SpaceMaker<Space>::make(2);
        auto p = s->register_process();
        (void)s->register_process();
        s->ebr_enter(p);
        s->release_process(p);
        (void)s->register_process();
      },
      "max_procs");
}

}  // namespace
}  // namespace wfl
