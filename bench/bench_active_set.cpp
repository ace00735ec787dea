// E7 — Theorem 5.2: active-set step complexity is adaptive — insert/remove
// cost O(k) for k resident members, getSet cost O(1).
//
// The benchmark varies the resident set size k and times an insert+remove
// pair (expected ~linear in k: the slot probe walks past k owners and the
// climb rebuilds k-sized snapshots) and a getSet (expected flat). The
// *Arena rows run the same loops with the slots, snapshot pool and EBR
// domain laid into a ShmArena (the shared-memory table's placement), so
// each placement's cost shows side by side.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>

#include "bench_json.hpp"
#include "wfl/active/active_set.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/util/shm.hpp"

namespace {

using namespace wfl;  // NOLINT: bench file, local scope

constexpr std::uint32_t kCap = 64;
constexpr std::uint32_t kSnapSlots = 8192;
constexpr std::uint32_t kPairsPerGuard = 8;

struct Item {
  int id = 0;
};

// Heap placement, with pointer items as the in-process lock tables use.
struct Owned {
  using Set = ActiveSet<RealPlat, Item*>;
  IndexPool<Set::Snap> pool{kSnapSlots};
  EbrDomain ebr{2};
  SetMem<Item*> mem{pool, ebr};
  Set set{kCap, mem};
  Item items[kCap + 1];  // the last one is the insert/remove probe

  Item* item(std::uint32_t i) { return &items[i]; }
};

// Arena placement, with the address-free owner words (1..65) the
// shared-memory table uses.
struct Arena {
  using Set = ActiveSet<RealPlat, std::uint32_t>;
  ShmArena arena = ShmArena::create_anon(8u << 20);
  IndexPool<Set::Snap> pool{arena,
                            IndexPool<Set::Snap>::create_in(arena, kSnapSlots)};
  EbrDomain ebr{arena, EbrDomain::create_in(arena, 2)};
  SetMem<std::uint32_t> mem{pool, ebr};
  Set set{arena, Set::create_in(arena, kCap), mem};

  std::uint32_t item(std::uint32_t i) { return i + 1; }
};

// Pre-populates k resident members in the low slots.
template <typename F>
int populate(F& f, std::uint32_t k) {
  const int pid = f.ebr.register_participant();
  f.ebr.enter(pid);
  for (std::uint32_t i = 0; i < k; ++i) f.set.insert(f.item(i), pid);
  return pid;
}

template <typename F>
void insert_remove_pair(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  auto f = std::make_unique<F>();
  const int pid = populate(*f, k);
  std::uint32_t pairs = 0;
  for (auto _ : state) {
    const int slot = f->set.insert(f->item(kCap), pid);
    f->set.remove(slot, pid);
    // Bounce the guard now and then so retired snapshots are reclaimed:
    // a guard held across the whole loop pins the epoch, and the pool
    // would grow (owned) or run dry (arena) instead.
    if (++pairs % kPairsPerGuard == 0) {
      f->ebr.exit(pid);
      f->ebr.enter(pid);
    }
  }
  f->ebr.exit(pid);
  f->ebr.collect(pid);
  state.SetLabel("resident=" + std::to_string(k));
}

template <typename F>
void get_set(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  auto f = std::make_unique<F>();
  const int pid = populate(*f, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f->set.get_set());
  }
  f->ebr.exit(pid);
  state.SetLabel("resident=" + std::to_string(k));
}

void BM_InsertRemovePair(benchmark::State& state) {
  insert_remove_pair<Owned>(state);
}
void BM_InsertRemovePairArena(benchmark::State& state) {
  insert_remove_pair<Arena>(state);
}
void BM_GetSet(benchmark::State& state) { get_set<Owned>(state); }
void BM_GetSetArena(benchmark::State& state) { get_set<Arena>(state); }

BENCHMARK(BM_InsertRemovePair)->Arg(0)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_InsertRemovePairArena)->Arg(0)->Arg(4)->Arg(32);
BENCHMARK(BM_GetSet)->Arg(0)->Arg(4)->Arg(16)->Arg(32);
BENCHMARK(BM_GetSetArena)->Arg(0)->Arg(4)->Arg(32);

}  // namespace

WFL_BENCH_JSON_MAIN()
