// E14 — substrate micro-costs: the pool, reclamation and idempotence-log
// primitives every tryLock attempt is built from. These are the "constant
// factors" behind substitution #2 in DESIGN.md (pool/EBR operations are
// not counted as model steps); this table keeps us honest that they are
// in fact small constants, not hidden O(n) work. The *Arena rows run the
// same operation against the arena placement (the shared-memory table's
// pools and domain), so each placement's cost shows side by side.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_json.hpp"
#include "wfl/idem/cell.hpp"
#include "wfl/idem/idem.hpp"
#include "wfl/mem/arena.hpp"
#include "wfl/mem/ebr.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/util/shm.hpp"

namespace {

using namespace wfl;  // NOLINT: bench file, local scope

void pool_alloc_free(benchmark::State& state,
                     IndexPool<std::uint64_t>& pool) {
  for (auto _ : state) {
    const std::uint32_t idx = pool.alloc();
    benchmark::DoNotOptimize(pool.at(idx));
    pool.free(idx);
  }
}

void BM_PoolAllocFree(benchmark::State& state) {
  IndexPool<std::uint64_t> pool(1024);
  pool_alloc_free(state, pool);
}
BENCHMARK(BM_PoolAllocFree);

void BM_PoolAllocFreeArena(benchmark::State& state) {
  ShmArena arena = ShmArena::create_anon(1u << 20);
  IndexPool<std::uint64_t> pool(
      arena, IndexPool<std::uint64_t>::create_in(arena, 1024));
  pool_alloc_free(state, pool);
}
BENCHMARK(BM_PoolAllocFreeArena);

void BM_PoolAllocFreeBatch64(benchmark::State& state) {
  // Batched alloc keeps 64 slots live — exercises freelist traffic beyond
  // the single-hot-slot case.
  IndexPool<std::uint64_t> pool(1024);
  std::uint32_t idx[64];
  for (auto _ : state) {
    for (auto& i : idx) i = pool.alloc();
    for (const auto i : idx) pool.free(i);
  }
}
BENCHMARK(BM_PoolAllocFreeBatch64);

void BM_PoolGrowthColdStart(benchmark::State& state) {
  // Cost of demand growth: drain a small pool far past its initial
  // capacity once per iteration.
  for (auto _ : state) {
    state.PauseTiming();
    IndexPool<std::uint64_t> pool(256);
    std::vector<std::uint32_t> held;
    held.reserve(4096);
    state.ResumeTiming();
    for (int i = 0; i < 4096; ++i) held.push_back(pool.alloc());
    benchmark::DoNotOptimize(held.data());
    state.PauseTiming();
    for (const auto i : held) pool.free(i);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_PoolGrowthColdStart)->Unit(benchmark::kMicrosecond);

void ebr_enter_exit(benchmark::State& state, EbrDomain& ebr) {
  const int pid = ebr.register_participant();
  for (auto _ : state) {
    ebr.enter(pid);
    ebr.exit(pid);
  }
}

void BM_EbrEnterExit(benchmark::State& state) {
  EbrDomain ebr(1);
  ebr_enter_exit(state, ebr);
}
BENCHMARK(BM_EbrEnterExit);

void BM_EbrEnterExitArena(benchmark::State& state) {
  ShmArena arena = ShmArena::create_anon(1u << 20);
  EbrDomain ebr(arena, EbrDomain::create_in(arena, 1));
  ebr_enter_exit(state, ebr);
}
BENCHMARK(BM_EbrEnterExitArena);

void BM_EbrRetireCycle(benchmark::State& state) {
  IndexPool<std::uint64_t> pool(4096);
  EbrDomain ebr(1);
  const int pid = ebr.register_participant();
  for (auto _ : state) {
    const std::uint32_t idx = pool.alloc();
    ebr.enter(pid);
    ebr.exit(pid);
    ebr.retire(
        pid, &pool, idx, +[](void* ctx, std::uint32_t h) {
          static_cast<IndexPool<std::uint64_t>*>(ctx)->free(h);
        });
  }
}
BENCHMARK(BM_EbrRetireCycle);

void BM_CellRawOps(benchmark::State& state) {
  Cell<RealPlat> cell{1};
  for (auto _ : state) {
    const std::uint64_t raw = cell.raw_load();
    benchmark::DoNotOptimize(raw);
    cell.raw_cas(raw, cell_pack(cell_value(raw) + 1, cell_tag(raw) + 1));
  }
}
BENCHMARK(BM_CellRawOps);

void BM_ThunkLogAgreeFresh(benchmark::State& state) {
  // First-arrival agreement: CAS + load per slot (the common case for the
  // owner's run).
  ThunkLog<RealPlat> log;
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.agree(i, 42));
    if (++i == kThunkLogCap) {
      state.PauseTiming();
      log.reset();
      i = 0;
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_ThunkLogAgreeFresh);

void BM_ThunkLogAgreeDecided(benchmark::State& state) {
  // Helper-replay agreement: slot already decided, pure load.
  ThunkLog<RealPlat> log;
  log.agree(0, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.agree(0, 43));
  }
}
BENCHMARK(BM_ThunkLogAgreeDecided);

}  // namespace

WFL_BENCH_JSON_MAIN()
