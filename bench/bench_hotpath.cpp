// The attempt hot path, pinned: wfl-bench-v1 numbers for the per-attempt
// costs the paper's step model does NOT count — pool traffic, thunk-log
// reset, EBR guard entry — plus the per-phase step counters it does.
//
//   Hotpath_SingleLock_Uncontended   the steady-state cost of one
//                                    uncontended single-lock attempt
//                                    (thin-word fast path)
//   Hotpath_MultiLock_Uncontended    an uncontended two-lock attempt
//                                    straddling two shards, on the fast
//                                    path (publish both words, reveal)
//   Hotpath_MultiShard_Uncontended   the same attempt with the fast path
//                                    off: descriptor alloc + insert +
//                                    compete + remove, two EBR domains per
//                                    segment, refcounted retire
//   Hotpath_SingleLock_Contended     κ processes hammering one lock
//   Hotpath_IdemReplay/N             descriptor reinit + owner run +
//                                    helper replay of an N-op thunk — the
//                                    lazy-log-reset microcost in isolation
//   Hotpath_MultiLock_RawSpan        L=8 attempt through the raw-span
//   Hotpath_MultiLock_View           overload vs the validated
//                                    LockSetView path (the release-build
//                                    duplicate-scan delta)
//
// Counters (additive wfl-bench-v1 keys, per-attempt means unless noted):
//   attempts_per_sec             also the entry's ops_per_s
//   pre_reveal_steps             help + multiInsert own steps (AttemptInfo)
//   post_reveal_steps            run + multiRemove own steps
//   total_steps                  whole attempt
//   freelist_ops_per_attempt     shared-freelist transactions (pops/pushes,
//                                single or batched) per attempt — 0 in the
//                                cached steady state
//   log_slots_reset_per_attempt  thunk-log slots re-inited by reinit —
//                                O(ops used) under the lazy reset,
//                                kThunkLogCap before it
//
// The capability probes (`if constexpr (requires ...)`) let this exact
// file also build against the pre-overhaul tree, which is how the
// "before" half of BENCH_hotpath.json was captured.
//
// Delays run in kOff mode (the flock-style practical configuration, as in
// exp_throughput): with kTheory delays every attempt costs a fixed
// c0·κ²L²·T spin and the memory-path costs this bench exists to watch
// would vanish into it.
#include <benchmark/benchmark.h>

#include <concepts>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "bench_json.hpp"
#include "wfl/wfl.hpp"

namespace {

using wfl::AttemptInfo;
using wfl::Cell;
using wfl::IdemCtx;
using wfl::LockConfig;
using wfl::LockStats;
using wfl::RealPlat;
using wfl::SpaceSizing;
using Table = wfl::LockTable<RealPlat>;

LockConfig hot_cfg(std::uint32_t kappa, std::uint32_t max_locks,
                   std::uint32_t thunk_steps = 8) {
  LockConfig cfg;
  cfg.kappa = kappa;
  cfg.max_locks = max_locks;
  cfg.max_thunk_steps = thunk_steps;
  cfg.delay_mode = wfl::DelayMode::kOff;
  return cfg;
}

// --- capability probes (compat with the pre-overhaul tree) ---------------

template <typename T>
std::uint64_t table_freelist_ops(const T& t) {
  if constexpr (requires { t.freelist_ops(); }) {
    return t.freelist_ops();
  } else {
    return 0;  // pre-overhaul: counter absent; key omitted below
  }
}

template <typename T>
constexpr bool kHasFreelistCounter = requires(const T& t) {
  t.freelist_ops();
};

template <typename Stats>
std::uint64_t stats_log_resets(const Stats& s) {
  if constexpr (requires { s.log_slot_resets; }) {
    return s.log_slot_resets;
  } else {
    return 0;
  }
}

template <typename Stats>
constexpr bool kHasLogResets = requires(const Stats& s) {
  s.log_slot_resets;
};
constexpr bool kHasLogResetCounter = kHasLogResets<LockStats>;

template <typename LogT>
void note_used_compat(LogT& log, std::uint32_t ops) {
  if constexpr (requires { log.note_used(ops); }) {
    log.note_used(ops);
  }
}

// Measures what reinit actually re-initialized: the lazy reset reports its
// slot count; the pre-overhaul void reinit unconditionally re-inited the
// whole log.
template <typename DescT>
std::uint32_t reinit_count(DescT& d, std::uint64_t serial) {
  if constexpr (requires {
                  { d.reinit(serial) } -> std::same_as<std::uint32_t>;
                }) {
    return d.reinit(serial);
  } else {
    d.reinit(serial);
    return wfl::kThunkLogCap;
  }
}

// --- shared driver --------------------------------------------------------

struct PhaseSums {
  std::uint64_t attempts = 0;
  std::uint64_t pre = 0;
  std::uint64_t post = 0;
  std::uint64_t total = 0;
};

// One attempt per iteration over a fixed lock list; accumulates the
// AttemptInfo phase counters.
template <typename Ids>
PhaseSums run_attempts(benchmark::State& state, Table& table,
                       Table::Process proc, const Ids& ids,
                       Cell<RealPlat>& cell) {
  PhaseSums sums;
  for (auto _ : state) {
    AttemptInfo info;
    const bool won =
        table.try_locks(proc, ids, [&cell](IdemCtx<RealPlat>& m) {
          m.store(cell, m.load(cell) + 1);
        }, &info);
    benchmark::DoNotOptimize(won);
    ++sums.attempts;
    sums.pre += info.pre_reveal_work;
    sums.post += info.post_reveal_work;
    sums.total += info.total_steps;
  }
  return sums;
}

void report(benchmark::State& state, const PhaseSums& sums,
            double freelist_delta, double log_reset_delta,
            bool have_freelist, bool have_log_resets) {
  const auto n = static_cast<double>(sums.attempts ? sums.attempts : 1);
  state.SetItemsProcessed(static_cast<std::int64_t>(sums.attempts));
  state.counters["attempts_per_sec"] = benchmark::Counter(
      static_cast<double>(sums.attempts), benchmark::Counter::kIsRate);
  using C = benchmark::Counter;
  const auto avg = C::kAvgThreads;
  state.counters["pre_reveal_steps"] = C(static_cast<double>(sums.pre) / n, avg);
  state.counters["post_reveal_steps"] =
      C(static_cast<double>(sums.post) / n, avg);
  state.counters["total_steps"] = C(static_cast<double>(sums.total) / n, avg);
  if (have_freelist) {
    state.counters["freelist_ops_per_attempt"] = C(freelist_delta / n, avg);
  }
  if (have_log_resets) {
    state.counters["log_slots_reset_per_attempt"] = C(log_reset_delta / n, avg);
  }
}

// --- benchmarks -----------------------------------------------------------

void Hotpath_SingleLock_Uncontended(benchmark::State& state) {
  Table table(hot_cfg(2, 2), 2, 16, SpaceSizing{.shards = 4});
  auto proc = table.register_process();
  RealPlat::seed_rng(0xB0A710ADULL);
  Cell<RealPlat> cell{0};
  // Warm the slot caches and the EBR pipeline out of the timed region so
  // the counters show the steady state, not the cold start.
  for (int i = 0; i < 512; ++i) {
    const std::uint32_t ids[] = {static_cast<std::uint32_t>(i % 16)};
    table.try_locks(proc, ids, [&cell](IdemCtx<RealPlat>& m) {
      m.store(cell, m.load(cell) + 1);
    });
  }
  const std::uint64_t fl0 = table_freelist_ops(table);
  const std::uint64_t lr0 = stats_log_resets(table.stats());
  const std::uint32_t ids[] = {0};
  const PhaseSums sums = run_attempts(state, table, proc, ids, cell);
  report(state, sums,
         static_cast<double>(table_freelist_ops(table) - fl0),
         static_cast<double>(stats_log_resets(table.stats()) - lr0),
         kHasFreelistCounter<Table>, kHasLogResetCounter);
}
BENCHMARK(Hotpath_SingleLock_Uncontended);

// One process, locks {1, 2} (shards 1 and 2 under mask routing), warmed.
void run_pair_uncontended(benchmark::State& state, const LockConfig& cfg) {
  Table table(cfg, 2, 16, SpaceSizing{.shards = 4});
  auto proc = table.register_process();
  RealPlat::seed_rng(0xB0A710ADULL);
  Cell<RealPlat> cell{0};
  const std::uint32_t ids[] = {1, 2};
  for (int i = 0; i < 512; ++i) {
    table.try_locks(proc, ids, [&cell](IdemCtx<RealPlat>& m) {
      m.store(cell, m.load(cell) + 1);
    });
  }
  const std::uint64_t fl0 = table_freelist_ops(table);
  const std::uint64_t lr0 = stats_log_resets(table.stats());
  const PhaseSums sums = run_attempts(state, table, proc, ids, cell);
  report(state, sums,
         static_cast<double>(table_freelist_ops(table) - fl0),
         static_cast<double>(stats_log_resets(table.stats()) - lr0),
         kHasFreelistCounter<Table>, kHasLogResetCounter);
}

void Hotpath_MultiLock_Uncontended(benchmark::State& state) {
  run_pair_uncontended(state, hot_cfg(2, 2));
}
BENCHMARK(Hotpath_MultiLock_Uncontended);

// The descriptor path the fast path bypasses, kept measured: the
// refcounted cross-shard retire only runs with the fast path off.
void Hotpath_MultiShard_Uncontended(benchmark::State& state) {
  LockConfig cfg = hot_cfg(2, 2);
  cfg.fast_path = false;
  run_pair_uncontended(state, cfg);
}
BENCHMARK(Hotpath_MultiShard_Uncontended);

// κ processes on one lock. Table shared across the benchmark's threads;
// the mutex-guarded refcount builds it for the first arrival and tears it
// down with the last (works on every Google Benchmark version).
void Hotpath_SingleLock_Contended(benchmark::State& state) {
  static std::mutex mu;
  static std::unique_ptr<Table> table;
  static std::unique_ptr<Cell<RealPlat>> cell;
  static int active = 0;
  {
    std::lock_guard<std::mutex> lk(mu);
    if (active++ == 0) {
      table = std::make_unique<Table>(hot_cfg(8, 2), 8, 16,
                                      SpaceSizing{.shards = 4});
      cell = std::make_unique<Cell<RealPlat>>(0);
    }
  }
  RealPlat::seed_rng(0xC047E57ULL +
                     static_cast<std::uint64_t>(state.thread_index()));
  auto proc = table->register_process();
  const std::uint32_t ids[] = {0};
  const PhaseSums sums = run_attempts(state, *table, proc, ids, *cell);
  report(state, sums, 0.0, 0.0, false, false);
  table->release_process(proc);
  {
    std::lock_guard<std::mutex> lk(mu);
    if (--active == 0) {
      cell.reset();
      table.reset();
    }
  }
}
BENCHMARK(Hotpath_SingleLock_Contended)->Threads(4)->UseRealTime();

// Descriptor reinit + owner run + helper replay of an N-op thunk, no lock
// machinery: isolates what the lazy log reset buys. Before the overhaul,
// every reinit re-initialized all kThunkLogCap slots regardless of N.
void Hotpath_IdemReplay(benchmark::State& state) {
  const auto ops = static_cast<std::uint32_t>(state.range(0));
  auto d = std::make_unique<wfl::Descriptor<RealPlat>>();
  std::vector<std::unique_ptr<Cell<RealPlat>>> cells;
  for (std::uint32_t i = 0; i < ops; ++i) {
    cells.push_back(std::make_unique<Cell<RealPlat>>(0));
  }
  std::uint64_t serial = 1;
  std::uint64_t runs = 0;
  std::uint64_t slots_reset = 0;
  std::uint64_t reinits = 0;
  for (auto _ : state) {
    slots_reset += reinit_count(*d, serial++);
    ++reinits;
    for (int run = 0; run < 2; ++run) {  // owner, then one helper replay
      IdemCtx<RealPlat> m(d->log, d->tag_base);
      for (std::uint32_t i = 0; i < ops; ++i) {
        m.store(*cells[i], static_cast<std::uint32_t>(serial & 0xFFFF));
      }
      note_used_compat(d->log, m.ops_used());
      ++runs;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(runs));
  // Measured, not assumed: a regression back to O(kThunkLogCap) shows up
  // here (and trips the CI perf-smoke bound on the uncontended bench).
  state.counters["log_slots_reset_per_attempt"] = benchmark::Counter(
      static_cast<double>(slots_reset) /
      static_cast<double>(reinits ? reinits : 1));
}
BENCHMARK(Hotpath_IdemReplay)->Arg(2)->Arg(32);

// The raw-span overload vs the validated LockSetView path at the L budget
// (the O(L²) duplicate scan demotion's observable face).
void Hotpath_MultiLock_RawSpan(benchmark::State& state) {
  Table table(hot_cfg(2, 8), 2, 8);
  auto proc = table.register_process();
  RealPlat::seed_rng(0xB0A710ADULL);
  Cell<RealPlat> cell{0};
  const std::uint32_t ids[] = {0, 1, 2, 3, 4, 5, 6, 7};
  const PhaseSums sums = run_attempts(state, table, proc, ids, cell);
  report(state, sums, 0.0, 0.0, false, false);
}
BENCHMARK(Hotpath_MultiLock_RawSpan);

void Hotpath_MultiLock_View(benchmark::State& state) {
  Table table(hot_cfg(2, 8), 2, 8);
  auto proc = table.register_process();
  RealPlat::seed_rng(0xB0A710ADULL);
  Cell<RealPlat> cell{0};
  const wfl::StaticLockSet<8> locks({0, 1, 2, 3, 4, 5, 6, 7});
  const PhaseSums sums = run_attempts(state, table, proc, locks, cell);
  report(state, sums, 0.0, 0.0, false, false);
}
BENCHMARK(Hotpath_MultiLock_View);

}  // namespace

WFL_BENCH_JSON_MAIN()
