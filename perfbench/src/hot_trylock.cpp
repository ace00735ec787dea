// hot_trylock: the paper's contention claim as published. Four clients make
// one-shot tryLock calls (submit with Policy::one_shot()) on lock sets of
// 1-2 locks drawn from a hot set of 4, in DelayMode::kTheory with κ=4,
// L=2: helping, eliminations, thunk replays and the fixed delays all run,
// and every attempt must win with probability >= 1/(κL) = 1/8.
#include <atomic>
#include <memory>

#include "closed_loop.hpp"
#include "wfl/core/executor.hpp"
#include "wfl/core/lock_set.hpp"
#include "wfl/core/lock_table.hpp"
#include "wfl/core/session.hpp"
#include "wfl/idem/cell.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Plat = wfl::RealPlat;
using Table = wfl::LockTable<Plat>;
using Cell = wfl::Cell<Plat>;

constexpr int kClients = 4;
constexpr std::uint32_t kHotLocks = 4;
constexpr std::size_t kRing = 1 << 16;

// Where a traced client's current call records its thunk's first entry
// and exit. Helpers replaying the thunk later touch it only while `op`
// still names their call.
struct Probe {
  std::atomic<std::uint64_t> op{0};
  std::atomic<std::int64_t> in{0};
  std::atomic<std::int64_t> out{0};
  std::atomic<std::uint64_t> entries{0};
};

struct HotThunk {
  Cell* cell;
  Probe* probe;  // null when untraced
  std::uint64_t op;
  Clock::time_point origin;

  void operator()(wfl::IdemCtx<Plat>& m) const {
    if (probe != nullptr) {
      probe->entries.fetch_add(1, std::memory_order_relaxed);
      std::int64_t zero = 0;
      if (probe->op.load(std::memory_order_relaxed) == op) {
        probe->in.compare_exchange_strong(zero, ns_since(origin),
                                          std::memory_order_relaxed);
      }
    }
    m.store(*cell, m.load(*cell) + 1);
    if (probe != nullptr && probe->op.load(std::memory_order_relaxed) == op) {
      std::int64_t zero = 0;
      probe->out.compare_exchange_strong(zero, ns_since(origin),
                                         std::memory_order_relaxed);
    }
  }
};

wfl::LockConfig hot_config() {
  wfl::LockConfig cfg;
  cfg.kappa = 4;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 2;  // one load + one store
  cfg.delay_mode = wfl::DelayMode::kTheory;
  return cfg;
}

void run_hot_episode(const Phase& phase, Clock::time_point origin,
                     const std::vector<std::vector<wfl::StaticLockSet<2>>>& sets,
                     int index, double seconds, ClosedEpisode& ep) {
  const Clock::time_point s0 = Clock::now();
  Table table(hot_config(), kClients, static_cast<int>(kHotLocks));
  std::vector<std::unique_ptr<Cell>> cells;
  for (std::uint32_t i = 0; i < kHotLocks; ++i) {
    cells.push_back(std::make_unique<Cell>(0u));
  }
  ep.setup_s = seconds_since(s0);

  std::vector<Probe> probes(kClients);
  const wfl::LockStats before = table.stats();
  const std::uint64_t fl_before = table.freelist_ops();
  run_clients(kClients, seconds, ep,
              [&](int c, ClientTally& t, const std::atomic<bool>& stop) {
    wfl::Session<Plat> session(table);
    const auto& ring = sets[static_cast<std::size_t>(c)];
    Probe* probe = phase.traced ? &probes[static_cast<std::size_t>(c)]
                                : nullptr;
    // Each episode starts at its own point of the client's input ring.
    std::uint64_t next = static_cast<std::uint64_t>(index) * 7919;
    std::uint64_t op = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const wfl::StaticLockSet<2>& locks = ring[next++ % kRing];
      ++op;
      if (probe != nullptr) {
        probe->in.store(0, std::memory_order_relaxed);
        probe->out.store(0, std::memory_order_relaxed);
        probe->op.store(op, std::memory_order_relaxed);
      }
      const HotThunk thunk{cells[locks[0]].get(), probe, op, origin};
      const std::int64_t t0 = ns_since(origin);
      const wfl::Outcome o =
          wfl::submit(session, locks, thunk, wfl::Policy::one_shot());
      const std::int64_t t1 = ns_since(origin);
      ++t.n.ops;
      t.n.attempts += o.attempts;
      t.n.wins += o.won ? 1 : 0;
      t.n.steps += o.total_steps;
      t.n.pre += o.pre_reveal_work;
      t.n.post += o.post_reveal_work;
      t.lat_us.push(static_cast<double>(t1 - t0) * 1e-3);
      if (probe != nullptr) {
        t.trace.push(OpTrace{op, t0, t1,
                             probe->in.load(std::memory_order_relaxed),
                             probe->out.load(std::memory_order_relaxed)});
      }
      if (c == 0 && (op & 1023) == 0) t.n.mem.sample(table);
    }
    if (probe != nullptr) {
      t.n.thunk_entries = probe->entries.load(std::memory_order_relaxed);
    }
  });

  // Output checks: each winning thunk applied exactly once (helper replays
  // included), the table saw exactly the clients' attempts, and the step
  // bounds held.
  std::uint64_t wins = 0;
  std::uint64_t attempts = 0;
  for (const ClientCounts& n : ep.counts) {
    wins += n.wins;
    attempts += n.attempts;
  }
  std::uint64_t cell_sum = 0;
  for (const auto& cell : cells) cell_sum += cell->peek();
  const wfl::LockStats after = table.stats();
  if (cell_sum != wins) {
    ep.fail("hot_trylock: sum of cells " + std::to_string(cell_sum) +
            " != wins " + std::to_string(wins));
  }
  if (after.wins - before.wins != wins ||
      after.attempts - before.attempts != attempts) {
    ep.fail("hot_trylock: lock_table stats disagree with the Outcomes");
  }
  if (after.t0_overruns + after.t1_overruns != 0) {
    ep.fail("hot_trylock: step-bound overrun under kTheory");
  }
  ep.table.add(after, before, table.freelist_ops(), fl_before);
}

}  // namespace

Report hot_trylock_phase(const Phase& phase) {
  // Inputs: per client, a ring of lock sets of size 1 or 2 over the hot set.
  std::vector<std::vector<wfl::StaticLockSet<2>>> sets(kClients);
  for (int c = 0; c < kClients; ++c) {
    wfl::Xoshiro256 rng(phase.seed * 0x9E3779B97F4A7C15ULL + 17 + c);
    auto& ring = sets[static_cast<std::size_t>(c)];
    ring.reserve(kRing);
    for (std::size_t i = 0; i < kRing; ++i) {
      const auto a = static_cast<std::uint32_t>(rng.next_below(kHotLocks));
      if (rng.next_below(2) == 0) {
        ring.push_back(wfl::StaticLockSet<2>{a});
      } else {
        auto b = static_cast<std::uint32_t>(rng.next_below(kHotLocks - 1));
        if (b >= a) ++b;
        ring.push_back(wfl::StaticLockSet<2>{a, b});
      }
    }
  }
  const Clock::time_point origin = Clock::now();
  return closed_loop_phase(
      phase, [&](int index, double seconds, ClosedEpisode& ep) {
        run_hot_episode(phase, origin, sets, index, seconds, ep);
      });
}

}  // namespace perfbench
