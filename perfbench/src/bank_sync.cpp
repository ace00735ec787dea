// bank_sync: four closed-loop clients, each with its own Session, move money
// with Bank::transfer(..., Policy::retry()) between uniformly random
// distinct accounts out of 4096, in DelayMode::kOff. L=2 with little
// contention drives the lock table's descriptor path, the mem pools / EBR
// and the idem logs, and never touches the async executor.
#include <atomic>
#include <memory>

#include "closed_loop.hpp"
#include "wfl/apps/bank.hpp"
#include "wfl/core/executor.hpp"
#include "wfl/core/lock_table.hpp"
#include "wfl/core/session.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Plat = wfl::RealPlat;
using Table = wfl::LockTable<Plat>;
using BankT = wfl::Bank<Plat>;

constexpr int kClients = 4;
constexpr std::uint32_t kAccounts = 4096;
constexpr std::uint32_t kInitialBalance = 1000;
constexpr std::size_t kRing = 1 << 16;

struct Transfer {
  std::uint32_t from;
  std::uint32_t to;
  std::uint32_t amount;
};

wfl::LockConfig bank_config() {
  wfl::LockConfig cfg;
  cfg.kappa = kClients;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 8;
  cfg.delay_mode = wfl::DelayMode::kOff;
  return cfg;
}

void run_bank_episode(const Phase& phase, Clock::time_point origin,
                      const std::vector<std::vector<Transfer>>& inputs,
                      int index, double seconds, ClosedEpisode& ep) {
  const Clock::time_point s0 = Clock::now();
  Table table(bank_config(), kClients, static_cast<int>(kAccounts));
  BankT bank(table, kAccounts, kInitialBalance);
  ep.setup_s = seconds_since(s0);

  const wfl::LockStats before = table.stats();
  const std::uint64_t fl_before = table.freelist_ops();
  run_clients(kClients, seconds, ep,
              [&](int c, ClientTally& t, const std::atomic<bool>& stop) {
    wfl::Session<Plat> session(table);
    const auto& ring = inputs[static_cast<std::size_t>(c)];
    // Each episode starts at its own point of the client's input ring.
    std::uint64_t next = static_cast<std::uint64_t>(index) * 7919;
    std::uint64_t op = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const Transfer& x = ring[next++ % kRing];
      ++op;
      const std::int64_t t0 = ns_since(origin);
      const wfl::Outcome o = bank.transfer(session, x.from, x.to, x.amount,
                                           wfl::Policy::retry());
      const std::int64_t t1 = ns_since(origin);
      ++t.n.ops;
      t.n.attempts += o.attempts;
      t.n.wins += o.won ? 1 : 0;
      t.n.failed += o.won ? 0 : 1;
      t.n.steps += o.total_steps;
      t.n.pre += o.pre_reveal_work;
      t.n.post += o.post_reveal_work;
      t.lat_us.push(static_cast<double>(t1 - t0) * 1e-3);
      if (phase.traced) t.trace.push(OpTrace{op, t0, t1, 0, 0});
      if (c == 0 && (op & 1023) == 0) t.n.mem.sample(table);
    }
  });

  // Output checks: money is conserved, and every retried transfer won
  // exactly one attempt.
  std::uint64_t ops = 0;
  for (const ClientCounts& n : ep.counts) ops += n.ops;
  if (bank.total_balance() != bank.expected_total()) {
    ep.fail("bank_sync: total balance " +
            std::to_string(bank.total_balance()) + " != " +
            std::to_string(bank.expected_total()));
  }
  const wfl::LockStats after = table.stats();
  if (after.wins - before.wins != ops) {
    ep.fail("bank_sync: lock_table wins != transfers");
  }
  ep.table.add(after, before, table.freelist_ops(), fl_before);
}

}  // namespace

Report bank_sync_phase(const Phase& phase) {
  std::vector<std::vector<Transfer>> inputs(kClients);
  for (int c = 0; c < kClients; ++c) {
    wfl::Xoshiro256 rng(phase.seed * 0xD1B54A32D192ED03ULL + 29 + c);
    auto& ring = inputs[static_cast<std::size_t>(c)];
    ring.reserve(kRing);
    for (std::size_t i = 0; i < kRing; ++i) {
      const auto from = static_cast<std::uint32_t>(rng.next_below(kAccounts));
      auto to = static_cast<std::uint32_t>(rng.next_below(kAccounts - 1));
      if (to >= from) ++to;
      const auto amount = static_cast<std::uint32_t>(1 + rng.next_below(20));
      ring.push_back(Transfer{from, to, amount});
    }
  }
  const Clock::time_point origin = Clock::now();
  return closed_loop_phase(
      phase, [&](int index, double seconds, ClosedEpisode& ep) {
        run_bank_episode(phase, origin, inputs, index, seconds, ep);
      });
}

}  // namespace perfbench
