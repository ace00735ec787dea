// Closed-loop phases shared by bank_sync and hot_trylock: each client
// thread issues its next call only after the previous one returned, so a
// slower system receives less load. Calls are timed from the outside.
//
// A phase is a series of episodes, each in a process of its own (see
// run_in_child): fresh set-up, its own peak RSS, and a crash or hang is
// contained. The end-to-end figures are medians over episodes, so one
// episode disturbed by the host does not move them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {

// One call's boundary timestamps on the phase clock (0 = not recorded).
struct OpTrace {
  std::uint64_t op = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int64_t thunk_in = 0;
  std::int64_t thunk_out = 0;
};

// One client's counts over an episode, summed from each call's Outcome.
struct ClientCounts {
  std::uint64_t ops = 0;
  std::uint64_t attempts = 0;
  std::uint64_t wins = 0;
  std::uint64_t steps = 0;
  std::uint64_t pre = 0;
  std::uint64_t post = 0;
  std::uint64_t failed = 0;
  std::uint64_t thunk_entries = 0;
  MemPeak mem;
};

// What a client thread accumulates while it runs.
struct ClientTally {
  ClientCounts n;
  Decimator<double> lat_us{1 << 17};
  Decimator<OpTrace> trace{1 << 14};
};

// One episode as its process reports it.
struct ClosedEpisode {
  double setup_s = 0.0;
  double seconds = 0.0;
  std::vector<ClientCounts> counts;
  std::vector<std::vector<double>> lat_us;
  std::vector<std::vector<OpTrace>> trace;
  TableDelta table;
  std::string failure;  // first failed output check, empty if none

  void fail(const std::string& what) {
    if (failure.empty()) failure = what;
  }
};

// Runs body(client, tally, stop) on `clients` threads from a common start
// until `seconds` have passed, and stores the threads' results in `ep`.
template <typename Body>
void run_clients(int clients, double seconds, ClosedEpisode& ep, Body body) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<ClientTally> tallies(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(c, tallies[static_cast<std::size_t>(c)], stop);
    });
  }
  const Clock::time_point t0 = Clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  ep.seconds = seconds_since(t0);
  for (const ClientTally& t : tallies) {
    ep.counts.push_back(t.n);
    ep.lat_us.push_back(t.lat_us.kept());
    ep.trace.push_back(t.trace.kept());
  }
}

// Runs a phase of about phase.seconds as a series of episodes; `episode`
// runs in each episode's process and gets its index and length.
Report closed_loop_phase(
    const Phase& phase,
    const std::function<void(int index, double seconds, ClosedEpisode& ep)>& episode);

}  // namespace perfbench
