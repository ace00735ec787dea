// Per-process hot state for the lock table.
//
// Every mutable word a tryLock attempt touches outside the algorithm's own
// shared CASes lives here, on cachelines owned by exactly one process:
//
//   * StatsSlab — the striped statistics counters. The monolithic lock space
//     kept seven process-shared std::atomic counters that every attempt
//     fetch_add-ed; under contention those seven words were the hottest
//     cachelines in the system and had nothing to do with the algorithm.
//     Each process now bumps its own padded slab and TableCore::stats()
//     aggregates on demand (reads are racy-by-design snapshots, exact once
//     the workload quiesces — which is when the tests read them).
//   * serial block allocator — descriptor serials (which feed the
//     idempotence tag space) come from a per-process block carved off a
//     shared high-water mark once every kSerialBlock attempts, instead of a
//     global fetch_add on every attempt.
//   * scratch MemberLists — getSet results for the help phase and the
//     competition loop; fixed-capacity, reused across attempts.
//   * per-shard EBR guard depths — the table's shards have independent
//     reclamation domains; the depth counters make guard acquisition
//     re-entrant so a helper can pick up whatever extra shards a helped
//     descriptor's lock set needs without tracking what it already holds.
//
// Handles are created by TableCore::register_process (core/table_core.hpp)
// and owned by the table; the cheap `Process` value (an index) is what
// travels through application code. The cross-process table's sessions
// (core/shm_table.hpp) each hold one handle too.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "wfl/active/multi_set.hpp"
#include "wfl/check/race.hpp"
#include "wfl/core/config.hpp"
#include "wfl/fuzz/sites.hpp"
#include "wfl/idem/idem.hpp"
#include "wfl/mem/ebr.hpp"
#include "wfl/util/align.hpp"
#include "wfl/util/assert.hpp"

namespace wfl {

// Descriptor serials per refill of a process's private serial block.
inline constexpr std::uint64_t kSerialBlock = 1024;

// One process's stripe of the lock-space statistics. Single writer (the
// owning process); concurrent readers (stats aggregation) see a relaxed
// snapshot. The unsynchronized load-then-store is deliberate: with one
// writer it is exact, and it keeps the hot path free of lock-prefixed
// read-modify-writes entirely.
struct StatsSlab {
  race::Atomic<std::uint64_t> attempts{0};
  race::Atomic<std::uint64_t> wins{0};
  race::Atomic<std::uint64_t> helps{0};
  race::Atomic<std::uint64_t> eliminations{0};
  race::Atomic<std::uint64_t> thunk_runs{0};
  race::Atomic<std::uint64_t> t0_overruns{0};
  race::Atomic<std::uint64_t> t1_overruns{0};
  // Adaptive variant only (§6.2 seer-eliminates rule); unused by the
  // known-bounds table but striped the same way.
  race::Atomic<std::uint64_t> tbd_eliminations{0};
  // Thunk-log slots re-initialized by descriptor reinit (the lazy-reset
  // figure: O(ops used) per attempt instead of O(kThunkLogCap)).
  race::Atomic<std::uint64_t> log_slot_resets{0};
  // Contended-path optimization counters (DESIGN.md §5):
  race::Atomic<std::uint64_t> fastpath_hits{0};
  race::Atomic<std::uint64_t> fastpath_revocations{0};
  race::Atomic<std::uint64_t> help_claim_skips{0};

  static void bump(race::Atomic<std::uint64_t>& c) { bump_by(c, 1); }
  static void bump_by(race::Atomic<std::uint64_t>& c, std::uint64_t n) {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    c.store(c.load(kRelaxed, race::Site::kStatsBump) + n, kRelaxed,
            race::Site::kStatsBump);
  }
  void add_attempt() { bump(attempts); }
  void add_win() { bump(wins); }
  void add_help() { bump(helps); }
  void add_elimination() { bump(eliminations); }
  void add_thunk_run() { bump(thunk_runs); }
  void add_t0_overrun() { bump(t0_overruns); }
  void add_t1_overrun() { bump(t1_overruns); }
  void add_tbd_elimination() { bump(tbd_eliminations); }
  void add_log_slot_resets(std::uint64_t n) { bump_by(log_slot_resets, n); }
  void add_fastpath_hit() { bump(fastpath_hits); }
  void add_fastpath_revocation() { bump(fastpath_revocations); }
  void add_help_claim_skip() { bump(help_claim_skips); }

  void accumulate_into(LockStats& s) const {
    auto read = [](const race::Atomic<std::uint64_t>& c) {
      return c.load(std::memory_order_relaxed, race::Site::kStatsRead);
    };
    s.attempts += read(attempts);
    s.wins += read(wins);
    s.helps += read(helps);
    s.eliminations += read(eliminations);
    s.thunk_runs += read(thunk_runs);
    s.t0_overruns += read(t0_overruns);
    s.t1_overruns += read(t1_overruns);
    s.tbd_eliminations += read(tbd_eliminations);
    s.log_slot_resets += read(log_slot_resets);
    s.fastpath_hits += read(fastpath_hits);
    s.fastpath_revocations += read(fastpath_revocations);
    s.help_claim_skips += read(help_claim_skips);
  }
};

// One writer's slab plus padding; the slab itself must not straddle into a
// neighbour's stripe.
static_assert(sizeof(CachePadded<StatsSlab>) % kCacheLine == 0);

// Per-process handle; DescT is the descriptor type whose pointers the
// scratch lists carry (Descriptor<Plat> for the known-bounds table,
// AdaptiveDescriptor<Plat> for the adaptive space).
template <typename Plat, typename DescT>
class ProcessHandle {
 public:
  // `with_fast_desc` allocates the embedded fast-path descriptor (the
  // known-bounds LockTable wants it; the adaptive space, whose descriptors
  // carry kMaxLocksPerAttempt frozen snapshots each, does not pay for it).
  ProcessHandle(int pid, std::uint32_t num_shards,
                race::Atomic<std::uint64_t>& serial_hwm,
                bool with_fast_desc = false)
      : pid_(pid),
        serial_hwm_(&serial_hwm),
        fast_desc_(with_fast_desc ? std::make_unique<DescT>() : nullptr),
        guard_depth_(num_shards, 0) {
    WFL_CHECK(pid >= 0 && num_shards > 0);
  }

  ProcessHandle(const ProcessHandle&) = delete;
  ProcessHandle& operator=(const ProcessHandle&) = delete;

  int pid() const { return pid_; }

  // Re-initializes `d` for a new attempt under the next descriptor serial,
  // counting the thunk-log slots the lazy reset touched.
  void reinit(DescT& d) {
    stats().add_log_slot_resets(d.reinit(next_serial()));
  }

  StatsSlab& stats() { return *stats_; }
  const StatsSlab& stats() const { return *stats_; }

  // Scratch getSet results. Two distinct lists because the help phase
  // iterates one while the engine's run() (called per helped descriptor)
  // refills the other; run() is never reentered, so two suffice.
  MemberList<DescT*>& help_scratch() { return help_scratch_; }
  MemberList<DescT*>& run_scratch() { return run_scratch_; }

  // Private scratch thunk log for degenerate (empty-lock-set) attempts:
  // reused across attempts with the lazy reset instead of re-initializing
  // kThunkLogCap slots per call. Never shared — no helpers exist for a
  // descriptor-less run.
  ThunkLog<Plat>& local_log() { return local_log_; }

  // The embedded fast-path descriptor (DESIGN.md §5.1): uncontended
  // attempts publish it through their locks' thin words instead of
  // drawing a pooled descriptor, so the steady state performs zero pool
  // and active-set traffic. It is pool-free and never EBR-retired; reuse
  // safety comes from the thin-word observation protocol: the descriptor
  // may be re-initialized only while fast_ready() is true — either no
  // rival ever observed the previous publication (every release CAS
  // succeeded untouched), or a full grace period has passed since in every
  // shard where a word was observed (the table retires one cooldown token
  // into each such shard; fast_cooldown_expired counts them down).
  // Allocated only when the owning space requested it (with_fast_desc).
  DescT& fast_desc() {
    WFL_DASSERT(fast_desc_ != nullptr);
    return *fast_desc_;
  }
  bool fast_ready() const { return fast_cooldown_left() == 0; }
  // Sets the number of outstanding cooldown tokens (grace periods).
  void set_fast_cooldown(std::uint32_t tokens) {
    fast_cooldown_.store(tokens, std::memory_order_relaxed,
                         race::Site::kFastReadyStore);
  }
  // EbrDomain deleter shape for one cooldown token; ctx is the handle. The
  // last token to expire re-arms the embedded descriptor.
  static void fast_cooldown_expired(void* ctx, std::uint32_t) {
    auto* h = static_cast<ProcessHandle*>(ctx);
    const std::uint32_t left = h->fast_cooldown_left() - 1;
    h->set_fast_cooldown(left);
    if (left == 0) WFL_FUZZ_SITE(kSiteCooldownResume);
  }

  // Re-entrant guard on `shard`, whose domain is `ebr`: the domain is
  // entered when this process's depth there rises from 0 and exited when
  // it returns to 0; everything in between is a plain private increment.
  // This is what lets a helper pick up a helped descriptor's shards, and an
  // inspector's guard wrap a whole attempt, without tracking what it holds.
  void guard_enter(EbrDomain& ebr, std::uint32_t shard) {
    if (guard_depth(shard)++ == 0) ebr.enter(pid_);
  }
  void guard_exit(EbrDomain& ebr, std::uint32_t shard) {
    WFL_DASSERT(guard_depth(shard) > 0);
    if (--guard_depth(shard) == 0) ebr.exit(pid_);
  }

  // Re-entrancy depth on `shard` (saved and restored around an allocation
  // stall that must drop the guard entirely; core/shm_table.hpp).
  std::uint32_t& guard_depth(std::uint32_t shard) {
    WFL_DASSERT(shard < guard_depth_.size());
    return guard_depth_[shard];
  }

  // True if this process currently holds any shard's EBR guard. A fiber
  // must never suspend while this is true — a parked fiber would stall
  // reclamation for the whole shard. The async executor asserts this at
  // every park point.
  bool any_guard_depth() const {
    for (const std::uint32_t d : guard_depth_) {
      if (d != 0) return true;
    }
    return false;
  }

 private:
  std::uint32_t fast_cooldown_left() const {
    return fast_cooldown_.load(std::memory_order_relaxed,
                               race::Site::kFastReadyLoad);
  }

  // Next descriptor serial, from the process's private block; refills from
  // the shared high-water mark once per kSerialBlock attempts (the only
  // process-shared write on this path, amortized to ~nothing). Only the
  // RMW's atomicity is load-bearing (the site's contract is kAtomicOnly);
  // it stays acq_rel so that no table's refill is weaker than before the
  // cross-process table shared this code.
  std::uint64_t next_serial() {
    if (serial_next_ == serial_end_) {
      serial_next_ = serial_hwm_->fetch_add(
          kSerialBlock, std::memory_order_acq_rel, race::Site::kSerialRefill);
      serial_end_ = serial_next_ + kSerialBlock;
    }
    return serial_next_++;
  }

  int pid_;
  std::uint64_t serial_next_ = 0;
  std::uint64_t serial_end_ = 0;
  race::Atomic<std::uint64_t>* serial_hwm_;
  CachePadded<StatsSlab> stats_;
  MemberList<DescT*> help_scratch_;
  MemberList<DescT*> run_scratch_;
  ThunkLog<Plat> local_log_;
  std::unique_ptr<DescT> fast_desc_;
  // Outstanding cooldown tokens; 0 = the embedded descriptor is reusable.
  // Counted down by the EBR cooldown deleters, which run on the
  // owning participant or under quiescent domain teardown (another
  // thread), so the load-then-store has one writer at a time.
  race::Atomic<std::uint32_t> fast_cooldown_{0};
  std::vector<std::uint32_t> guard_depth_;
};

}  // namespace wfl
