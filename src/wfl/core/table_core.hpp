// The table core: storage and process registry shared by both lock spaces.
//
// The known-bounds LockTable (Algorithm 3) and the unknown-bounds
// AdaptiveLockSpace (§6.2, Theorem 6.10) differ only in the attempt — the
// reveal schedule and the frozen snapshots. Everything an attempt runs ON
// is the same, and lives here once:
//
//   * storage — S = 2^k shards (lock id & (S-1)). Each shard owns a
//     snapshot pool, a descriptor pool, one SlotCache per process fronting
//     each pool, an EBR domain and the SetMem its locks' active sets climb
//     through. Each lock is one ActiveSet (Algorithm 1) on its shard;
//   * registry — ProcSlots hands out dense pids (also the EBR participant
//     id in every shard), and each registered pid owns a ProcessHandle
//     with its striped stats, serial block, scratch lists and per-shard
//     guard depths;
//   * guards — re-entrant per-shard EBR guards through the handle's depth
//     counters (ProcessHandle::guard_enter/guard_exit).
//
// A space passes its shard count, pool capacities, set capacity and
// whether handles embed a fast-path descriptor (Layout); the core keeps no
// policy of its own.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "wfl/active/active_set.hpp"
#include "wfl/check/race.hpp"
#include "wfl/core/attempt.hpp"
#include "wfl/core/config.hpp"
#include "wfl/core/process.hpp"
#include "wfl/idem/idem.hpp"
#include "wfl/mem/arena.hpp"
#include "wfl/mem/ebr.hpp"
#include "wfl/util/align.hpp"
#include "wfl/util/assert.hpp"

namespace wfl {

inline constexpr std::uint32_t kMaxShards = 16;

// Bounded pid allocator with LIFO reuse: the lock spaces' registry and
// the baselines' session slots. Released pids are reused most-recent
// first; otherwise the lowest pid never handed out is next, so fresh pids
// come out in ascending order. A pid that is never released (a retired
// crash victim) is simply never reissued. Registration is off every
// attempt path, so a plain mutex is fine (and is outside the step model
// for the same reason reclamation is — DESIGN.md #2).
class ProcSlots {
 public:
  explicit ProcSlots(int max_procs) : max_procs_(max_procs) {
    WFL_CHECK(max_procs > 0);
    free_.reserve(static_cast<std::size_t>(max_procs));
  }

  // `on_fresh(pid)` runs for a never-issued pid under the allocator's
  // lock, so per-pid setup that must follow pid order cannot interleave
  // with another registration.
  template <typename OnFresh>
  int acquire(OnFresh&& on_fresh) {
    std::lock_guard<std::mutex> g(mu_);
    if (!free_.empty()) {
      const int pid = free_.back();
      free_.pop_back();
      return pid;
    }
    WFL_CHECK_MSG(next_ < max_procs_,
                  "live sessions exceed the space's max_procs");
    const int pid = next_++;
    on_fresh(pid);
    return pid;
  }
  int acquire() {
    return acquire([](int) {});
  }

  void release(int pid) {
    std::lock_guard<std::mutex> g(mu_);
    free_.push_back(pid);
  }

 private:
  std::mutex mu_;
  std::vector<int> free_;
  int next_ = 0;
  int max_procs_;
};

template <typename Plat, typename DescT>
class TableCore {
 public:
  using Platform = Plat;
  using Desc = DescT;
  using Thunk = typename Desc::Thunk;
  using Set = ActiveSet<Plat, Desc*>;
  using Handle = ProcessHandle<Plat, Desc>;

  // A per-logical-process name (dense id; also the participant id in every
  // shard's EBR domain). Cheap value type; each OS thread / sim fiber
  // registers once and passes it to try_locks.
  struct Process {
    int ebr_pid = -1;
  };

  // What a space decides about its storage.
  struct Layout {
    std::uint32_t shards;         // power of two in [1, kMaxShards]
    std::uint32_t snap_capacity;  // initial snapshots per shard
    std::uint32_t desc_capacity;  // initial descriptors per shard
    std::uint32_t set_capacity;   // announcement slots per lock
    bool fast_desc;               // handles embed a fast-path descriptor
  };

  TableCore(int max_procs, int num_locks, const Layout& layout)
      : max_procs_(max_procs),
        num_shards_(layout.shards),
        fast_desc_(layout.fast_desc),
        handles_(static_cast<std::size_t>(std::max(max_procs, 1))),
        pids_(max_procs) {
    WFL_CHECK(max_procs > 0 && num_locks > 0);
    WFL_CHECK(layout.set_capacity <= kMaxSetCap);
    WFL_CHECK_MSG(num_shards_ >= 1 && num_shards_ <= kMaxShards &&
                      (num_shards_ & (num_shards_ - 1)) == 0,
                  "shard count must be a power of two in [1, kMaxShards]");
    shards_.reserve(num_shards_);
    ebr_.reserve(num_shards_);
    for (std::uint32_t s = 0; s < num_shards_; ++s) {
      ebr_.push_back(std::make_unique<EbrDomain>(max_procs));
      shards_.push_back(std::make_unique<Shard>(
          static_cast<std::size_t>(max_procs), layout, *ebr_[s]));
    }
    locks_.reserve(static_cast<std::size_t>(num_locks));
    for (int i = 0; i < num_locks; ++i) {
      locks_.push_back(std::make_unique<Set>(
          layout.set_capacity,
          shards_[shard_of(static_cast<std::uint32_t>(i))]->set_mem));
    }
  }

  // Registers the calling logical process. A pid released by a destroyed
  // Session is reused, handle and all (stats, serial block, scratch carry
  // over, so table-level stats stay monotone across session generations).
  // A fresh pid gets one participant in every shard's EBR domain and a new
  // handle, under the allocator's lock: fresh pids are handed out in
  // ascending order, so each is also the next participant id everywhere.
  Process register_process() {
    return Process{pids_.acquire([this](int pid) {
      for (std::uint32_t s = 0; s < num_shards_; ++s) {
        const int p = ebr_[s]->register_participant();
        WFL_CHECK_MSG(p == pid, "shard EBR domains disagree on participant id");
      }
      handles_[static_cast<std::size_t>(pid)] = std::make_unique<Handle>(
          pid, num_shards_, serial_hwm_, fast_desc_);
      registered_.store(pid + 1, std::memory_order_release);
    })};
  }

  // End-of-session (Session's destructor): drops any EBR guards on the
  // process's behalf. Legal for the same reason abandon_process is: the
  // caller guarantees the process takes no further steps under this
  // registration. Two cases:
  //
  //   * orderly end (no guard held — the process finished outside any
  //     attempt): the pid — participant id, handle, striped stats — is
  //     reused by the next register_process();
  //   * crash-parked mid-attempt (a CrashSchedule stopped the fiber inside
  //     one of the attempt's guarded work segments, so its re-entrancy
  //     depths are still nonzero): the guards are force-dropped exactly
  //     like abandon_process, and the pid is retired forever — the stale
  //     depth counters mean the handle can never re-enter a guard
  //     correctly, so it must not be handed to a new session.
  //
  // Either way the process's slot caches are spilled back to the shared
  // pools: a retired pid must not leak its cached slots (nothing would
  // ever reuse them). Safe from the releasing thread for the same reason.
  void release_process(Process p) {
    const bool parked_in_guard = handle(p).any_guard_depth();
    abandon_process(p);
    const auto pidx = static_cast<std::size_t>(p.ebr_pid);
    for (const auto& sh : shards_) {
      sh->desc[pidx]->drain();
      sh->snap[pidx]->drain();
    }
    if (!parked_in_guard) pids_.release(p.ebr_pid);
  }

  // Crash-harness support: release `p`'s EBR guards on its behalf. Legal
  // ONLY when the process provably takes no further steps (a fiber parked
  // forever by a CrashSchedule). See EbrDomain::abandon.
  void abandon_process(Process p) {
    WFL_CHECK(p.ebr_pid >= 0);
    for (const auto& e : ebr_) e->abandon(p.ebr_pid);
  }

  Handle& handle(Process proc) {
    WFL_CHECK(proc.ebr_pid >= 0 &&
              proc.ebr_pid < static_cast<int>(handles_.size()) &&
              handles_[static_cast<std::size_t>(proc.ebr_pid)] != nullptr);
    return *handles_[static_cast<std::size_t>(proc.ebr_pid)];
  }

  // True iff `p` currently holds any shard's EBR guard. Attempts exit all
  // guards before returning, so this is false between attempts — the
  // async executor asserts it before parking a submission (a parked
  // session holding a guard would stall reclamation indefinitely).
  bool any_guard_held(Process p) { return handle(p).any_guard_depth(); }

  // Aggregates the striped per-process slabs. Exact whenever the processes
  // are quiescent (the only time the tests compare totals); otherwise a
  // racy-but-monotone snapshot.
  LockStats stats() const {
    LockStats s;
    const int n = registered_.load(std::memory_order_acquire);
    for (int i = 0; i < n; ++i) {
      const auto& h = handles_[static_cast<std::size_t>(i)];
      if (h != nullptr) h->stats().accumulate_into(s);
    }
    return s;
  }

  // Slots currently parked in `p`'s per-shard caches (descriptors +
  // snapshots). Quiescent-only diagnostic: the caches are owner-private.
  std::uint32_t cached_slots(Process p) const {
    const auto pidx = static_cast<std::size_t>(p.ebr_pid);
    std::uint32_t total = 0;
    for (const auto& sh : shards_) {
      total += sh->desc[pidx]->size() + sh->snap[pidx]->size();
    }
    return total;
  }

  int num_locks() const { return static_cast<int>(locks_.size()); }
  int max_procs() const { return max_procs_; }
  std::uint32_t num_shards() const { return num_shards_; }
  std::uint32_t shard_of(std::uint32_t lock_id) const {
    return lock_id & (num_shards_ - 1);
  }

  // Test/diagnostic visibility into per-shard pool occupancy: a shard no
  // attempt touched has every slot free, which is how test_lock_table
  // checks that single-lock attempts stay shard-local.
  std::uint32_t shard_desc_capacity(std::uint32_t s) const {
    return shards_[s]->desc_pool.capacity();
  }
  std::uint32_t shard_desc_free(std::uint32_t s) const {
    return shards_[s]->desc_pool.free_count();
  }
  std::uint32_t shard_snap_capacity(std::uint32_t s) const {
    return shards_[s]->snap_pool.capacity();
  }
  std::uint32_t shard_snap_free(std::uint32_t s) const {
    return shards_[s]->snap_pool.free_count();
  }

  // Shared-freelist transactions (pops/pushes, single or batched) against
  // one shard's pools. The allocation-locality tests assert this stays
  // flat across a steady-state uncontended window; bench_hotpath reports
  // it per attempt.
  std::uint64_t shard_freelist_ops(std::uint32_t s) const {
    return shards_[s]->desc_pool.freelist_ops() +
           shards_[s]->snap_pool.freelist_ops();
  }
  std::uint64_t freelist_ops() const {
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < num_shards_; ++s) {
      total += shard_freelist_ops(s);
    }
    return total;
  }

  // Test/diagnostic access to a lock's active set. An inspector must hold
  // an EBR guard (ebr_enter/ebr_exit) across get_set() and any use of the
  // returned snapshot. The adversary harness in exp_ablation uses this to
  // play the model's adaptive player, which may see all of history.
  Set& lock_set(std::uint32_t id) { return *locks_[id]; }

  // Batch support (executor::submit_batch): pre-enter/exit ONE shard's
  // guard, so a batch can cover exactly its lock sets' shard footprint.
  void guard_shard_enter(Process p, std::uint32_t shard) {
    WFL_DASSERT(shard < num_shards_);
    shard_enter(handle(p), shard);
  }
  void guard_shard_exit(Process p, std::uint32_t shard) {
    WFL_DASSERT(shard < num_shards_);
    shard_exit(handle(p), shard);
  }

  // Inspector guard over the whole table (all shards): the player adversary
  // may look at any lock, so it gets reclamation protection everywhere.
  void ebr_enter(Process p) {
    Handle& h = handle(p);
    for (std::uint32_t s = 0; s < num_shards_; ++s) shard_enter(h, s);
  }
  void ebr_exit(Process p) {
    Handle& h = handle(p);
    for (std::uint32_t s = 0; s < num_shards_; ++s) shard_exit(h, s);
  }

 protected:
  EbrDomain& ebr(std::uint32_t s) { return *ebr_[s]; }

  // `pid`'s descriptor cache on shard `s`: alloc pops it and the EBR
  // deleter pushes the slot back to it, so a steady-state attempt never
  // touches the shared freelist (arena.hpp). cache.pool() is the shard's
  // descriptor pool.
  SlotCache<Desc>& desc_cache(std::uint32_t s, int pid) {
    return *shards_[s]->desc[static_cast<std::size_t>(pid)];
  }

  void shard_enter(Handle& h, std::uint32_t s) { h.guard_enter(*ebr_[s], s); }
  void shard_exit(Handle& h, std::uint32_t s) { h.guard_exit(*ebr_[s], s); }
  void enter_shards(Handle& h, const std::uint32_t* shards, std::uint32_t n) {
    for (std::uint32_t j = 0; j < n; ++j) shard_enter(h, shards[j]);
  }
  void exit_shards(Handle& h, const std::uint32_t* shards, std::uint32_t n) {
    for (std::uint32_t j = 0; j < n; ++j) shard_exit(h, shards[j]);
  }

  // Distinct shards of an attempt's lock set, home shard first. At most
  // L <= kMaxLocksPerAttempt entries.
  std::uint32_t shard_footprint(std::span<const std::uint32_t> lock_ids,
                                std::uint32_t* out) const {
    std::uint32_t n = 0;
    for (const std::uint32_t id : lock_ids) {
      const std::uint32_t s = shard_of(id);
      bool seen = false;
      for (std::uint32_t j = 0; j < n; ++j) seen = seen || out[j] == s;
      if (!seen) out[n++] = s;
    }
    return n;
  }

  // The degenerate attempt (empty lock set): nothing to contend on, so the
  // thunk runs alone on the handle's private scratch log (reused + lazily
  // reset across attempts). A win with zero work.
  static bool run_alone(Handle& h, Thunk& thunk, AttemptInfo* info) {
    if (thunk) {
      ThunkLog<Plat>& log = h.local_log();
      IdemCtx<Plat> ctx(log, 0);
      thunk(ctx);
      log.note_used(ctx.ops_used());
      h.stats().add_log_slot_resets(log.reset_used());
      h.stats().add_thunk_run();
    }
    h.stats().add_win();
    if (info != nullptr) *info = AttemptInfo{true, 0, 0, 0};
    return true;
  }

 private:
  // One shard's memory. The caches are per process (indexed by pid) and
  // line-padded so neighbouring processes' caches never share a line.
  struct Shard {
    IndexPool<SetSnap<Desc*>> snap_pool;
    IndexPool<Desc> desc_pool;
    std::vector<CachePadded<SlotCache<Desc>>> desc;
    std::vector<CachePadded<SlotCache<SetSnap<Desc*>>>> snap;
    SetMem<Desc*> set_mem;

    Shard(std::size_t procs, const Layout& layout, EbrDomain& ebr)
        : snap_pool(layout.snap_capacity),
          desc_pool(layout.desc_capacity),
          desc(procs),
          snap(procs),
          set_mem{snap_pool, ebr, snap.data()} {
      for (auto& c : desc) c->bind(&desc_pool);
      for (auto& c : snap) c->bind(&snap_pool);
    }
  };

  int max_procs_;
  std::uint32_t num_shards_;
  bool fast_desc_;
  // Order matters: each EbrDomain's destructor drains retired objects back
  // into the per-process caches and pools — possibly of *other* shards
  // (cross-shard descriptors) — and runs any pending fast-path cooldown
  // deleters against their handles, so every pool, cache AND handle must
  // outlive every domain: shards_ and handles_ are declared before ebr_
  // (members are destroyed in reverse order), and locks_ (which climb
  // through both) come after.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Handle>> handles_;  // indexed by pid; fixed size
  std::vector<std::unique_ptr<EbrDomain>> ebr_;
  std::vector<std::unique_ptr<Set>> locks_;

  race::Atomic<std::uint64_t> serial_hwm_{1};
  ProcSlots pids_;
  std::atomic<int> registered_{0};
};

}  // namespace wfl
