// The lock table: sharded storage + orchestration for Algorithm 3.
//
// A LockTable owns a family of locks, each represented by one active set
// (Algorithm 1); together they form the multi active set (Algorithm 2) the
// attempts are inserted into. try_locks(lockList, thunk) is Algorithm 3
// line-for-line:
//
//   1. Help phase (lines 17–20): getSet every lock in the list; run() every
//      revealed descriptor found. Any competitor whose priority the player
//      adversary could have seen before starting us is forced to finish
//      before we pick our own priority (Lemma 6.4).
//   2. multiInsert (line 21): insert our descriptor into every lock's set;
//      then the *reveal step* — after delaying until exactly T0 = c0·κ²L²·T
//      of our own steps have elapsed since the attempt started, store a
//      uniformly random priority. The fixed delay makes the reveal time a
//      pure function of the start time (Observation 6.7), which is what
//      denies the adversary any priority-dependent timing leverage.
//   3. run(p) (lines 26–37): the attempt engine's competition core — see
//      core/attempt.hpp, which owns the safety-critical celebrate-before-
//      decide ordering (Definition 4.3).
//   4. multiRemove (line 23) and the trailing delay to T1 = c1·κLT own
//      steps after the reveal, fixing the attempt's end time as well.
//
// Wait-freedom is structural: every loop on the attempt path is bounded by
// κ, L, or T. There are no unbounded retries anywhere.
//
// --- Sharding -------------------------------------------------------------
//
// Locks are distributed over S = 2^k independent shards (lock id & (S-1)).
// Each shard owns a descriptor pool, a snapshot pool, and an EBR domain of
// its own (the storage, registry and guards are core/table_core.hpp,
// shared with the adaptive space), so the memory-management traffic of an
// attempt — pool freelist CASes, snapshot churn, epoch advancement — stays
// inside the shards its lock set touches. A single-lock attempt is routed
// entirely through its home shard: it allocates, competes, and reclaims
// there and writes no other shard's cachelines. The per-process counters
// that the monolith shared globally (serial, stats) are striped into
// ProcessHandles (core/process.hpp), so the only cross-shard communication
// left is the algorithm's own descriptor CASes — which the competition
// semantics require and the paper's step bounds already price in.
//
// A multi-lock attempt whose locks straddle shards works unchanged: the
// descriptor (homed in the shard of its first lock) is inserted into every
// lock's set, and the shared-descriptor competition proceeds exactly as in
// the monolith. Two things make that safe:
//
//   * guard coverage — every read of a shard's snapshots/descriptors
//     happens under *that shard's* EBR guard. The attempt enters the guards
//     of all shards its lock set touches around each work segment, and the
//     engine's run() (which may be helping a descriptor whose lock set
//     touches other shards) re-enters whatever extra shards it needs
//     through the handle's re-entrant depth counters.
//   * refcounted retire — a descriptor that was visible in k shards is
//     retired into all k domains with a k-valued refcount; the pool slot is
//     freed by the last domain whose grace period expires, so a helper
//     parked inside any one shard's guard keeps the descriptor alive.
//
// EBR guards are held across the two *work* segments (help+insert, and
// run+remove) and released across the delay segments, which dominate an
// attempt's steps; this keeps reclamation flowing while a slow process
// stalls in a delay. Releasing the guard there is safe: during a delay the
// process holds no borrowed references (its own descriptor is not retired
// until the end of the attempt).
//
// --- Thin-word fast path (DelayMode::kOff only) ----------------------------
//
// Every lock carries a *thin word*. An uncontended attempt on any lock set
// CASes an encoding of (owner pid, attempt serial) into each of its locks'
// words, in ascending lock-id order, competes through the handle's
// embedded descriptor — which the words logically publish, exactly as
// active-set inserts would — and CASes every word back to free. The steady
// state is 2L thin-word CASes plus the competition reads: zero
// descriptor-pool traffic, zero snapshot climbs, zero EBR retires.
//
// The words follow Algorithm 2's multiInsert: the descriptor is published
// through every word while unflagged (priority pending), and the reveal —
// the priority store — comes only after the last publish CAS. Rivals
// ignore unflagged publications, as getSet ignores unflagged members. A
// single-lock attempt publishes already revealed: its one CAS is also the
// reveal. If any word is held, the words already taken are unwound and the
// attempt falls through to the descriptor path with its thunk intact.
//
// On conflict a contender *revokes* the publication: it sets the word's
// observed bit (announcing that it holds a reference to the embedded
// descriptor) and then duels/helps that descriptor through the ordinary
// Algorithm-3 machinery — eliminate, celebrate-if-won, thunk replay via
// the idempotence log — so helping semantics and the step bound are
// preserved verbatim. The owner, finding a release CAS failed, clears the
// word and *cools down*: the embedded descriptor may not be reused until a
// grace period has passed in every shard holding a revoked word (one
// cooldown token per such shard; the last to expire re-arms the handle),
// because the observer may still be reading it. Until then the process's
// attempts take the descriptor path. Safety argument in DESIGN.md §5.1.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "wfl/active/multi_set.hpp"
#include "wfl/core/attempt.hpp"
#include "wfl/core/config.hpp"
#include "wfl/core/descriptor.hpp"
#include "wfl/core/lock_set.hpp"
#include "wfl/core/table_core.hpp"
#include "wfl/fuzz/sites.hpp"
#include "wfl/util/assert.hpp"

namespace wfl {

// Capacity/layout overrides; 0 means "auto from process count".
struct SpaceSizing {
  std::uint32_t snap_pool_capacity = 0;  // initial snapshots per shard
  std::uint32_t desc_pool_capacity = 0;  // initial descriptors per shard
  std::uint32_t shards = 0;              // shard count (power of two)
};

// Release-event sink: a runtime (the async executor) installs one to learn
// when a lock's competition state changed — a descriptor left the lock's
// active set (multiRemove, win or loss) or a thin-word publication was
// released/revoked — i.e. exactly the moments a blocked submission may
// have become runnable. Notifications are advisory (spurious ones are
// fine; the executor's park protocol re-checks), posted OUTSIDE the step
// model (like reclamation, DESIGN.md #2), and only ever posted while a
// sink is installed — which the async executor gates on DelayMode::kOff,
// so kTheory executions stay bit-identical.
// `origin_pid` is the process whose attempt posted the event — the sink
// uses it to skip that attempt's own submission when picking a waiter to
// wake (an op must not consume its own release events; that would turn
// every losing attempt into a hot self-retry). It is a pid rather than a
// thread-identity because under SimPlat many logical processes interleave
// mid-attempt on one OS thread.
class WakeSink {
 public:
  virtual void on_release(std::uint32_t lock_id, int origin_pid) = 0;

 protected:
  ~WakeSink() = default;
};

template <typename Plat>
class LockTable : public TableCore<Plat, Descriptor<Plat>> {
  using Core = TableCore<Plat, Descriptor<Plat>>;

 public:
  using typename Core::Desc;
  using typename Core::Handle;
  using typename Core::Process;
  using typename Core::Set;
  using typename Core::Thunk;
  using Core::handle;
  using Core::shard_of;

  LockTable(const LockConfig& cfg, int max_procs, int num_locks,
            SpaceSizing sizing = {})
      : Core(max_procs, num_locks, layout(cfg, max_procs, num_locks, sizing)),
        cfg_(cfg),
        thin_(static_cast<std::size_t>(num_locks)) {
    // The practical-mode optimizations are hard-gated on kOff: with the
    // paper's delays on, every execution is bit-identical to the pre-
    // fast-path tree (the thin words are never published, and the slow
    // path's probes are skipped entirely).
    fast_enabled_ = cfg_.delay_mode == DelayMode::kOff && cfg_.fast_path;
    cooperative_ = cfg_.delay_mode == DelayMode::kOff;
  }

  const LockConfig& config() const { return cfg_; }

  // Installs (or clears, with nullptr) the release-event sink. Callers
  // install before submitting any traffic they want notifications for;
  // the async executor clears it only after its workers have drained.
  void set_wake_sink(WakeSink* sink) {
    wake_sink_.store(sink, std::memory_order_release,
                     race::Site::kWakeSinkInstall);
  }

  // One tryLock attempt on `lock_ids` running `thunk` if all locks are
  // acquired. Returns success. Never blocks on other processes: completes
  // in O(κ²L²T) of the caller's own steps regardless of the schedule.
  //
  // The raw-span overload re-validates the set (budget + duplicate scan)
  // on every call; the LockSetView overload skips both, because the view
  // type's construction already established them (core/lock_set.hpp).
  bool try_locks(Process proc, std::span<const std::uint32_t> lock_ids,
                 Thunk thunk, AttemptInfo* info = nullptr) {
    WFL_CHECK_MSG(lock_ids.size() <= cfg_.max_locks,
                  "lock set exceeds the configured L bound");
    // Debug-only duplicate scan: LockSetView is the validated path, so the
    // O(L²) scan no longer taxes release-build raw-span callers
    // (bench_hotpath reports the residual overload delta).
#ifndef NDEBUG
    for (std::size_t i = 0; i < lock_ids.size(); ++i) {
      for (std::size_t j = i + 1; j < lock_ids.size(); ++j) {
        WFL_DASSERT(lock_ids[i] != lock_ids[j]);
      }
    }
#endif
    return attempt(proc, lock_ids, std::move(thunk), info);
  }

  // Templated so braced initializer lists keep resolving to the span
  // overload above (a braced list cannot deduce ViewT); accepts
  // LockSetView and anything carrying its invariants (StaticLockSet).
  template <typename ViewT>
    requires std::is_convertible_v<const ViewT&, LockSetView>
  bool try_locks(Process proc, const ViewT& lock_ids, Thunk thunk,
                 AttemptInfo* info = nullptr) {
    const LockSetView view = lock_ids;
    WFL_DASSERT(view.size() <= cfg_.max_locks);
    return attempt(proc, view.span(), std::move(thunk), info);
  }

 private:
  bool attempt(Process proc, std::span<const std::uint32_t> lock_ids,
               Thunk thunk, AttemptInfo* info) {
    Handle& h = handle(proc);
    const auto n_locks = static_cast<std::uint32_t>(this->num_locks());
    for (std::size_t i = 0; i < lock_ids.size(); ++i) {
      WFL_CHECK_MSG(lock_ids[i] < n_locks, "lock id out of range");
    }
    h.stats().add_attempt();
    if (lock_ids.empty()) return Core::run_alone(h, thunk, info);

    // Counted from here so that a fast try that finds a word held — its
    // publish CASes and their unwind — is part of this attempt's steps.
    const std::uint64_t start_steps = Plat::steps();

    // Thin-word fast path: an attempt whose embedded descriptor is warm
    // tries to decide through its locks' thin words. A contended or
    // cooling-down attempt falls through to the descriptor path below with
    // the thunk intact.
    if (fast_enabled_ && h.fast_ready()) {
      bool won = false;
      if (fast_attempt(h, lock_ids, thunk, start_steps, info, won)) return won;
    }

    // The attempt's shard footprint. The home shard (the first lock's)
    // hosts the descriptor, drawn from this process's cache there; for a
    // single-lock attempt the footprint is exactly {home} and nothing below
    // touches any other shard.
    std::uint32_t att_shards[kMaxLocksPerAttempt];
    const std::uint32_t n_att_shards =
        this->shard_footprint(lock_ids, att_shards);
    SlotCache<Desc>& dcache = this->desc_cache(shard_of(lock_ids[0]), h.pid());
    const std::uint32_t didx = dcache.alloc();
    Desc& d = dcache.pool().at(didx);
    h.reinit(d);
    d.lock_count = static_cast<std::uint32_t>(lock_ids.size());
    for (std::size_t i = 0; i < lock_ids.size(); ++i) {
      d.lock_ids[i] = lock_ids[i];
    }
    d.thunk = std::move(thunk);
    // Line group A is complete; the set insert below publishes it.
    WFL_PLAIN_WRITE(&d, kDescPlain);
    d.retire_refs.store(n_att_shards, std::memory_order_relaxed,
                        race::Site::kRetireRefsInit);

    AttemptCtx cx{*this, h};

    // --- work segment 1: help phase + multiInsert (lines 17-21) ---
    this->enter_shards(h, att_shards, n_att_shards);
    if (cfg_.help_phase) {
      MemberList<Desc*>& members = h.help_scratch();
      for (std::uint32_t i = 0; i < d.lock_count; ++i) {
        multi_get_set<Plat>(this->lock_set(d.lock_ids[i]), members);
        for (Desc* q : members) {
          h.stats().add_help();
          Engine::help(cx, *q);
        }
        // A thin-word publication on this lock is a revealed competitor
        // like any set member: drive it too (fast-path owners are helped,
        // not just dueled).
        if (Desc* r = cx.thin_rival(d.lock_ids[i])) {
          h.stats().add_help();
          Engine::help(cx, *r);
        }
      }
    }
    for (std::uint32_t i = 0; i < d.lock_count; ++i) {
      d.slot_of_lock[i] = this->lock_set(d.lock_ids[i]).insert(&d, h.pid());
    }
    this->exit_shards(h, att_shards, n_att_shards);
    const std::uint64_t pre_reveal_work = Plat::steps() - start_steps;

    // --- the reveal step, pinned to exactly T0 own steps (lines 10-11) ---
    Engine::delay_until(cfg_.delay_mode, start_steps, cfg_.t0_steps(),
                        [&h] { h.stats().add_t0_overrun(); });
    d.priority.store(draw_priority<Plat>());
    const std::uint64_t reveal_steps = Plat::steps();

    // --- work segment 2: compete, then multiRemove (lines 22-23) ---
    this->enter_shards(h, att_shards, n_att_shards);
    Engine::run(cx, d);
    d.clear_flag();
    for (std::uint32_t i = 0; i < d.lock_count; ++i) {
      this->lock_set(d.lock_ids[i]).remove(d.slot_of_lock[i], h.pid());
    }
    this->exit_shards(h, att_shards, n_att_shards);
    const std::uint64_t post_reveal_work = Plat::steps() - reveal_steps;

    // The descriptor left every lock's set: waiters parked on those locks
    // may now be able to win — post the release events (no-op without a
    // sink; never reached with one under kTheory).
    notify_release(lock_ids, h.pid());

    // --- trailing delay pins the attempt's end time (line 24) ---
    Engine::delay_until(cfg_.delay_mode, reveal_steps, cfg_.t1_steps(),
                        [&h] { h.stats().add_t1_overrun(); });

    const bool won = d.status.load() == kStatusWon;
    if (won) h.stats().add_win();
    // Retire into every shard the descriptor was visible in; the slot is
    // recycled — back into this process's home-shard cache — by the last
    // grace period to expire (see retire_refs).
    for (std::uint32_t s = 0; s < n_att_shards; ++s) {
      this->ebr(att_shards[s]).retire(h.pid(), &dcache, didx,
                                      &release_descriptor);
    }
    if (info != nullptr) {
      info->won = won;
      info->pre_reveal_work = pre_reveal_work;
      info->post_reveal_work = post_reveal_work;
      info->total_steps = Plat::steps() - start_steps;
    }
    return won;
  }

  // --- thin-word fast path (see the header comment and DESIGN.md §5.1) ---

  // Thin-word encoding: bit 0 = observed (a rival holds a reference to the
  // publication), bits 1..15 = owner pid + 1, bits 16..63 = attempt serial.
  // pid+1 keeps 0 meaning "free"; the serial makes (pid, serial) reuse —
  // the only ABA that could confuse a rival's CAS — require a 2^48 serial
  // wrap inside one rival's bounded probe window.
  static constexpr std::uint64_t kThinObserved = 1;
  static std::uint64_t thin_encode(int pid, std::uint64_t serial) {
    return (static_cast<std::uint64_t>(pid + 1) << 1) | (serial << 16);
  }
  static int thin_pid(std::uint64_t word) {
    return static_cast<int>((word >> 1) & 0x7FFF) - 1;
  }

  // One fast-path attempt on `lock_ids`. Returns true when the attempt was
  // decided here (won_out holds the outcome); false when a thin word was
  // already held — the words taken so far are unwound, the thunk is moved
  // back out and the caller proceeds on the descriptor path. The embedded
  // descriptor is fully formed BEFORE the first publish CAS, so a rival
  // that observes a word reads a complete Algorithm-3 descriptor; it duels
  // it only once the reveal has flagged it (thin_rival).
  bool fast_attempt(Handle& h, std::span<const std::uint32_t> lock_ids,
                    Thunk& thunk, std::uint64_t start_steps,
                    AttemptInfo* info, bool& won_out) {
    Desc& fd = h.fast_desc();
    h.reinit(fd);
    // Ascending lock-id order (raw spans may be unsorted): two fast
    // attempts with overlapping lock sets then meet on their lowest shared
    // lock, so one of them takes every word instead of each taking some.
    const auto n = static_cast<std::uint32_t>(lock_ids.size());
    fd.lock_count = n;
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint32_t j = i;
      for (; j > 0 && fd.lock_ids[j - 1] > lock_ids[i]; --j) {
        fd.lock_ids[j] = fd.lock_ids[j - 1];
      }
      fd.lock_ids[j] = lock_ids[i];
    }
    fd.thunk = std::move(thunk);
    // One lock: the publish CAS is also the reveal. Several: publish
    // unflagged, reveal after the last CAS (the seeded fault reveals
    // first, which lets a rival drive a half-published attempt).
    if (n == 1) {
      fd.priority.init(draw_priority<Plat>());
    } else if (fuzz::fault_on<Plat>(fuzz::Fault::kThinEarlyReveal)) {
      fd.priority.store(draw_priority<Plat>());
    }
    WFL_PLAIN_WRITE(&fd, kDescPlain);  // complete before the publish CAS
    const std::uint64_t enc = thin_encode(h.pid(), fd.serial);
    for (std::uint32_t i = 0; i < n; ++i) {
      WFL_CHK_TAG(kThinPublish);  // contract: the publish CAS must stay seq_cst
      if (!thin_[fd.lock_ids[i]]->cas(0, enc)) {
        // Held by someone else: this attempt is contended. Unwind, then
        // take the descriptor path (which duels/helps the holder via
        // thin_rival).
        if (release_words(h, fd, i, enc)) {
          WFL_FUZZ_SITE(kSiteThinUnwindRevoked);
        }
        thunk = std::move(fd.thunk);
        return false;
      }
    }
    if (n > 1 && !fuzz::fault_on<Plat>(fuzz::Fault::kThinEarlyReveal)) {
      fd.priority.store(draw_priority<Plat>());  // the reveal
    }
    const std::uint64_t pre_reveal_work = Plat::steps() - start_steps;

    // Compete exactly as a slow-path attempt would: the engine reads each
    // lock's set members AND thin word (skipping our own publication)
    // under the shards' guards, then decides and celebrates.
    AttemptCtx cx{*this, h};
    const std::uint64_t reveal_steps = Plat::steps();
    Engine::run(cx, fd);
    release_words(h, fd, n, enc);
    // Publications gone (released or revoked+cleared): post the release
    // events for parked waiters either way.
    notify_release({fd.lock_ids, n}, h.pid());
    const std::uint64_t post_reveal_work = Plat::steps() - reveal_steps;

    const bool won = fd.status.load() == kStatusWon;
    if (won) h.stats().add_win();
    h.stats().add_fastpath_hit();
    if (info != nullptr) {
      info->won = won;
      info->pre_reveal_work = pre_reveal_work;
      info->post_reveal_work = post_reveal_work;
      info->total_steps = Plat::steps() - start_steps;
    }
    won_out = won;
    return true;
  }

  // Frees the first `n` of fd's thin words, each holding `enc`. A word
  // whose CAS back to 0 fails carries a rival's observed bit (the only
  // transition a non-owner makes), and that rival may still be reading the
  // embedded descriptor: clear the word, then cool the descriptor down
  // through a grace period of every shard such a word lives in before any
  // reuse. Rivals that probe from here on see 0 — and any attempt that
  // started after our publication already found us through the word or
  // will see our effects as decided. Returns whether any word was revoked.
  bool release_words(Handle& h, const Desc& fd, std::uint32_t n,
                     std::uint64_t enc) {
    std::uint32_t revoked[kMaxLocksPerAttempt];
    std::uint32_t n_revoked = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      ThinWord& w = *thin_[fd.lock_ids[i]];
      WFL_CHK_TAG(kThinRelease);
      if (w.cas(enc, 0)) continue;
      WFL_CHK_TAG(kThinRelease);
      WFL_FUZZ_SITE(kSiteThinRevocation);
      w.store(0);
      revoked[n_revoked++] = fd.lock_ids[i];
    }
    if (n_revoked == 0) return false;
    std::uint32_t shards[kMaxLocksPerAttempt];
    const std::uint32_t n_shards =
        this->shard_footprint({revoked, n_revoked}, shards);
    // Armed before the first token is retired, so no deleter can run
    // against a stale count.
    h.set_fast_cooldown(n_shards);
    for (std::uint32_t s = 0; s < n_shards; ++s) {
      this->ebr(shards[s]).retire(h.pid(), &h, 0,
                                  &Handle::fast_cooldown_expired);
    }
    h.stats().add_fastpath_revocation();
    return true;
  }

  // The observe protocol, called by the engine (under the shard's guard —
  // every call site covers shard_of(lock_id)). Returns the lock's current
  // fast-path publication as a duel-able descriptor, or nullptr when the
  // word is free, owned by the caller, not yet revealed, or too unstable
  // to pin.
  //
  // Setting the observed bit BEFORE dereferencing is what makes the
  // returned pointer stable: once the bit is set the owner's release CAS
  // fails, so the owner clears the word and cools the descriptor through a
  // grace period of this shard — which cannot expire while the caller
  // holds the shard's guard. Giving up after two changed-word passes is
  // safe: the word changing means the previous publication completed
  // (decided and released), and any NEWER publication's competition scan
  // happens after its publish CAS — which is after our own set insert —
  // so the newer owner is guaranteed to see and duel us instead. Skipping
  // an unflagged publication is safe for the same reason: its owner
  // reveals after this probe and scans after its reveal, so it finds
  // whatever the caller is running (getSet's filter, Algorithm 2).
  Desc* thin_rival(Handle& h, std::uint32_t lock_id) {
    if (!fast_enabled_) return nullptr;
    ThinWord& w = *thin_[lock_id];
    for (int pass = 0; pass < 2; ++pass) {
      const std::uint64_t v = w.load();
      if (v == 0) return nullptr;
      const int pid = thin_pid(v);
      if (pid == h.pid()) return nullptr;  // own publication
      if ((v & kThinObserved) != 0 || w.cas(v, v | kThinObserved)) {
        Desc& fd = handle(Process{pid}).fast_desc();
        return fd.flag() ? &fd : nullptr;
      }
    }
    return nullptr;
  }

 public:
  // Diagnostics for the fast path (tests, bench_scaling).
  bool fast_path_enabled() const { return fast_enabled_; }
  bool cooperative_help_enabled() const { return cooperative_; }
  // Quiescent-only peek at a lock's thin word (0 = free).
  std::uint64_t thin_word_peek(std::uint32_t lock_id) const {
    return thin_[lock_id]->peek();
  }

 private:
  struct AttemptCtx;
  using Engine = AttemptEngine<Plat, AttemptCtx>;
  using ThinWord = typename Plat::template Atomic<std::uint64_t>;

  // RAII guard coverage for one descriptor's shard footprint, on top of the
  // handle's re-entrant depth counters. Returned by value from
  // AttemptCtx::lock_guards (guaranteed elision); neither copyable nor
  // movable.
  class GuardScope {
   public:
    GuardScope(LockTable& t, Handle& h, const Desc& p) : t_(t), h_(h) {
      n_ = t_.shard_footprint({p.lock_ids, p.lock_count}, shards_);
      t_.enter_shards(h_, shards_, n_);
    }
    ~GuardScope() { t_.exit_shards(h_, shards_, n_); }
    GuardScope(const GuardScope&) = delete;
    GuardScope& operator=(const GuardScope&) = delete;

   private:
    LockTable& t_;
    Handle& h_;
    std::uint32_t shards_[kMaxLocksPerAttempt];
    std::uint32_t n_ = 0;
  };

  // The engine's memory/stats context (see core/attempt.hpp).
  struct AttemptCtx {
    LockTable& t;
    Handle& h;
    using Desc = LockTable::Desc;

    Set& set(std::uint32_t lock_id) { return t.lock_set(lock_id); }
    StatsSlab& stats() { return h.stats(); }
    MemberList<Desc*>& run_scratch() { return h.run_scratch(); }
    GuardScope lock_guards(Desc& p) { return GuardScope(t, h, p); }
    Desc* thin_rival(std::uint32_t lock_id) {
      return t.thin_rival(h, lock_id);
    }
    int pid() { return h.pid(); }
    bool cooperative() { return t.cooperative_; }
    std::uint32_t claim_patience() { return t.cfg_.claim_patience; }
  };
  friend struct AttemptCtx;

  // Validates the configuration, then sizes the core. Pool capacities are
  // initial sizes only: the pools grow on demand (reclamation can stall for
  // as long as any process is preempted inside an EBR guard, so no static
  // bound is safe — see arena.hpp).
  static typename Core::Layout layout(const LockConfig& cfg, int max_procs,
                                      int num_locks, SpaceSizing sizing) {
    cfg.validate();
    WFL_CHECK(max_procs > 0 && num_locks > 0);
    WFL_CHECK_MSG(max_procs < (1 << 15),
                  "thin-word owner encoding caps max_procs at 2^15 - 1");
    WFL_CHECK(cfg.max_locks <= kMaxLocksPerAttempt);
    WFL_CHECK(cfg.max_thunk_steps <= kMaxThunkOps);
    WFL_CHECK(cfg.kappa <= kMaxSetCap);
    const std::uint32_t shards = sizing.shards != 0
                                     ? sizing.shards
                                     : auto_shards(max_procs, num_locks);
    const auto procs = static_cast<std::uint32_t>(max_procs);
    const auto per_shard = [shards](std::uint32_t total, std::uint32_t floor) {
      return std::max(floor, total / shards);
    };
    return {shards,
            sizing.snap_pool_capacity != 0
                ? sizing.snap_pool_capacity
                : per_shard(std::max<std::uint32_t>(4096, procs * 256), 512),
            sizing.desc_pool_capacity != 0
                ? sizing.desc_pool_capacity
                : per_shard(std::max<std::uint32_t>(512, procs * 32), 128),
            cfg.kappa, /*fast_desc=*/true};
  }

  // Largest power of two <= min(max_procs, num_locks, kMaxShards): enough
  // shards that processes spread out, never more shards than locks (a
  // shard without locks is pure overhead), and 1 for the single-process
  // spaces the unit tests build by the hundreds.
  static std::uint32_t auto_shards(int max_procs, int num_locks) {
    std::uint32_t s = 1;
    while (s * 2 <= kMaxShards && static_cast<int>(s * 2) <= max_procs &&
           static_cast<int>(s * 2) <= num_locks) {
      s *= 2;
    }
    return s;
  }

  // Posts release events to the installed sink, if any. One relaxed load
  // on the hot path when no sink is installed; the sink's own ordering
  // obligations are the executor's (its park protocol re-validates under
  // its wait-list locks, so advisory ordering here suffices).
  void notify_release(std::span<const std::uint32_t> lock_ids,
                      int origin_pid) {
    WakeSink* sink =
        wake_sink_.load(std::memory_order_acquire, race::Site::kWakeSinkLoad);
    if (sink == nullptr) return;
    for (const std::uint32_t id : lock_ids) sink->on_release(id, origin_pid);
  }

  // EBR deleter for descriptors: drop one shard's reference; the last one
  // returns the pool slot to the owner's home-shard cache. ctx is that
  // cache (deleters run on the retiring participant, or under quiescent
  // domain teardown — single-owner either way).
  static void release_descriptor(void* ctx, std::uint32_t handle) {
    auto* cache = static_cast<SlotCache<Desc>*>(ctx);
    Desc& d = cache->pool().at(handle);
    if (d.retire_refs.fetch_sub(1, std::memory_order_acq_rel,
                                race::Site::kRetireRefsDrop) == 1) {
      cache->free(handle);
    } else {
      // Multi-shard descriptor: another shard's grace period still holds a
      // reference. Only reachable when the attempt's lock set spans shards.
      WFL_FUZZ_SITE(kSiteMultiShardRetire);
    }
  }

  LockConfig cfg_;
  bool fast_enabled_ = false;
  bool cooperative_ = false;
  // One thin word per lock, line-padded: under contention rivals hammer a
  // lock's word with observe CASes and the owner with publish/release
  // CASes — neighbouring locks must not share that line.
  std::vector<CachePadded<ThinWord>> thin_;
  // race::Atomic, not Plat::Atomic: loads of the sink are runtime plumbing,
  // not steps of the paper's model — installing one must not perturb step
  // accounting. Null whenever no async executor is attached.
  race::Atomic<WakeSink*> wake_sink_{nullptr};
};

}  // namespace wfl
