// Baseline: blocking ordered two-phase locking over test-and-set
// spinlocks, behind the unified submit() shape.
//
// The classic practice the paper's locks are measured against: acquire
// the lock set in ascending id order (deadlock freedom by global order —
// a LockSetView is already sorted and duplicate-free), run the critical
// section directly (no helping: mutual exclusion is by blocking), release
// in reverse. Not wait-free, not fair: a preempted (or starved) lock
// holder blocks everyone behind it — exactly the failure mode wait-free
// locks remove.
//
// Policy mapping (the honest reading of an attempt-shaped blocking
// discipline):
//   * one attempt = a pass over the set giving each lock kPatience
//     test-and-test-and-set spins: it either acquires the whole set or
//     releases what it got and reports a loss — so attempts always
//     terminate, but a *held* lock fails every attempt for as long as its
//     holder sits on it (forever, if the holder crashed — the wedge
//     exp_crash measures);
//   * Policy::retry() keeps attempting with no bound: termination depends
//     on the other holders, which is exactly the blocking semantics;
//   * the backoff knob idles Plat::step()s between failed attempts.
//
// Critical sections run exactly once under mutual exclusion, but still
// through IdemCtx (one private per-pid log, fresh tag base per
// submission), so the same substrate thunks run unmodified and the
// idempotent Cells observe the same tagged-word protocol every other
// backend uses. This is the measured cost of the construction when nobody
// can help — the bench_apps ratio column.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "wfl/core/backend.hpp"
#include "wfl/util/align.hpp"

namespace wfl {

template <typename Plat>
struct Spin2plBackend {
  using Platform = Plat;

  // Test-and-test-and-set spins per lock in one attempt.
  static constexpr int kPatience = 4;

  class Space {
   public:
    explicit Space(const BackendConfig& cfg)
        : cfg_(cfg.lock),
          max_procs_(cfg.max_procs),
          flags_(static_cast<std::size_t>(cfg.num_locks)),
          slots_(cfg.max_procs),
          idem_(cfg.max_procs) {
      cfg_.validate();
      WFL_CHECK(cfg.num_locks > 0);
      for (auto& f : flags_) f->init(0);
    }

    int num_locks() const { return static_cast<int>(flags_.size()); }
    int max_procs() const { return max_procs_; }
    const LockConfig& config() const { return cfg_; }

    // Crash audit: a held flag after all live processes drained belongs to
    // a process that died inside its critical section.
    bool any_held() const {
      for (const auto& f : flags_) {
        if (f->peek() != 0) return true;
      }
      return false;
    }

    int acquire_pid() { return slots_.acquire(); }
    void release_pid(int pid) { slots_.release(pid); }

    IdemCtx<Plat> ctx_for(int pid) { return idem_.ctx_for(pid); }

    // One attempt: every lock of `locks` (ascending) within kPatience
    // spins each, or nothing.
    bool try_acquire_all(LockSetView locks) {
      for (std::uint32_t held = 0; held < locks.size(); ++held) {
        if (!try_acquire(locks[held])) {
          release_first(locks, held);
          return false;
        }
      }
      return true;
    }

    // Releases the first n locks of `locks`, in reverse.
    void release_first(LockSetView locks, std::uint32_t n) {
      for (std::uint32_t i = n; i > 0; --i) flags_[locks[i - 1]]->store(0);
    }

   private:
    bool try_acquire(std::uint32_t id) {
      auto& f = *flags_[id];
      for (int s = 0; s < kPatience; ++s) {
        if (f.load() == 0 && f.cas(0, 1)) return true;
      }
      return false;
    }

    LockConfig cfg_;
    int max_procs_;
    std::vector<CachePadded<typename Plat::template Atomic<std::uint32_t>>>
        flags_;
    ProcSlots slots_;
    ExclusiveIdem<Plat> idem_;
  };

  using Session = SlotSession<Space>;

  static const char* name() { return "spin2pl"; }
  static BackendProgress progress() { return BackendProgress::kBlocking; }

  static std::unique_ptr<Space> make_space(const BackendConfig& cfg) {
    return std::make_unique<Space>(cfg);
  }

  template <typename F>
  static Outcome submit(Session& session, LockSetView locks, const F& f,
                        Policy policy = Policy::one_shot()) {
    Space& space = session.space();
    check_submission(space, locks);
    const std::uint64_t before = Plat::steps();
    Outcome out;
    for (;;) {
      ++out.attempts;
      if (space.try_acquire_all(locks)) {
        IdemCtx<Plat> m = space.ctx_for(session.pid());
        f(m);
        space.release_first(locks, locks.size());
        out.won = true;
        break;
      }
      if (policy.max_attempts != 0 && out.attempts >= policy.max_attempts) {
        break;
      }
      out.backoff_steps += policy_backoff<Plat>(policy, out.attempts);
    }
    out.total_steps = Plat::steps() - before;
    return out;
  }
};

}  // namespace wfl
