// Baseline: ordered two-phase locking on std::mutex — what most deployed
// systems actually do for multi-lock critical sections — behind the
// unified submit() shape. Locks are taken in ascending id order (a
// LockSetView is already sorted and duplicate-free) and released in
// reverse.
//
// RealPlat only: an OS mutex blocks the *thread*, so parking a simulator
// fiber on it would wedge every fiber sharing that thread. The registries
// in baseline/backends.hpp therefore list this backend only for RealPlat.
//
// Policy mapping (the honest reading of an OS-blocking discipline):
//   * Policy::retry() (and any unlimited submission) maps to ONE blocking
//     lock() pass — attempts=1, won=true. That single "attempt" may sleep
//     unboundedly on a held mutex; reporting it as many failed probes
//     would misstate what the discipline does;
//   * a bounded Policy (max_attempts = n) maps to n try_lock passes over
//     the set, with the policy's backoff between failures — the
//     attempt-shaped comparison the crash/tail experiments need.
//
// Critical sections run exactly once under mutual exclusion, through a
// private IdemCtx (same reasoning as Spin2plBackend).
//
// total_steps counts Plat::steps() like every backend, but an OS mutex
// sleeps without stepping, so blocked time is invisible to it —
// wall-clock benches (exp_throughput) are where this backend is measured.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "wfl/core/backend.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/util/align.hpp"

namespace wfl {

struct Mutex2plBackend {
  using Platform = RealPlat;

  class Space {
   public:
    explicit Space(const BackendConfig& cfg)
        : cfg_(cfg.lock),
          max_procs_(cfg.max_procs),
          locks_(static_cast<std::size_t>(cfg.num_locks)),
          slots_(cfg.max_procs),
          idem_(cfg.max_procs) {
      cfg_.validate();
      WFL_CHECK(cfg.num_locks > 0);
    }

    int num_locks() const { return static_cast<int>(locks_.size()); }
    int max_procs() const { return max_procs_; }
    const LockConfig& config() const { return cfg_; }

    int acquire_pid() { return slots_.acquire(); }
    void release_pid(int pid) { slots_.release(pid); }

    IdemCtx<RealPlat> ctx_for(int pid) { return idem_.ctx_for(pid); }

    void lock_all(LockSetView locks) {
      for (const std::uint32_t id : locks) locks_[id]->lock();
    }

    // One attempt: every mutex of `locks` or nothing.
    bool try_lock_all(LockSetView locks) {
      for (std::uint32_t held = 0; held < locks.size(); ++held) {
        if (!locks_[locks[held]]->try_lock()) {
          unlock_first(locks, held);
          return false;
        }
      }
      return true;
    }

    // Unlocks the first n mutexes of `locks`, in reverse.
    void unlock_first(LockSetView locks, std::uint32_t n) {
      for (std::uint32_t i = n; i > 0; --i) locks_[locks[i - 1]]->unlock();
    }

   private:
    LockConfig cfg_;
    int max_procs_;
    std::vector<CachePadded<std::mutex>> locks_;
    ProcSlots slots_;
    ExclusiveIdem<RealPlat> idem_;
  };

  using Session = SlotSession<Space>;

  static const char* name() { return "mutex2pl"; }
  static BackendProgress progress() { return BackendProgress::kBlocking; }

  static std::unique_ptr<Space> make_space(const BackendConfig& cfg) {
    return std::make_unique<Space>(cfg);
  }

  template <typename F>
  static Outcome submit(Session& session, LockSetView locks, const F& f,
                        Policy policy = Policy::one_shot()) {
    Space& space = session.space();
    check_submission(space, locks);
    const std::uint64_t before = RealPlat::steps();
    Outcome out;
    auto run_then_unlock = [&] {
      IdemCtx<RealPlat> m = space.ctx_for(session.pid());
      f(m);
      space.unlock_first(locks, locks.size());
      out.won = true;
    };
    if (policy.max_attempts == 0) {
      out.attempts = 1;
      space.lock_all(locks);
      run_then_unlock();
    } else {
      for (;;) {
        ++out.attempts;
        if (space.try_lock_all(locks)) {
          run_then_unlock();
          break;
        }
        if (out.attempts >= policy.max_attempts) break;
        out.backoff_steps += policy_backoff<RealPlat>(policy, out.attempts);
      }
    }
    out.total_steps = RealPlat::steps() - before;
    return out;
  }
};

}  // namespace wfl
