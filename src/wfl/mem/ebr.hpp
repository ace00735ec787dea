// Epoch-based reclamation with explicit participant handles.
//
// Helpers may hold references to another attempt's descriptor or to a
// replaced set snapshot long after the owner moved on, so freeing must wait
// for a grace period. Classic 3-epoch EBR; the one twist is that
// participants are explicit handles rather than thread_locals, because a
// "process" here can be either an OS thread (RealPlat) or a simulator fiber
// (SimPlat) — many fibers share one thread.
//
// Safety contract: retire(obj) must be called only after obj is unreachable
// from shared memory. Then any guard that can still hold a reference was
// entered at an epoch <= the epoch observed by retire(); such a guard blocks
// the global epoch below observed+2, so freeing at observed+2 is safe.
//
// Reclamation is not part of the algorithms' step accounting (DESIGN.md
// substitution #2): its words are race::Atomic (check/race.hpp), not
// Plat::Atomic, so they cost no steps and each reports its contract Site.
//
// The domain splits in two halves. The LIVENESS half — global epoch,
// participant count, per-participant announcement and liveness lease — is
// one pointer-free block that the domain either owns on the heap or
// attaches to inside a ShmArena, so a guard held in one process blocks
// reclamation in every other (core/shm_table.hpp, DESIGN.md §10). The
// RETIRED-object buckets are always process-local. The split decides the
// crash story of the arena placement: when a process dies by SIGKILL, its
// announced guard (shared) would pin the global epoch forever, and its
// pending retirements (local) vanish with the address space. The reaper
// fixes the former with abandon(); the latter is a bounded leak, at most
// one bucket-load of slots per crash, priced into the shm pools' fixed
// sizing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "wfl/check/race.hpp"
#include "wfl/util/align.hpp"
#include "wfl/util/assert.hpp"
#include "wfl/util/shm.hpp"

namespace wfl {

class EbrDomain {
 public:
  using Deleter = void (*)(void* ctx, std::uint32_t handle);

  // Owned placement: the shared half lives on this process's heap, and the
  // destructor drains every pending retirement.
  explicit EbrDomain(int max_participants)
      : own_(static_cast<Shared*>(::operator new(
            Shared::bytes(max_participants), std::align_val_t{kCacheLine}))),
        sh_(Shared::construct(own_.get(), max_participants)),
        local_(static_cast<std::size_t>(max_participants)) {}

  // Arena placement, creator side: lays the shared half out in `a` and
  // returns its offset for any process to attach.
  static std::uint64_t create_in(ShmArena& a, int max_participants) {
    WFL_CHECK(max_participants > 0);
    const std::uint64_t off =
        a.alloc_bytes(Shared::bytes(max_participants), alignof(Shared));
    Shared::construct(a.at<Shared>(off), max_participants);
    return off;
  }

  // Arena placement, any process: attaches to the shared half at `off` in
  // this process's mapping. Retired-object buckets stay process-local (a
  // deleter is a function pointer plus a ctx pointer, neither of which
  // survives an address-space boundary); retire/collect only ever run in
  // the participant's own process, so that locality is free. A guard held
  // in one process blocks reclamation in every other.
  EbrDomain(const ShmArena& a, std::uint64_t off)
      : sh_(a.at<Shared>(off)), local_(sh_->max_participants) {}

  EbrDomain(const EbrDomain&) = delete;
  EbrDomain& operator=(const EbrDomain&) = delete;

  ~EbrDomain() {
    // An arena domain outlives any one attacher: no drain. A crashed
    // process's pending retirements vanish with its address space — a
    // bounded leak priced into the shm pools' fixed sizing (DESIGN.md §10).
    if (!own_) return;
    // Owned-domain teardown implies quiescence; drain everything
    // unconditionally.
    for (std::uint32_t pid = 0; pid < sh_->max_participants; ++pid) {
      WFL_CHECK_MSG(!sh_->part(pid).active.peek(),
                    "EbrDomain destroyed while a participant holds a guard");
      for (Bucket& bucket : local_[pid]->buckets) drain(bucket);
    }
  }

  int register_participant() {
    const int id = sh_->next_participant.fetch_add(
        1, std::memory_order_acq_rel, Site::kEbrParticipantCount);
    WFL_CHECK_MSG(id < static_cast<int>(sh_->max_participants),
                  "EbrDomain participant capacity exceeded");
    return id;
  }

  int participant_count() const {
    return sh_->next_participant.load(std::memory_order_acquire,
                                      Site::kEbrParticipantCount);
  }

  // Announce-then-verify, restructured for the guard hot path (an attempt
  // enters/exits every shard it touches around each work segment):
  //
  //   * ONE seq_cst fence at the publication point orders the relaxed
  //     active/epoch announcement stores before the seq_cst verify load.
  //     The either-or this buys: an advancer whose participant scan follows
  //     the fence in the SC order observes the announcement (fences order
  //     preceding relaxed stores against later seq_cst loads); an advancer
  //     whose CAS precedes the fence is observed by the verify load, which
  //     then re-announces at the new epoch. Either way a guard announced at
  //     epoch e is seen by every advance attempt from e+1 on, so it blocks
  //     the global epoch below e+2 exactly as before. The argument does not
  //     care which process the announcing thread lives in.
  //   * the epoch re-announce is SKIPPED when the global epoch still equals
  //     the participant's previous announcement (the common case between
  //     collects): the stored epoch word is already correct, so only the
  //     active flag and the fence are needed.
  //
  // While the re-announce loop runs, active is already true with a stale
  // epoch — that conservatively blocks advancement, so the loop settles
  // after at most one more epoch move. Validated by the TSan CI matrix and
  // the crash/chaos tests.
  void enter(int pid) {
    Participant& p = part(pid);
    WFL_CHECK_MSG(!p.active.peek(),
                  "EBR enter() while already in a critical region");
    p.active.store(true, std::memory_order_relaxed, Site::kEbrAnnounce);
    race::fence(std::memory_order_seq_cst, Site::kEbrPublishFence);
    std::uint64_t e =
        sh_->global_epoch.load(std::memory_order_seq_cst, Site::kEbrVerifyLoad);
    if (e == p.epoch.load(std::memory_order_relaxed, Site::kEbrEpochSelfLoad)) {
      return;
    }
    for (;;) {
      p.epoch.store(e, std::memory_order_relaxed, Site::kEbrEpochAnnounce);
      race::fence(std::memory_order_seq_cst, Site::kEbrPublishFence);
      const std::uint64_t e2 = sh_->global_epoch.load(
          std::memory_order_seq_cst, Site::kEbrVerifyLoad);
      if (e2 == e) return;
      e = e2;
    }
  }

  void exit(int pid) {
    Participant& p = part(pid);
    WFL_CHECK(p.active.peek());
    // Release: the guard's critical-section reads are sequenced before this
    // store, and a collector's seq_cst scan that observes false acquires
    // it, so retired objects are freed only after our reads completed.
    p.active.store(false, std::memory_order_release, Site::kEbrExit);
  }

  // Crash support: drops `pid`'s guard (if held) on its behalf. ONLY legal
  // when the participant provably takes no further steps — a simulator
  // fiber that a CrashSchedule parked forever, a joined thread, or a
  // process the shm reaper has waitpid/pid-probe evidence is dead. A guard
  // held by a genuinely running process must never be force-released: the
  // process may still dereference retired objects. Crash harnesses call
  // this before tearing the domain down; it also un-stalls reclamation for
  // any post-crash measurement phase.
  void abandon(int pid) {
    part(pid).active.store(false, std::memory_order_seq_cst,
                           Site::kEbrAbandon);
  }

  // Liveness lease (the shm table's crash detection, DESIGN.md §10.2):
  // bind_os_pid once at session open, heartbeat on every attempt. Writes
  // are owner-only, reads are anyone's.
  void bind_os_pid(int pid, int os_pid) {
    part(pid).os_pid.store(os_pid, std::memory_order_release);
    part(pid).lease.store(1, std::memory_order_release);
  }
  int os_pid(int pid) const {
    return part(pid).os_pid.load(std::memory_order_acquire);
  }
  void heartbeat(int pid) {
    std::atomic<std::uint64_t>& l = part(pid).lease;
    l.store(l.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }
  std::uint64_t lease(int pid) const {
    return part(pid).lease.load(std::memory_order_acquire);
  }

  // Defers `deleter(ctx, handle)` until two epoch advances have passed since
  // the epoch observed here. See the safety contract above.
  void retire(int pid, void* ctx, std::uint32_t handle, Deleter deleter) {
    Local& l = local(pid);
    const std::uint64_t e = sh_->global_epoch.load(
        std::memory_order_seq_cst, Site::kEbrRetireEpochLoad);
    Bucket& b = l.buckets[e % kBuckets];
    if (!b.items.empty() && b.epoch != e) {
      // Same slot, older epoch: epochs sharing a slot differ by >= kBuckets,
      // so its contents are already past their grace period.
      WFL_CHECK(b.epoch + 2 <= e);
      drain(b);
    }
    b.epoch = e;
    b.items.push_back(Retired{ctx, handle, deleter});
    if (++l.retire_ops >= kCollectEvery) {
      l.retire_ops = 0;
      collect(pid);
    }
  }

  // Attempts an epoch advance, then frees this participant's safe buckets.
  void collect(int pid) {
    const std::uint64_t e = sh_->global_epoch.load(
        std::memory_order_seq_cst, Site::kEbrCollectEpochLoad);
    if (all_participants_at(e)) {
      std::uint64_t expected = e;  // racing collectors: one advance per value
      sh_->global_epoch.compare_exchange_strong(
          expected, e + 1, std::memory_order_seq_cst,
          Site::kEbrEpochAdvanceCas);
    }
    free_safe_buckets(pid);
  }

  std::uint64_t epoch() const { return sh_->global_epoch.peek(); }

  class Guard {
   public:
    Guard(EbrDomain& d, int pid) : d_(&d), pid_(pid) { d_->enter(pid_); }
    ~Guard() {
      if (d_ != nullptr) d_->exit(pid_);
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EbrDomain* d_;
    int pid_;
  };

 private:
  using Site = race::Site;

  static constexpr int kBuckets = 3;
  static constexpr int kCollectEvery = 16;

  // One participant's shared announcement plus its liveness lease.
  struct alignas(kCacheLine) Participant {
    race::Atomic<bool> active{false};
    race::Atomic<std::uint64_t> epoch{0};
    std::atomic<int> os_pid{0};  // 0 = never bound
    std::atomic<std::uint64_t> lease{0};  // heartbeat counter, owner-bumped
  };

  // The shared half, one pointer-free block: this header followed by
  // Participant[max_participants]. The globally-hammered epoch word gets
  // its own line so advances don't invalidate the registration counter's
  // line (and vice versa).
  struct alignas(kCacheLine) Shared {
    std::uint32_t max_participants = 0;
    alignas(kCacheLine) race::Atomic<std::uint64_t> global_epoch{0};
    alignas(kCacheLine) race::Atomic<int> next_participant{0};

    static std::size_t bytes(int n) {
      WFL_CHECK(n > 0);
      return sizeof(Shared) + sizeof(Participant) * static_cast<std::size_t>(n);
    }
    static Shared* construct(void* mem, int n) {
      Shared* sh = new (mem) Shared();
      sh->max_participants = static_cast<std::uint32_t>(n);
      auto* parts = reinterpret_cast<Participant*>(sh + 1);
      for (int i = 0; i < n; ++i) new (parts + i) Participant();
      return sh;
    }
    ~Shared() {
      for (std::uint32_t i = 0; i < max_participants; ++i) {
        part(i).~Participant();
      }
    }
    Participant& part(std::uint32_t pid) {
      return reinterpret_cast<Participant*>(this + 1)[pid];
    }
  };
  static_assert(sizeof(Shared) % alignof(Participant) == 0);

  struct Retired {
    void* ctx;
    std::uint32_t handle;
    Deleter deleter;
  };

  struct Bucket {
    std::uint64_t epoch = 0;
    std::vector<Retired> items;
  };

  // One participant's process-local half.
  struct Local {
    Bucket buckets[kBuckets];
    int retire_ops = 0;
  };

  struct AlignedDelete {
    void operator()(Shared* p) const {
      p->~Shared();
      ::operator delete(p, std::align_val_t{kCacheLine});
    }
  };

  static void drain(Bucket& b) {
    for (const Retired& r : b.items) r.deleter(r.ctx, r.handle);
    b.items.clear();
  }

  Participant& part(int pid) const {
    WFL_DASSERT(pid >= 0 && pid < static_cast<int>(sh_->max_participants));
    return sh_->part(static_cast<std::uint32_t>(pid));
  }

  Local& local(int pid) { return *local_[static_cast<std::size_t>(pid)]; }

  bool all_participants_at(std::uint64_t e) const {
    const int n = participant_count();
    for (int i = 0; i < n; ++i) {
      const Participant& p = part(i);
      if (!p.active.load(std::memory_order_seq_cst, Site::kEbrScanActive)) {
        continue;
      }
      if (p.epoch.load(std::memory_order_seq_cst, Site::kEbrScanEpoch) != e) {
        return false;
      }
    }
    return true;
  }

  void free_safe_buckets(int pid) {
    const std::uint64_t e = sh_->global_epoch.load(
        std::memory_order_seq_cst, Site::kEbrCollectEpochLoad);
    for (Bucket& b : local(pid).buckets) {
      if (!b.items.empty() && b.epoch + 2 <= e) drain(b);
    }
  }

  std::unique_ptr<Shared, AlignedDelete> own_;  // owned placement only
  Shared* sh_;  // own_, or the shared half inside the arena
  std::vector<CachePadded<Local>> local_;
};

}  // namespace wfl
