// Dynamic happens-before analysis over the simulator's deterministic
// interleavings (the tentpole of the analysis layer; see DESIGN.md §7).
//
// Three cooperating pieces:
//
//   1. race::Atomic<T> (below) is the one audited atomic. Each operation
//      takes its memory_order and its Site (check/ordering_contracts.hpp)
//      and reports what actually ran — kind, order, the value written or
//      observed — so the audited description cannot drift from the call.
//      Infrastructure words that run below seq_cst (EBR, pools, executor
//      plumbing) hold one directly; CheckedPlat::Atomic/Wake are built on
//      it and add only the step.
//   2. The engine looks every reported Site up in the contract table and
//      audits the order that ran against it, and feeds the same vector-
//      clock model.
//   3. Known plain-memory protocols (descriptor line group A, SlotCache
//      batches, fiber stacks, AsyncOp outcomes) carry WFL_PLAIN_READ /
//      WFL_PLAIN_WRITE region annotations checked FastTrack-style against
//      the clocks.
//
// The model: one vector clock per logical process (simulator pid; the
// setup/teardown main context is process slot 0). Synchronization edges are
// derived from the *declared* orders — a release-class store replaces the
// location's sync clock, an RMW joins into it (release-sequence
// continuation), an acquire-class load joins it into the reader, relaxed
// loads defer the join until an acquire fence, release fences arm
// subsequent relaxed stores, and seq_cst operations additionally join a
// global SC clock both ways (the simulator executes one total order, and
// C++ guarantees a single total order S over seq_cst operations, so
// treating observed SC predecessors as ordered is sound for auditing this
// execution). A conflicting plain access not ordered by those edges is a
// finding; so is an operation weaker than its site's contract. Findings
// carry a reproducer: the simulator seed plus the slot trace of the
// unordered pair.
//
// When no engine is installed every hook is one relaxed load and a
// predicted branch; RealPlat builds and benches pay nothing else.
// Engine state is owned by the installing thread. Events raised from other
// OS threads (RealPlat tests in the same binary) only *poison* the touched
// location under the engine mutex — cross-thread interleavings are TSan's
// job (ci: tsan), not this model's.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "wfl/check/ordering_contracts.hpp"

namespace wfl::race {

enum class Op : std::uint8_t {
  kLoad,
  kStore,
  kCasOk,
  kCasFail,  // value = the observed (expected-out) word
  kExchange,
  kFetchAdd,  // value = the post-RMW word (fetch_add and fetch_sub)
  kInit,
  kPeek,
};

struct Finding {
  const char* kind;  // "contract" | "unfenced-announce" | "plain-race" |
                     // "init-race" | "peek-race" | "shadow"
  Site site;
  const void* addr;
  std::string message;  // full text, includes the seed+slot reproducer
};

class RaceEngine {
 public:
  RaceEngine();
  ~RaceEngine();

  RaceEngine(const RaceEngine&) = delete;
  RaceEngine& operator=(const RaceEngine&) = delete;

  // Make this engine the process-global event sink. One at a time; the
  // destructor uninstalls. Must be called on the owning (constructing)
  // thread — the thread that runs the simulator.
  void install();
  void uninstall();

  // Seeded-mutation support for detector self-tests: the engine *model* is
  // mutated, not the program. kDropFence ignores fence events at `site`
  // (the detector behaves as if the fence were deleted); kDowngradeOrder
  // treats operations at `site` as having `order` instead of their declared
  // order. Under the simulator all fibers share one OS thread, so really
  // weakening an order is unobservable at runtime — mutating the model is
  // the faithful way to test "would we catch this edit?".
  struct Mutation {
    enum class Kind : std::uint8_t { kNone, kDropFence, kDowngradeOrder };
    Kind kind = Kind::kNone;
    Site site = Site::kUnknown;
    std::memory_order order = std::memory_order_relaxed;
  };
  void set_mutation(Mutation m);

  const std::vector<Finding>& findings() const;
  void clear_findings();

  std::uint64_t events() const;         // processed on the owner thread
  std::uint64_t foreign_events() const; // poison-only, from other threads
  std::uint64_t last_seed() const;      // seed of the most recent sim run
  // The value the last hooked operation on `addr` reported (its shadow);
  // empty when the address is untracked or was retired.
  std::optional<std::uint64_t> shadow_of(const void* addr) const;

  // Print all findings plus, per finding, the tail of the event trace
  // filtered to the conflicting address (the "shrunk" reproducer).
  void report(std::ostream& os) const;

  struct Impl;
  Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

// Process-global engine pointer. Relaxed access: installation happens-before
// use via test sequencing on the owner thread; other threads only ever
// poison under the engine's own mutex.
inline std::atomic<RaceEngine*> g_engine{nullptr};

inline RaceEngine* engine() {
  return g_engine.load(std::memory_order_relaxed);
}

// Out-of-line event sinks (race.cpp).
void atomic_event_slow(RaceEngine* e, const void* addr, Op op,
                       std::memory_order order, Site site, std::uint64_t val);
void fence_event_slow(RaceEngine* e, std::memory_order order, Site site);
void plain_event_slow(RaceEngine* e, const void* region, bool is_write,
                      Site site);
void lifetime_event_slow(RaceEngine* e, const void* addr, bool created,
                         std::uint64_t val);
void mutex_event_slow(RaceEngine* e, const void* mtx, bool acquire);
void tag_next_slow(RaceEngine* e, Site site);
void run_boundary_slow(RaceEngine* e, bool entering, std::uint64_t seed);

// Inline front doors: a relaxed load + branch when no engine is installed.
inline void atomic_event(const void* addr, Op op, std::memory_order order,
                         Site site, std::uint64_t val) {
  if (RaceEngine* e = engine()) atomic_event_slow(e, addr, op, order, site, val);
}
inline void fence_event(std::memory_order order, Site site) {
  if (RaceEngine* e = engine()) fence_event_slow(e, order, site);
}
inline void plain_read(const void* region, Site site) {
  if (RaceEngine* e = engine()) plain_event_slow(e, region, false, site);
}
inline void plain_write(const void* region, Site site) {
  if (RaceEngine* e = engine()) plain_event_slow(e, region, true, site);
}
// Cell lifetime (race::Atomic ctor/dtor, fiber stacks): seeds the shadow
// value and retires the address so heap reuse cannot alias stale state.
inline void created(const void* addr, std::uint64_t val) {
  if (RaceEngine* e = engine()) lifetime_event_slow(e, addr, true, val);
}
inline void destroyed(const void* addr) {
  if (RaceEngine* e = engine()) lifetime_event_slow(e, addr, false, 0);
}
inline void mutex_acquire(const void* mtx) {
  if (RaceEngine* e = engine()) mutex_event_slow(e, mtx, true);
}
inline void mutex_release(const void* mtx) {
  if (RaceEngine* e = engine()) mutex_event_slow(e, mtx, false);
}

// RAII companion for a std::lock_guard: declare one right after the guard
// so lock-model events bracket the critical section even on early returns.
class MutexScope {
 public:
  explicit MutexScope(const void* mtx) : mtx_(mtx) { mutex_acquire(mtx_); }
  ~MutexScope() { mutex_release(mtx_); }
  MutexScope(const MutexScope&) = delete;
  MutexScope& operator=(const MutexScope&) = delete;

 private:
  const void* mtx_;
};
// Tag the *next* atomic event of the calling logical process with `site`
// (for Plat::Atomic ops, whose call sites can't pass one — e.g. the
// thin-word publish CAS).
inline void tag_next(Site site) {
  if (RaceEngine* e = engine()) tag_next_slow(e, site);
}
// Simulator run boundary: joins all clocks (everything before the run
// happens-before everything in it, and the run happens-before teardown)
// and records the seed for reproducers. Called from Simulator::run().
inline void run_boundary(bool entering, std::uint64_t seed) {
  if (RaceEngine* e = engine()) run_boundary_slow(e, entering, seed);
}

// A value's 64-bit image, for the shadow-value check. Wider or
// non-trivially-copyable values report 0 and skip it.
template <typename T>
std::uint64_t bits(const T& v) {
  if constexpr (std::is_trivially_copyable_v<T> && sizeof(T) <= 8) {
    std::uint64_t x = 0;
    std::memcpy(&x, &v, sizeof(T));
    return x;
  } else {
    return 0;
  }
}

// The order a failed compare-exchange runs with, given its success order
// (the single-order std::atomic overloads derive it the same way).
constexpr std::memory_order failure_order(std::memory_order o) {
  return o == std::memory_order_acq_rel   ? std::memory_order_acquire
         : o == std::memory_order_release ? std::memory_order_relaxed
                                          : o;
}

// One std::atomic<T> that reports every operation it runs: its kind, the
// order it ran with, its Site, and the value it wrote (store, successful
// CAS, exchange, the post value of an RMW) or observed (load, failed CAS).
// Construction seeds the address's shadow and destruction retires it, so
// storage reuse cannot alias a previous life. Same size and layout as
// std::atomic<T>: ShmArena offsets do not move.
template <typename T>
class Atomic {
 public:
  Atomic() : Atomic(T{}) {}
  explicit Atomic(T v) : v_(v) { created(&v_, bits(v)); }
  ~Atomic() {
    static_assert(sizeof(Atomic) == sizeof(std::atomic<T>) &&
                  alignof(Atomic) == alignof(std::atomic<T>) &&
                  std::is_standard_layout_v<Atomic>);
    destroyed(&v_);
  }

  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

  T load(std::memory_order o, Site s) const {
    const T v = v_.load(o);
    atomic_event(&v_, Op::kLoad, o, s, bits(v));
    return v;
  }
  void store(T v, std::memory_order o, Site s) {
    v_.store(v, o);
    atomic_event(&v_, Op::kStore, o, s, bits(v));
  }
  bool compare_exchange_strong(T& expected, T desired, std::memory_order o,
                               Site s) {
    return cas_event(v_.compare_exchange_strong(expected, desired, o),
                     expected, desired, o, s);
  }
  bool compare_exchange_weak(T& expected, T desired, std::memory_order o,
                             Site s) {
    return cas_event(v_.compare_exchange_weak(expected, desired, o),
                     expected, desired, o, s);
  }
  T exchange(T v, std::memory_order o, Site s) {
    const T prev = v_.exchange(v, o);
    atomic_event(&v_, Op::kExchange, o, s, bits(v));
    return prev;
  }
  T fetch_add(T d, std::memory_order o, Site s) {
    const T prev = v_.fetch_add(d, o);
    atomic_event(&v_, Op::kFetchAdd, o, s, bits(static_cast<T>(prev + d)));
    return prev;
  }
  T fetch_sub(T d, std::memory_order o, Site s) {
    const T prev = v_.fetch_sub(d, o);
    atomic_event(&v_, Op::kFetchAdd, o, s, bits(static_cast<T>(prev - d)));
    return prev;
  }

  // Relaxed accesses outside any protocol, audited as such: init() is legal
  // only while the word is quiescent (kInitOnly), peek() only with no
  // unordered concurrent writer (kQuiescentRead) — teardown reads,
  // assertions on an owner's own word, post-run checks.
  void init(T v) {
    v_.store(v, std::memory_order_relaxed);
    atomic_event(&v_, Op::kInit, std::memory_order_relaxed, Site::kAtomicInit,
                 bits(v));
  }
  T peek() const {
    const T v = v_.load(std::memory_order_relaxed);
    atomic_event(&v_, Op::kPeek, std::memory_order_relaxed, Site::kAtomicPeek,
                 bits(v));
    return v;
  }

 private:
  bool cas_event(bool ok, const T& observed, const T& desired,
                 std::memory_order o, Site s) {
    atomic_event(&v_, ok ? Op::kCasOk : Op::kCasFail,
                 ok ? o : failure_order(o), s, bits(ok ? desired : observed));
    return ok;
  }

  std::atomic<T> v_;
};

// A standalone fence, reported with its Site.
inline void fence(std::memory_order o, Site s) {
  std::atomic_thread_fence(o);
  fence_event(o, s);
}

}  // namespace wfl::race

// Annotation macros for plain-memory regions and Plat::Atomic call sites.
// `site` is a Site enumerator name.
#define WFL_PLAIN_READ(region, site) \
  ::wfl::race::plain_read((region), ::wfl::race::Site::site)
#define WFL_PLAIN_WRITE(region, site) \
  ::wfl::race::plain_write((region), ::wfl::race::Site::site)
#define WFL_CHK_TAG(site) ::wfl::race::tag_next(::wfl::race::Site::site)
