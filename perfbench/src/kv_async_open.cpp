// kv_async_open: the serving path, end to end. One generator thread paces
// Poisson arrivals (open loop: the schedule never waits for the service)
// of Zipf(0.99) keys, 90% reads / 10% updates, as single-bucket prepared
// ops on LockedHashMap, and hands each to AsyncExecutor::async_submit on a
// pool of 3 workers (DelayMode::kOff). A request's latency runs from its
// scheduled arrival to the completion stamp its thunk writes.
//
// The run is cut into short episodes, each on a freshly built space, map
// and executor, and each drained under a deadline. An episode's first
// arrivals warm the fresh executor up (fibers, caches, sleeping workers):
// they run and are checked like the rest, but only the arrivals after
// them are measured. An op not complete at
// the deadline is a failed op: it counts in failed_share and, censored at
// the deadline, in the latency percentiles (so it misses every latency
// limit). An executor with ops still in flight at the deadline is stalled.
// It must be abandoned, never destroyed: its destructor would wait forever
// for those ops. Each episode runs in a process of its own (run_in_child;
// the only process generating load while it runs, with 1 + 3 threads)
// that leaves with _exit, so a stalled executor, its sleeping workers and
// its memory go with it and the next episode starts clean.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "wfl/apps/hashmap.hpp"
#include "wfl/core/async_executor.hpp"
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
using Map = wfl::LockedHashMap<Plat>;
using Exec = wfl::AsyncExecutor<Plat>;
using Op = wfl::PreparedOp<Plat>;

constexpr int kWorkers = 3;
constexpr std::uint32_t kBuckets = 512;
constexpr std::uint32_t kKeys = 1024;
constexpr double kZipf = 0.99;
constexpr int kReadPct = 90;
constexpr double kRate = 100'000.0;
constexpr double kEpisodeS = 0.01;            // measured arrivals per episode
constexpr std::int64_t kWarmupNs = 2'000'000;  // unmeasured lead-in arrivals
constexpr std::int64_t kDrainNs = 40'000'000;  // deadline after last arrival
constexpr int kEpisodeTimeoutMs = 30'000;      // child process watchdog
constexpr double kSloP99Us = 200.0;
constexpr double kLadder[] = {50'000.0, 100'000.0, 150'000.0, 200'000.0};
// Update values start above every initial value (a key's own number), so
// a final value names the update that wrote it.
constexpr std::uint32_t kUpdateBase = 1u << 24;

// One episode's pre-generated requests; the first `warm` are the lead-in.
struct Arrivals {
  std::vector<std::int64_t> sched_ns;  // offset from episode start
  std::vector<std::uint32_t> key;
  std::vector<std::uint8_t> is_read;
  std::size_t warm = 0;
};

std::vector<Arrivals> make_arrivals(std::uint64_t seed, double rate,
                                    int episodes) {
  std::vector<double> cdf(kKeys);
  double acc = 0.0;
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), kZipf);
    cdf[i] = acc;
  }
  for (double& c : cdf) c /= acc;
  wfl::Xoshiro256 rng(seed);
  std::vector<Arrivals> out(static_cast<std::size_t>(episodes));
  const double gap_ns = 1e9 / rate;
  const double horizon_ns = static_cast<double>(kWarmupNs) + kEpisodeS * 1e9;
  for (Arrivals& a : out) {
    double t = -gap_ns * std::log(1.0 - rng.next_double());
    while (t < horizon_ns) {
      if (t < static_cast<double>(kWarmupNs)) ++a.warm;
      const auto it = std::lower_bound(cdf.begin(), cdf.end(),
                                       rng.next_double());
      a.key.push_back(static_cast<std::uint32_t>(it - cdf.begin()));
      a.is_read.push_back(rng.next_below(100) < kReadPct ? 1 : 0);
      a.sched_ns.push_back(static_cast<std::int64_t>(t));
      t += -gap_ns * std::log(1.0 - rng.next_double());
    }
  }
  return out;
}

// Written by the request's thunk: first entry and first completion, in ns
// since episode start (0 = never), and how often the thunk was entered.
struct Slot {
  std::atomic<std::int64_t> entry{0};
  std::atomic<std::int64_t> done{0};
  std::atomic<std::uint32_t> entries{0};
};

// The bench's wrapper around the map's prepared op. Replays by helpers
// find the stamps already set and leave them alone.
struct KvThunk {
  const Op::Armed* armed;
  Slot* slot;
  Clock::time_point start;
  bool traced;

  void operator()(wfl::IdemCtx<Plat>& m) const {
    if (traced) {
      std::int64_t zero = 0;
      slot->entry.compare_exchange_strong(
          zero, std::max<std::int64_t>(1, ns_since(start)),
          std::memory_order_relaxed);
      slot->entries.fetch_add(1, std::memory_order_relaxed);
    }
    (*armed)(m);
    std::int64_t zero = 0;
    slot->done.compare_exchange_strong(
        zero, std::max<std::int64_t>(1, ns_since(start)),
        std::memory_order_relaxed);
  }
};

wfl::LockConfig kv_config() {
  wfl::LockConfig cfg;
  cfg.kappa = 8;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = Map::thunk_step_budget();
  cfg.delay_mode = wfl::DelayMode::kOff;
  return cfg;
}

// What an episode process sends back: fixed-size counters, then per
// measured request its latency, its generator lateness and, traced, the
// five boundary stamps of its spans. The first failed output check travels
// as text.
struct EpisodeHead {
  std::uint64_t n = 0;  // measured requests
  std::uint64_t warm = 0;
  std::uint64_t stamped = 0;  // measured requests that completed
  // All requests that completed, lead-in included: the base of the per-op
  // counter ratios, since library counters cannot tell the two apart.
  std::uint64_t stamped_all = 0;
  std::uint64_t stalled = 0;
  std::uint64_t in_flight_at_deadline = 0;
  std::uint64_t in_flight_max = 0;
  std::uint64_t parks = 0, wakes = 0, signals = 0, steals = 0;
  std::uint64_t wake_posts = 0, wake_skips = 0;
  std::uint64_t fibers_created = 0, fibers_reused = 0;
  std::uint64_t thunk_entries = 0;
  wfl::LockStats stats;
  std::uint64_t freelist_ops = 0;
  std::uint32_t desc_max = 0, snap_max = 0;
  double setup_s = 0.0;
  double dispatch_s = 0.0;
  std::uint64_t check_failures = 0;
  char first_failure[200] = {};
};

struct Stamps {
  std::int64_t sched, call, ret, entry, done;
};

struct EpisodeResult {
  EpisodeHead head;
  std::vector<double> lat_us;
  std::vector<double> late_us;
  std::vector<Stamps> stamps;  // traced only, every request
};

void fail(EpisodeHead& h, const std::string& what) {
  if (h.check_failures++ == 0) {
    std::snprintf(h.first_failure, sizeof h.first_failure, "%s", what.c_str());
  }
}

// Runs one episode in the calling (child) process.
EpisodeResult run_episode(const Arrivals& a, bool traced) {
  EpisodeResult res;
  EpisodeHead& h = res.head;
  const std::size_t n = a.sched_ns.size();
  h.n = n - a.warm;
  h.warm = a.warm;

  // Nothing the executor can reach is ever destroyed: the process leaves
  // with _exit (see the file comment).
  const Clock::time_point s0 = Clock::now();
  Table& table = *new Table(kv_config(), kWorkers + 2,
                            static_cast<int>(kBuckets));
  Map& map = *new Map(table, kBuckets, kKeys + 64);
  auto& session = *new wfl::Session<Plat>(table);
  bool populated = true;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    populated = map.put(session, k, k) != wfl::kMapFull && populated;
  }
  auto& client = *new wfl::AsyncClient<Plat>(session);
  Exec& exec = *new Exec(table, Exec::Options{.workers = kWorkers});
  h.setup_s = seconds_since(s0);
  if (!populated) fail(h, "kv_async_open: prepopulation hit a full chain");

  Slot* slots = new Slot[n];
  auto& gets = *new std::vector<Op>();
  gets.reserve(kKeys);
  for (std::uint32_t k = 0; k < kKeys; ++k) gets.push_back(map.prepared_get(k));
  auto& updates = *new std::vector<Op>();
  std::vector<std::uint32_t> upd_of(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (a.is_read[i] != 0) continue;
    upd_of[i] = static_cast<std::uint32_t>(updates.size());
    updates.push_back(map.prepared_update(
        a.key[i], kUpdateBase + static_cast<std::uint32_t>(i)));
  }
  const wfl::LockStats st0 = table.stats();
  const std::uint64_t fl0 = table.freelist_ops();
  MemPeak mem;
  res.late_us.reserve(n);
  if (traced) res.stamps.resize(n);

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t now = ns_since(start);
    while (now < a.sched_ns[i]) {
      // Sleep only when far ahead: the generator shares the machine with
      // the workers it measures, so it must not spin them off their cores.
      const std::int64_t left = a.sched_ns[i] - now;
      if (left > 200'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
      } else {
        std::this_thread::yield();
      }
      now = ns_since(start);
    }
    if (i >= a.warm) {
      res.late_us.push_back(static_cast<double>(now - a.sched_ns[i]) * 1e-3);
    }
    const Op& op = a.is_read[i] != 0 ? gets[a.key[i]] : updates[upd_of[i]];
    if (traced) res.stamps[i].call = ns_since(start);
    // The ticket is dropped at once: the op completes and frees itself.
    exec.async_submit(client, op.locks(),
                      KvThunk{&op.armed(), &slots[i], start, traced},
                      wfl::Policy::retry());
    if (traced) res.stamps[i].ret = ns_since(start);
    h.in_flight_max = std::max(h.in_flight_max, exec.in_flight());
    if ((i & 255) == 0) mem.sample(table);
  }
  const std::int64_t dispatched = ns_since(start);
  h.dispatch_s = static_cast<double>(dispatched - kWarmupNs) * 1e-9;
  const std::int64_t window = n != 0 ? a.sched_ns[n - 1] : 0;
  const std::int64_t deadline = std::max(dispatched, window) + kDrainNs;
  while (exec.completed() < n && ns_since(start) < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const std::int64_t end_ns = ns_since(start);
  h.stalled = exec.completed() < n ? 1 : 0;
  h.in_flight_at_deadline = exec.in_flight();
  mem.sample(table);
  h.desc_max = mem.desc;
  h.snap_max = mem.snap;

  // Per-request latency; an op with no completion stamp failed.
  res.lat_us.reserve(h.n);
  std::uint64_t stamped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t done = slots[i].done.load(std::memory_order_relaxed);
    stamped += done != 0 ? 1 : 0;
    if (done != 0 && done < a.sched_ns[i]) {
      fail(h, "kv_async_open: op stamped before its arrival");
    }
    if (i < a.warm) continue;
    h.stamped += done != 0 ? 1 : 0;
    res.lat_us.push_back(
        static_cast<double>((done != 0 ? done : end_ns) - a.sched_ns[i]) *
        1e-3);
  }
  h.stamped_all = stamped;
  if (h.stalled == 0 && stamped != n) {
    fail(h, "kv_async_open: " + std::to_string(n - stamped) +
                " completed ops left no completion stamp");
  }

  // Map contents: a key's value is the one written by its update with the
  // latest completion stamp (updates of one key serialize on its bucket
  // lock, and each stamp is taken inside the critical section), or its
  // initial value if no update completed. Keys whose two latest updates
  // share a stamp are skipped.
  std::vector<std::int64_t> last_stamp(kKeys, 0);
  std::vector<std::uint32_t> want(kKeys);
  std::vector<std::uint8_t> tied(kKeys, 0);
  for (std::uint32_t k = 0; k < kKeys; ++k) want[k] = k;
  for (std::size_t i = 0; i < n; ++i) {
    if (a.is_read[i] != 0) continue;
    const std::int64_t done = slots[i].done.load(std::memory_order_relaxed);
    const std::uint32_t k = a.key[i];
    if (done == 0 || done < last_stamp[k]) continue;
    tied[k] = done == last_stamp[k] ? 1 : 0;
    last_stamp[k] = done;
    want[k] = kUpdateBase + static_cast<std::uint32_t>(i);
  }
  std::uint64_t wrong = 0;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    std::uint32_t got = 0;
    if (!map.get(k, &got) || (tied[k] == 0 && got != want[k])) ++wrong;
  }
  // In a stalled episode a late op could still land while the map is
  // read; only a map read between two equal stamp counts is judged.
  std::uint64_t restamped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    restamped += slots[i].done.load(std::memory_order_relaxed) != 0 ? 1 : 0;
  }
  if (wrong != 0 && restamped == stamped) {
    fail(h, "kv_async_open: " + std::to_string(wrong) +
                " keys hold a value other than their last update's");
  }

  if (traced) {
    for (std::size_t i = 0; i < n; ++i) {
      res.stamps[i].sched = a.sched_ns[i];
      res.stamps[i].entry = slots[i].entry.load(std::memory_order_relaxed);
      res.stamps[i].done = slots[i].done.load(std::memory_order_relaxed);
      h.thunk_entries += slots[i].entries.load(std::memory_order_relaxed);
    }
  }

  h.parks = exec.parks();
  h.wakes = exec.wakes();
  h.signals = exec.signals();
  h.steals = exec.steals();
  h.wake_posts = exec.wake_posts();
  h.wake_skips = exec.wake_skips();
  h.fibers_created = exec.fibers_created();
  h.fibers_reused = exec.fibers_reused();
  TableDelta d;
  d.add(table.stats(), st0, table.freelist_ops(), fl0);
  h.stats = d.s;
  h.freelist_ops = d.freelist_ops;
  return res;
}

// Totals over the episodes of one phase or ladder rung.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t completed_all = 0;  // lead-in included
  std::uint64_t failed = 0;
  std::uint64_t stalls = 0;  // ops in flight at a deadline
  std::uint64_t stalled_episodes = 0;
  std::uint64_t episodes = 0;
  double offered_s = 0.0;   // arrival windows
  double dispatch_s = 0.0;  // time the generator took to dispatch them
  std::vector<double> lat_us;
  std::vector<double> late_us;
  std::vector<double> submit_ns;
  std::vector<double> wait_us;
  std::vector<double> thunk_ns;
  std::uint64_t thunk_entries = 0;
  std::uint64_t in_flight_max = 0;
  std::uint64_t parks = 0, wakes = 0, signals = 0, steals = 0;
  std::uint64_t wake_posts = 0, wake_skips = 0;
  std::uint64_t fibers_created = 0, fibers_reused = 0;
  TableDelta table;
  MemPeak mem;
};

void fold(const EpisodeResult& e, double rss_mb, Tally& t, Report& r,
          std::uint64_t request_base) {
  const EpisodeHead& h = e.head;
  r.setup_s.push_back(h.setup_s);
  r.rss_mb.push_back(rss_mb);
  if (h.check_failures != 0) r.fail_check(h.first_failure);
  t.attempted += h.n;
  t.completed += h.stamped;
  t.completed_all += h.stamped_all;
  t.failed += h.n - h.stamped;
  t.stalls += h.in_flight_at_deadline;
  t.stalled_episodes += h.stalled;
  t.dispatch_s += h.dispatch_s;
  t.offered_s += kEpisodeS;
  t.lat_us.insert(t.lat_us.end(), e.lat_us.begin(), e.lat_us.end());
  t.late_us.insert(t.late_us.end(), e.late_us.begin(), e.late_us.end());
  t.in_flight_max = std::max(t.in_flight_max, h.in_flight_max);
  t.parks += h.parks;
  t.wakes += h.wakes;
  t.signals += h.signals;
  t.steals += h.steals;
  t.wake_posts += h.wake_posts;
  t.wake_skips += h.wake_skips;
  t.fibers_created += h.fibers_created;
  t.fibers_reused += h.fibers_reused;
  t.thunk_entries += h.thunk_entries;
  const wfl::LockStats zero;
  t.table.add(h.stats, zero, h.freelist_ops, 0);
  t.mem.merge(MemPeak{h.desc_max, h.snap_max});

  for (std::size_t i = h.warm; i < e.stamps.size(); ++i) {
    const Stamps& s = e.stamps[i];
    if (s.done == 0) continue;  // failed ops have no span tree
    // Episodes run back to back; offset each onto one run-wide timeline.
    const std::int64_t off =
        static_cast<std::int64_t>(t.episodes) *
        static_cast<std::int64_t>(kWarmupNs + (kEpisodeS * 1e9) + kDrainNs);
    const std::uint64_t req = request_base + i;
    const std::int64_t root =
        r.spans.add("gen.pace", req, off + s.sched, off + s.done, -1, 0);
    r.spans.add("async_executor.async_submit", req, off + s.call,
                off + s.ret, root, 0);
    r.spans.add("async_executor.wait", req, off + s.ret, off + s.entry, root,
                1);
    r.spans.add("apps.thunk", req, off + s.entry, off + s.done, root, 1);
    t.submit_ns.push_back(static_cast<double>(s.ret - s.call));
    t.wait_us.push_back(
        static_cast<double>(std::max<std::int64_t>(0, s.entry - s.ret)) *
        1e-3);
    t.thunk_ns.push_back(static_cast<double>(s.done - s.entry));
  }
  ++t.episodes;
}

Tally run_rate(std::uint64_t seed, double rate, double seconds, bool traced,
               Report& r) {
  const int episodes = std::max(1, static_cast<int>(seconds / kEpisodeS));
  const std::vector<Arrivals> arrivals = make_arrivals(seed, rate, episodes);
  Tally t;
  std::size_t total = 0;
  for (const Arrivals& a : arrivals) total += a.sched_ns.size() - a.warm;
  t.lat_us.reserve(total);
  t.late_us.reserve(total);
  std::uint64_t request_base = 0;
  for (const Arrivals& a : arrivals) {
    Buf buf;
    double rss = 0.0;
    std::string why;
    EpisodeResult e;
    const bool ok = run_in_child(
        [&](Buf& b) {
          const EpisodeResult mine = run_episode(a, traced);
          b.put(mine.head);
          b.put_vec(mine.lat_us);
          b.put_vec(mine.late_us);
          b.put_vec(mine.stamps);
        },
        kEpisodeTimeoutMs, buf, rss, why);
    if (ok && buf.get(e.head) && buf.get_vec(e.lat_us) &&
        buf.get_vec(e.late_us) && buf.get_vec(e.stamps) &&
        e.lat_us.size() == a.sched_ns.size() - a.warm) {
      fold(e, rss, t, r, request_base);
    } else {
      // The episode's ops never reported completion: all of them failed.
      r.fail_check("kv_async_open: " + (ok ? "malformed episode result" : why));
      t.attempted += a.sched_ns.size() - a.warm;
      t.failed += a.sched_ns.size() - a.warm;
      t.offered_s += kEpisodeS;
      ++t.episodes;
    }
    request_base += a.sched_ns.size();
  }
  return t;
}

double per(std::uint64_t x, std::uint64_t base) {
  return static_cast<double>(x) /
         static_cast<double>(std::max<std::uint64_t>(base, 1));
}

}  // namespace

Report kv_async_open_phase(const Phase& phase) {
  Report r;
  Tally t = run_rate(phase.seed, kRate, phase.seconds, phase.traced, r);
  r.attempted += t.attempted;
  r.failed += t.failed;
  r.set("ops_per_s", static_cast<double>(t.completed) / t.offered_s);
  std::sort(t.lat_us.begin(), t.lat_us.end());
  r.set("lat_p50_us", quantile_sorted(t.lat_us, 0.50));
  r.set("lat_p99_us", quantile_sorted(t.lat_us, 0.99));
  r.set("lat_p999_us", quantile_sorted(t.lat_us, 0.999));
  r.set("win_rate_min", per(t.table.s.wins, t.table.s.attempts));
  r.set("failed_share", per(t.failed, t.attempted));

  std::sort(t.late_us.begin(), t.late_us.end());
  r.set("gen.late_p50_us", quantile_sorted(t.late_us, 0.50));
  r.set("gen.late_p99_us", quantile_sorted(t.late_us, 0.99));
  r.set("gen.achieved_rate",
        t.dispatch_s > 0 ? static_cast<double>(t.attempted) / t.dispatch_s
                         : 0.0);

  r.set("async_executor.parks_per_op", per(t.parks, t.completed_all));
  r.set("async_executor.wakes_per_op", per(t.wakes, t.completed_all));
  r.set("async_executor.signals_per_op", per(t.signals, t.completed_all));
  r.set("async_executor.steals_per_op", per(t.steals, t.completed_all));
  r.set("async_executor.wake_skip_ratio",
        per(t.wake_skips, t.wake_skips + t.wake_posts));
  r.set("async_executor.fiber_reuse_ratio",
        per(t.fibers_reused, t.fibers_reused + t.fibers_created));
  r.set("async_executor.in_flight_max", static_cast<double>(t.in_flight_max));
  r.set("async_executor.stalls", static_cast<double>(t.stalls));
  r.set("executor.attempts_per_op", per(t.table.s.attempts, t.completed_all));
  r.set("mem.desc_in_use_max", t.mem.desc);
  r.set("mem.snap_in_use_max", t.mem.snap);
  report_table(r, t.table);
  r.note("kv_async_open: " + std::to_string(t.stalled_episodes) + " of " +
         std::to_string(t.episodes) + " episodes stalled; " +
         std::to_string(t.failed) + " of " + std::to_string(t.attempted) +
         " ops failed");

  if (phase.traced) {
    for (auto* v : {&t.submit_ns, &t.wait_us, &t.thunk_ns}) {
      std::sort(v->begin(), v->end());
    }
    r.set("async_executor.submit_ns_p50", quantile_sorted(t.submit_ns, 0.50));
    r.set("async_executor.submit_ns_p99", quantile_sorted(t.submit_ns, 0.99));
    r.set("async_executor.wait_us_p50", quantile_sorted(t.wait_us, 0.50));
    r.set("async_executor.wait_us_p99", quantile_sorted(t.wait_us, 0.99));
    r.set("apps.thunk_ns_p50", quantile_sorted(t.thunk_ns, 0.50));
    r.set("apps.thunk_ns_p99", quantile_sorted(t.thunk_ns, 0.99));
    r.set("apps.thunk_entries_per_op", per(t.thunk_entries, t.completed_all));
  }
  return r;
}

double kv_async_open_slo_rate(const Phase& phase, Report& r) {
  double best = 0.0;
  const double rung_s = phase.seconds / static_cast<double>(std::size(kLadder));
  std::string line = "kv_async_open ladder:";
  for (const double rate : kLadder) {
    const Tally t = run_rate(phase.seed + static_cast<std::uint64_t>(rate),
                             rate, rung_s, false, r);
    const double p99 = quantile(t.lat_us, 0.99);
    const double achieved =
        t.dispatch_s > 0 ? static_cast<double>(t.attempted) / t.dispatch_s
                         : 0.0;
    const bool ok =
        p99 <= kSloP99Us && t.failed == 0 && achieved >= 0.95 * rate;
    if (ok) best = std::max(best, rate);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  " [%.0f/s p99=%.1fus failed=%llu achieved=%.0f/s %s]", rate,
                  p99, static_cast<unsigned long long>(t.failed), achieved,
                  ok ? "meets" : "misses");
    line += buf;
  }
  r.note(line);
  return best;
}

}  // namespace perfbench
