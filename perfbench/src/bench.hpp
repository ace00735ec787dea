// Shared plumbing of the wflock end-to-end benchmark: clocks, latency
// samples, the metric report, in-memory spans and their Chrome trace-event
// export. Everything here sits OUTSIDE the library: layers are measured by
// timing calls into their public functions and reading public counters.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "wfl/core/config.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return static_cast<double>(ns_since(t0)) * 1e-9;
}

// Linear-interpolated quantile of an unsorted sample (sorts a copy).
double quantile(std::vector<double> v, double q);
double quantile_sorted(const std::vector<double>& v, double q);
double median(const std::vector<double>& v);

// Keeps a uniform systematic sample of an unbounded stream in bounded
// memory: every `stride`-th value is kept, and when the buffer fills the
// stride doubles and every other kept value is dropped.
template <typename T>
class Decimator {
 public:
  explicit Decimator(std::size_t cap = 1 << 19) : cap_(cap) {
    kept_.reserve(cap);
  }
  void push(const T& x) {
    if (seen_++ % stride_ != 0) return;
    if (kept_.size() == cap_) {
      std::size_t j = 0;
      for (std::size_t i = 0; i < kept_.size(); i += 2) kept_[j++] = kept_[i];
      kept_.resize(j);
      stride_ *= 2;
      if ((seen_ - 1) % stride_ != 0) return;
    }
    kept_.push_back(x);
  }
  const std::vector<T>& kept() const { return kept_; }

 private:
  std::size_t cap_;
  std::uint64_t stride_ = 1;
  std::uint64_t seen_ = 0;
  std::vector<T> kept_;
};

// The settings of one measured phase. A run is one or more phases: the
// untraced phase gives the end-to-end numbers, the traced phase the
// per-layer ones, and their difference the tracing overhead.
struct Phase {
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool traced = false;
};

// One closed span: [start, end] in ns on the run's clock. `parent` is the
// index of the parent span in the same SpanSet, or -1 for a root.
struct Span {
  const char* name;
  std::uint64_t request;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;
  int tid;
};

// The spans of one traced phase plus per-name self-time accounting.
class SpanSet {
 public:
  std::int64_t add(const char* name, std::uint64_t request,
                   std::int64_t start, std::int64_t end, std::int64_t parent,
                   int tid) {
    spans_.push_back(Span{name, request, start, std::max(start, end), parent,
                          tid});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Mean self time per span of each name, in us: the span's duration
  // minus the part of it its children cover.
  std::map<std::string, double> mean_self_us() const;

  // Chrome trace-event JSON ("X" complete events, ts/dur in us); at most
  // `max_requests` distinct request ids are written.
  bool write_chrome(const std::string& path, std::size_t max_requests) const;

 private:
  std::vector<Span> spans_;
};

// What one phase (and, merged, one run) hands back to main: metric values
// by catalogue name (a name left out is one the workload does not
// exercise), set-up time samples, output-check verdict and op counts.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<double> setup_s;
  std::vector<double> rss_mb;  // peak RSS of each episode's process
  std::vector<std::string> notes;  // human-readable lines, printed first
  SpanSet spans;                   // traced phases only

  void set(const std::string& name, double v) { metrics[name] = v; }
  double get(const std::string& name) const {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second;
  }
  void fail_check(const std::string& what) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
  void note(const std::string& line) { notes.push_back(line); }
};

// Lock-table counters over one measured phase (LockTable::stats() and
// freelist_ops() differences).
struct TableDelta {
  wfl::LockStats s;
  std::uint64_t freelist_ops = 0;
  void add(const wfl::LockStats& after, const wfl::LockStats& before,
           std::uint64_t fl_after, std::uint64_t fl_before);
};

// Fills the lock_table / mem / idem rows from `d`.
void report_table(Report& r, const TableDelta& d);

// Peak descriptor / snapshot slots held outside the shared pools (in use
// by attempts, awaiting reclamation or parked in per-process caches),
// sampled from the public per-shard gauges.
struct MemPeak {
  std::uint32_t desc = 0;
  std::uint32_t snap = 0;

  template <typename Table>
  void sample(const Table& t) {
    std::uint32_t d = 0;
    std::uint32_t s = 0;
    for (std::uint32_t i = 0; i < t.num_shards(); ++i) {
      // free before capacity: capacity only grows, so this never underflows
      const std::uint32_t df = t.shard_desc_free(i);
      const std::uint32_t sf = t.shard_snap_free(i);
      d += t.shard_desc_capacity(i) - df;
      s += t.shard_snap_capacity(i) - sf;
    }
    desc = std::max(desc, d);
    snap = std::max(snap, s);
  }
  void merge(const MemPeak& o) {
    desc = std::max(desc, o.desc);
    snap = std::max(snap, o.snap);
  }
};

// Bytes an episode process sends back to the parent: trivially copyable
// values and vectors of them, read back in the order they were put.
class Buf {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  template <typename T>
  void put_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(v.size());
    if (!v.empty()) {
      bytes_.append(reinterpret_cast<const char*>(v.data()),
                    v.size() * sizeof(T));
    }
  }
  template <typename T>
  bool get(T& v) {
    if (bytes_.size() - pos_ < sizeof v) return false;
    std::memcpy(&v, bytes_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return true;
  }
  template <typename T>
  bool get_vec(std::vector<T>& v) {
    std::uint64_t n = 0;
    if (!get(n) || n > (bytes_.size() - pos_) / sizeof(T)) return false;
    v.resize(n);
    if (n != 0) std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return true;
  }
  std::string& bytes() { return bytes_; }

 private:
  std::string bytes_;
  std::size_t pos_ = 0;
};

// Runs `body` in a forked child process and hands back what it put into
// its Buf, plus the child's peak RSS. The child leaves with _exit, so
// nothing it built is ever destroyed (a stalled executor's destructor
// would never return), and a child still running after `timeout_ms` is
// killed. Returns false with `why` when the child hung, died or failed.
bool run_in_child(const std::function<void(Buf&)>& body, int timeout_ms,
                  Buf& out, double& rss_mb, std::string& why);


}  // namespace perfbench
