#include "bench.hpp"

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cmath>
#include <set>
#include <utility>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::map<std::string, double> SpanSet::mean_self_us() const {
  std::vector<std::vector<std::size_t>> kids(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      kids[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, std::pair<double, std::uint64_t>> acc;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    iv.clear();
    for (const std::size_t k : kids[i]) {
      const std::int64_t a = std::max(s.start_ns, spans_[k].start_ns);
      const std::int64_t b = std::min(s.end_ns, spans_[k].end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    auto& [sum, n] = acc[s.name];
    sum += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-3;
    ++n;
  }
  std::map<std::string, double> out;
  for (const auto& [name, v] : acc) {
    out[name] = v.second != 0 ? v.first / static_cast<double>(v.second) : 0.0;
  }
  return out;
}

bool SpanSet::write_chrome(const std::string& path,
                           std::size_t max_requests) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::set<std::uint64_t> written;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (written.count(s.request) == 0) {
      if (written.size() >= max_requests) continue;
      written.insert(s.request);
    }
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"request\":%llu,\"span\":%zu,\"parent\":%lld}}",
                 first ? "" : ",\n", s.name,
                 static_cast<int>(std::string(s.name).find('.')), s.name,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.tid,
                 static_cast<unsigned long long>(s.request), i,
                 static_cast<long long>(s.parent));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void TableDelta::add(const wfl::LockStats& a, const wfl::LockStats& b,
                     std::uint64_t fl_after, std::uint64_t fl_before) {
  s.attempts += a.attempts - b.attempts;
  s.wins += a.wins - b.wins;
  s.helps += a.helps - b.helps;
  s.eliminations += a.eliminations - b.eliminations;
  s.thunk_runs += a.thunk_runs - b.thunk_runs;
  s.t0_overruns += a.t0_overruns - b.t0_overruns;
  s.t1_overruns += a.t1_overruns - b.t1_overruns;
  s.log_slot_resets += a.log_slot_resets - b.log_slot_resets;
  s.fastpath_hits += a.fastpath_hits - b.fastpath_hits;
  s.fastpath_revocations += a.fastpath_revocations - b.fastpath_revocations;
  s.help_claim_skips += a.help_claim_skips - b.help_claim_skips;
  freelist_ops += fl_after - fl_before;
}

void report_table(Report& r, const TableDelta& d) {
  const double att = d.s.attempts != 0 ? static_cast<double>(d.s.attempts) : 1;
  const double wins = d.s.wins != 0 ? static_cast<double>(d.s.wins) : 1;
  r.set("lock_table.win_rate", static_cast<double>(d.s.wins) / att);
  r.set("lock_table.helps_per_attempt", static_cast<double>(d.s.helps) / att);
  r.set("lock_table.eliminations_per_attempt",
        static_cast<double>(d.s.eliminations) / att);
  r.set("lock_table.thunk_runs_per_win",
        static_cast<double>(d.s.thunk_runs) / wins);
  r.set("lock_table.fastpath_hit_share",
        static_cast<double>(d.s.fastpath_hits) / att);
  r.set("lock_table.fastpath_revocations_per_attempt",
        static_cast<double>(d.s.fastpath_revocations) / att);
  r.set("lock_table.help_claim_skips_per_attempt",
        static_cast<double>(d.s.help_claim_skips) / att);
  r.set("lock_table.overruns",
        static_cast<double>(d.s.t0_overruns + d.s.t1_overruns));
  r.set("mem.freelist_ops_per_attempt",
        static_cast<double>(d.freelist_ops) / att);
  r.set("idem.log_slot_resets_per_attempt",
        static_cast<double>(d.s.log_slot_resets) / att);
}

namespace {

bool write_all(int fd, const char* p, std::size_t len) {
  while (len > 0) {
    const ssize_t w = ::write(fd, p, len);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    len -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

bool run_in_child(const std::function<void(Buf&)>& body, int timeout_ms,
                  Buf& out, double& rss_mb, std::string& why) {
  int fds[2];
  if (::pipe(fds) != 0) {
    why = "pipe failed";
    return false;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    why = "fork failed";
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    try {
      Buf b;
      body(b);
      ::_exit(write_all(fds[1], b.bytes().data(), b.bytes().size()) ? 0 : 3);
    } catch (...) {
      ::_exit(4);  // never unwind into the parent's frames
    }
  }
  ::close(fds[1]);
  char chunk[1 << 16];
  const Clock::time_point t0 = Clock::now();
  bool timed_out = false;
  for (;;) {
    const auto left =
        static_cast<int>(timeout_ms - ns_since(t0) / 1'000'000);
    pollfd p{fds[0], POLLIN, 0};
    const int pr = left > 0 ? ::poll(&p, 1, left) : 0;
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) {
      timed_out = true;
      break;
    }
    const ssize_t got = ::read(fds[0], chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    out.bytes().append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fds[0]);
  if (timed_out) ::kill(pid, SIGKILL);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  if (timed_out) {
    why = "episode process hung past its watchdog and was killed";
    return false;
  }
  if (WIFSIGNALED(status)) {
    why = "episode process died of signal " + std::to_string(WTERMSIG(status));
    return false;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    why = "episode process exited with " + std::to_string(WEXITSTATUS(status));
    return false;
  }
  return true;
}

}  // namespace perfbench
