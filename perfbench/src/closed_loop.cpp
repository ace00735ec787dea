#include "closed_loop.hpp"

#include <algorithm>
#include <limits>

namespace perfbench {
namespace {

constexpr double kEpisodeS = 1.0;
constexpr int kEpisodeTimeoutMs = 60'000;

void put_episode(const ClosedEpisode& e, Buf& b) {
  b.put(e.setup_s);
  b.put(e.seconds);
  b.put_vec(e.counts);
  for (std::size_t c = 0; c < e.counts.size(); ++c) {
    b.put_vec(e.lat_us[c]);
    b.put_vec(e.trace[c]);
  }
  b.put(e.table);
  b.put_vec(std::vector<char>(e.failure.begin(), e.failure.end()));
}

bool get_episode(Buf& b, ClosedEpisode& e) {
  if (!b.get(e.setup_s) || !b.get(e.seconds) || !b.get_vec(e.counts)) {
    return false;
  }
  e.lat_us.resize(e.counts.size());
  e.trace.resize(e.counts.size());
  for (std::size_t c = 0; c < e.counts.size(); ++c) {
    if (!b.get_vec(e.lat_us[c]) || !b.get_vec(e.trace[c])) return false;
  }
  std::vector<char> failure;
  if (!b.get(e.table) || !b.get_vec(failure)) return false;
  e.failure.assign(failure.begin(), failure.end());
  return true;
}

}  // namespace

Report closed_loop_phase(
    const Phase& phase,
    const std::function<void(int index, double seconds, ClosedEpisode& ep)>& episode) {
  Report r;
  const int episodes =
      std::max(1, static_cast<int>(phase.seconds / kEpisodeS + 0.5));
  const double seconds = phase.seconds / episodes;

  // Per-episode end-to-end figures; their medians are reported.
  std::vector<double> ops_per_s, p50, p99, p999;
  // Pooled over the phase, per client and overall.
  std::vector<ClientCounts> per_client;
  ClientCounts sum;
  TableDelta table;
  std::vector<double> submit_ns, thunk_ns;

  for (int i = 0; i < episodes; ++i) {
    Buf buf;
    double rss = 0.0;
    std::string why;
    ClosedEpisode e;
    const bool ok = run_in_child(
        [&](Buf& b) {
          ClosedEpisode mine;
          episode(i, seconds, mine);
          put_episode(mine, b);
        },
        kEpisodeTimeoutMs, buf, rss, why);
    if (!ok || !get_episode(buf, e)) {
      r.fail_check(ok ? "malformed episode result" : why);
      continue;
    }
    if (!e.failure.empty()) r.fail_check(e.failure);
    r.setup_s.push_back(e.setup_s);
    r.rss_mb.push_back(rss);

    std::vector<double> lat;
    std::uint64_t ops = 0;
    per_client.resize(std::max(per_client.size(), e.counts.size()));
    for (std::size_t c = 0; c < e.counts.size(); ++c) {
      const ClientCounts& n = e.counts[c];
      for (ClientCounts* dst : {&per_client[c], &sum}) {
        dst->ops += n.ops;
        dst->attempts += n.attempts;
        dst->wins += n.wins;
        dst->steps += n.steps;
        dst->pre += n.pre;
        dst->post += n.post;
        dst->failed += n.failed;
        dst->thunk_entries += n.thunk_entries;
        dst->mem.merge(n.mem);
      }
      ops += n.ops;
      lat.insert(lat.end(), e.lat_us[c].begin(), e.lat_us[c].end());
      for (const OpTrace& o : e.trace[c]) {
        // Request id: client, then episode, then the client's call number.
        const std::uint64_t req =
            (static_cast<std::uint64_t>(c) << 48) |
            (static_cast<std::uint64_t>(i) << 32) | o.op;
        const std::int64_t root = r.spans.add(
            "executor.submit", req, o.t0, o.t1, -1, static_cast<int>(c));
        submit_ns.push_back(static_cast<double>(o.t1 - o.t0));
        if (o.thunk_in > 0 && o.thunk_out >= o.thunk_in) {
          r.spans.add("apps.thunk", req, o.thunk_in, o.thunk_out, root,
                      static_cast<int>(c));
          thunk_ns.push_back(static_cast<double>(o.thunk_out - o.thunk_in));
        }
      }
    }
    table.add(e.table.s, wfl::LockStats{}, e.table.freelist_ops, 0);
    std::sort(lat.begin(), lat.end());
    ops_per_s.push_back(static_cast<double>(ops) / e.seconds);
    p50.push_back(quantile_sorted(lat, 0.50));
    p99.push_back(quantile_sorted(lat, 0.99));
    p999.push_back(quantile_sorted(lat, 0.999));
  }
  if (ops_per_s.empty()) return r;

  r.attempted += sum.ops;
  r.failed += sum.failed;
  r.set("ops_per_s", median(ops_per_s));
  r.set("lat_p50_us", median(p50));
  r.set("lat_p99_us", median(p99));
  r.set("lat_p999_us", median(p999));
  double win_min = std::numeric_limits<double>::max();
  for (const ClientCounts& n : per_client) {
    if (n.attempts == 0) continue;
    win_min = std::min(win_min, static_cast<double>(n.wins) /
                                    static_cast<double>(n.attempts));
  }
  r.set("win_rate_min", win_min);

  const double ops = std::max<double>(1.0, static_cast<double>(sum.ops));
  const double att = std::max<double>(1.0, static_cast<double>(sum.attempts));
  r.set("failed_share", static_cast<double>(sum.failed) / ops);
  r.set("executor.attempts_per_op", static_cast<double>(sum.attempts) / ops);
  r.set("executor.steps_per_attempt", static_cast<double>(sum.steps) / att);
  r.set("executor.pre_reveal_work", static_cast<double>(sum.pre) / ops);
  r.set("executor.post_reveal_work", static_cast<double>(sum.post) / ops);
  r.set("mem.desc_in_use_max", sum.mem.desc);
  r.set("mem.snap_in_use_max", sum.mem.snap);
  report_table(r, table);
  if (!phase.traced) return r;

  std::sort(submit_ns.begin(), submit_ns.end());
  r.set("executor.submit_ns_p50", quantile_sorted(submit_ns, 0.50));
  r.set("executor.submit_ns_p99", quantile_sorted(submit_ns, 0.99));
  if (!thunk_ns.empty()) {
    std::sort(thunk_ns.begin(), thunk_ns.end());
    r.set("apps.thunk_ns_p50", quantile_sorted(thunk_ns, 0.50));
    r.set("apps.thunk_ns_p99", quantile_sorted(thunk_ns, 0.99));
    r.set("apps.thunk_entries_per_op",
          static_cast<double>(sum.thunk_entries) / ops);
  }
  return r;
}

}  // namespace perfbench
