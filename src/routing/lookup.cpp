#include "routing/lookup.hpp"

#include <algorithm>
#include <map>

#include "avatar/embedding.hpp"
#include "avatar/range.hpp"
#include "graph/analysis.hpp"
#include "topology/cbt.hpp"
#include "util/bitops.hpp"
#include "util/check.hpp"

namespace chs::routing {
namespace {
NodeId host_for(GuestId g, std::span<const NodeId> sorted_ids) {
  if (sorted_ids.empty()) return g;
  return avatar::host_of(g, sorted_ids);
}
}  // namespace

std::vector<GuestId> guest_neighbors(const topology::TargetSpec& target,
                                     GuestId g, std::uint64_t n_guests) {
  std::vector<GuestId> out;
  const topology::Cbt cbt(n_guests);
  if (const auto p = cbt.parent(g)) out.push_back(*p);
  for (GuestId c : cbt.children(g)) out.push_back(c);
  const std::uint32_t waves = target.num_waves(n_guests);
  for (std::uint32_t k = 0; k < waves; ++k) {
    const std::uint64_t d = std::uint64_t{1} << k;
    const GuestId fwd = (g + d) % n_guests;
    const GuestId rev = (g + n_guests - (d % n_guests)) % n_guests;
    if (fwd != g && target.keep(g, k, n_guests)) out.push_back(fwd);
    if (rev != g && target.keep(rev, k, n_guests)) out.push_back(rev);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

LookupResult greedy_lookup(const topology::TargetSpec& target,
                           std::uint64_t n_guests, GuestId s, GuestId t,
                           std::span<const NodeId> sorted_ids,
                           const std::vector<bool>* alive) {
  LookupResult res;
  const auto is_alive = [&](GuestId g) {
    if (alive == nullptr) return true;
    const NodeId h = host_for(g, sorted_ids);
    const std::size_t idx =
        sorted_ids.empty()
            ? static_cast<std::size_t>(h)
            : static_cast<std::size_t>(
                  std::lower_bound(sorted_ids.begin(), sorted_ids.end(), h) -
                  sorted_ids.begin());
    return idx < alive->size() && (*alive)[idx];
  };
  if (!is_alive(s) || !is_alive(t)) return res;

  GuestId cur = s;
  const std::uint64_t budget = 4 * (util::ceil_log2(n_guests) + 2);
  while (cur != t) {
    if (res.guest_hops > budget) return res;  // stuck / cycling
    GuestId best = cur;
    std::uint64_t best_dist = util::ring_cw(cur, t, n_guests);
    for (GuestId v : guest_neighbors(target, cur, n_guests)) {
      if (!is_alive(v)) continue;
      const std::uint64_t d = util::ring_cw(v, t, n_guests);
      if (d < best_dist) {
        best_dist = d;
        best = v;
      }
    }
    if (best == cur) return res;  // no progress possible
    ++res.guest_hops;
    if (host_for(best, sorted_ids) != host_for(cur, sorted_ids)) {
      ++res.host_hops;
    }
    cur = best;
  }
  res.success = true;
  return res;
}

LookupStats lookup_stats(const topology::TargetSpec& target,
                         std::uint64_t n_guests,
                         std::span<const NodeId> sorted_ids,
                         std::size_t samples, util::Rng& rng,
                         const std::vector<bool>* alive) {
  LookupStats stats;
  std::uint64_t total_guest = 0, total_host = 0, successes = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const GuestId s = rng.next_below(n_guests);
    const GuestId t = rng.next_below(n_guests);
    const LookupResult r =
        greedy_lookup(target, n_guests, s, t, sorted_ids, alive);
    if (r.success) {
      ++successes;
      total_guest += r.guest_hops;
      total_host += r.host_hops;
      stats.max_guest_hops = std::max(stats.max_guest_hops, r.guest_hops);
    }
  }
  if (successes > 0) {
    stats.mean_guest_hops =
        static_cast<double>(total_guest) / static_cast<double>(successes);
    stats.mean_host_hops =
        static_cast<double>(total_host) / static_cast<double>(successes);
  }
  stats.success_rate =
      static_cast<double>(successes) / static_cast<double>(samples);
  return stats;
}

namespace {

CongestionStats finalize_congestion(
    const std::map<NodeId, std::uint64_t>& load,
    std::span<const NodeId> sorted_ids) {
  CongestionStats out;
  if (sorted_ids.empty()) return out;
  std::uint64_t total = 0;
  for (const auto& [host, l] : load) {
    total += l;
    if (l > out.max_load) {
      out.max_load = l;
      out.hottest = host;
    }
  }
  out.mean_load =
      static_cast<double>(total) / static_cast<double>(sorted_ids.size());
  out.imbalance = out.mean_load > 0.0
                      ? static_cast<double>(out.max_load) / out.mean_load
                      : 0.0;
  return out;
}

}  // namespace

CongestionStats target_congestion(const topology::TargetSpec& target,
                                  std::uint64_t n_guests,
                                  std::span<const NodeId> sorted_ids,
                                  std::size_t samples, util::Rng& rng) {
  std::map<NodeId, std::uint64_t> load;
  const std::uint64_t budget = 4 * (util::ceil_log2(n_guests) + 2);
  for (std::size_t i = 0; i < samples; ++i) {
    const GuestId s = rng.next_below(n_guests);
    const GuestId t = rng.next_below(n_guests);
    // Walk the greedy route, charging every *intermediate* host one
    // forwarding event (endpoints serve, they do not forward).
    GuestId cur = s;
    std::uint64_t hops = 0;
    while (cur != t && hops <= budget) {
      GuestId best = cur;
      std::uint64_t best_dist = util::ring_cw(cur, t, n_guests);
      for (GuestId v : guest_neighbors(target, cur, n_guests)) {
        const std::uint64_t d = util::ring_cw(v, t, n_guests);
        if (d < best_dist) {
          best_dist = d;
          best = v;
        }
      }
      if (best == cur) break;
      cur = best;
      ++hops;
      if (cur != t) ++load[host_for(cur, sorted_ids)];
    }
  }
  return finalize_congestion(load, sorted_ids);
}

CongestionStats cbt_congestion(std::uint64_t n_guests,
                               std::span<const NodeId> sorted_ids,
                               std::size_t samples, util::Rng& rng) {
  const topology::Cbt cbt(n_guests);
  const auto ancestors = [&](GuestId g) {
    std::vector<GuestId> chain{g};
    for (auto p = cbt.parent(g); p; p = cbt.parent(*p)) chain.push_back(*p);
    return chain;  // g .. root
  };
  std::map<NodeId, std::uint64_t> load;
  for (std::size_t i = 0; i < samples; ++i) {
    const GuestId s = rng.next_below(n_guests);
    const GuestId t = rng.next_below(n_guests);
    if (s == t) continue;
    // Tree route s -> LCA -> t: every guest strictly between the endpoints
    // on the path forwards once; endpoints serve.
    const auto up_s = ancestors(s);  // s .. root
    const auto up_t = ancestors(t);
    GuestId lca = up_s.back();
    {
      auto is = up_s.rbegin();
      auto it = up_t.rbegin();
      while (is != up_s.rend() && it != up_t.rend() && *is == *it) {
        lca = *is;
        ++is;
        ++it;
      }
    }
    std::vector<GuestId> interior;
    for (GuestId g : up_s) {
      if (g == s) continue;
      if (g == lca) break;
      interior.push_back(g);
    }
    for (GuestId g : up_t) {
      if (g == t) continue;
      if (g == lca) break;
      interior.push_back(g);
    }
    if (lca != s && lca != t) interior.push_back(lca);
    for (GuestId g : interior) ++load[host_for(g, sorted_ids)];
  }
  return finalize_congestion(load, sorted_ids);
}

std::vector<RobustnessPoint> robustness_sweep(
    const std::vector<NodeId>& ids, std::uint64_t n_guests,
    const std::vector<double>& failed_fractions, std::size_t trials,
    util::Rng& rng) {
  const graph::Graph chord_g =
      avatar::ideal_host_graph(topology::chord_target(), ids, n_guests);
  const graph::Graph cbt_g = avatar::ideal_cbt_host_graph(ids, n_guests);
  std::vector<RobustnessPoint> out;
  for (double frac : failed_fractions) {
    RobustnessPoint pt;
    pt.failed_fraction = frac;
    double chord_sum = 0.0, cbt_sum = 0.0;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      const std::size_t kill_count = static_cast<std::size_t>(
          frac * static_cast<double>(ids.size()));
      std::vector<NodeId> pool = ids;
      for (std::size_t i = pool.size(); i > 1; --i) {
        std::swap(pool[i - 1], pool[rng.next_below(i)]);
      }
      pool.resize(kill_count);
      chord_sum += graph::reachable_pair_fraction(
          graph::remove_nodes(chord_g, pool));
      cbt_sum += graph::reachable_pair_fraction(
          graph::remove_nodes(cbt_g, pool));
    }
    pt.chord_reachability = chord_sum / static_cast<double>(trials);
    pt.cbt_reachability = cbt_sum / static_cast<double>(trials);
    out.push_back(pt);
  }
  return out;
}

}  // namespace chs::routing
