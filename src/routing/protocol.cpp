#include "routing/protocol.hpp"

#include <algorithm>

#include "util/bitops.hpp"

namespace chs::routing {

NodeId LookupProtocol::next_hop(const NodeState& st, GuestId t,
                                std::uint64_t n,
                                const std::vector<NodeId>* usable) {
  if (t >= st.lo && t < st.hi) return kNoneHost;  // local
  // Closest-preceding-finger: among all guests reachable in one hop (the
  // images of my range under +2^k, plus my successor's range start), pick
  // the one that precedes t most closely on the ring.
  NodeId best_host = kNoneHost;
  std::uint64_t best_dist = ~std::uint64_t{0};
  const auto consider = [&](GuestId g, NodeId host) {
    if (host == kNoneHost) return;
    if (usable != nullptr &&
        !std::binary_search(usable->begin(), usable->end(), host)) {
      return;
    }
    // distance from g forward to t; g must not overshoot (g == t allowed).
    const std::uint64_t d = util::ring_cw(g, t, n);
    if (d < best_dist) {
      best_dist = d;
      best_host = host;
    }
  };
  for (const auto& level : st.fwd) {
    for (const auto& e : level.entries()) {
      // The guest in [e.lo, e.hi) closest-preceding t:
      GuestId g;
      if (t >= e.lo && t < e.hi) {
        g = t;
      } else {
        g = e.hi - 1;
        // Compare both the last and first guest of the interval (ring).
        if (util::ring_cw(e.lo, t, n) < util::ring_cw(g, t, n)) g = e.lo;
      }
      consider(g, e.value);
    }
  }
  if (st.succ != kNoneHost) consider(st.hi % n, st.succ);
  return best_host;
}

void LookupProtocol::schedule_wakeups(Ctx&) const {}

void LookupProtocol::step(Ctx& ctx) {
  auto& st = ctx.state();
  const auto route = [&](const Message& m) {
    if (m.target >= st.lo && m.target < st.hi) {
      st.delivered.emplace_back(m.target, m.hops);
      return;
    }
    const NodeId next = next_hop(st, m.target, n_guests_, &ctx.neighbors());
    if (next == kNoneHost || next == ctx.self()) {
      return;  // dead end: the lookup is dropped (counted as undelivered)
    }
    Message fwd = m;
    ++fwd.hops;
    ctx.send(next, fwd);
  };

  // Fire whatever was injected since the last step (state_mut woke us);
  // under active-set stepping this replaces the old round-0-only gate and
  // lets lookups start at any point of an engine's lifetime.
  if (!st.to_send.empty()) {
    for (const auto& [target, id] : st.to_send) {
      route(Message{id, target, ctx.self(), 0});
    }
    st.to_send.clear();
  }
  for (const auto& env : ctx.inbox()) route(env.msg);
  schedule_wakeups(ctx);
}

std::unique_ptr<LookupEngine> make_lookup_engine(const core::StabEngine& src,
                                                 std::uint64_t seed) {
  const std::uint64_t n = src.protocol().params().n_guests;
  graph::Graph g(src.graph().ids());
  for (const auto& [u, v] : src.graph().edge_list()) g.add_edge(u, v);
  auto eng = std::make_unique<LookupEngine>(std::move(g), LookupProtocol(n),
                                            seed);
  for (NodeId id : eng->graph().ids()) {
    const auto& from = src.state(id);
    auto& to = eng->state_mut(id);
    to.lo = from.lo;
    to.hi = from.hi;
    to.fwd = from.fwd_maps;
    to.succ = from.succ == stabilizer::kNone ? LookupProtocol::kNoneHost
                                             : from.succ;
  }
  eng->republish();
  return eng;
}

InBandStats run_inband_lookups(LookupEngine& eng, std::size_t count,
                               std::uint64_t seed, std::uint64_t max_rounds) {
  const auto& ids = eng.graph().ids();
  const std::uint64_t n = eng.protocol().n_guests();
  util::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId origin = ids[rng.next_below(ids.size())];
    eng.state_mut(origin).to_send.emplace_back(rng.next_below(n), i);
  }
  InBandStats stats;
  stats.issued = count;
  std::uint64_t idle = 0;
  for (std::uint64_t r = 0; r < max_rounds && idle < 3; ++r) {
    eng.step_round();
    idle = eng.quiescent_streak();
    ++stats.rounds;
  }
  std::uint64_t total_hops = 0;
  for (NodeId id : ids) {
    for (const auto& [target, hops] : eng.state(id).delivered) {
      (void)target;
      ++stats.delivered;
      total_hops += hops;
      stats.max_hops = std::max(stats.max_hops, hops);
    }
  }
  if (stats.delivered > 0) {
    stats.mean_hops =
        static_cast<double>(total_hops) / static_cast<double>(stats.delivered);
  }
  return stats;
}

}  // namespace chs::routing
