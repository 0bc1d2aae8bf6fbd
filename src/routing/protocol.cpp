#include "routing/protocol.hpp"

#include <algorithm>

namespace chs::routing {

NodeId LookupProtocol::next_hop(const NodeState& st, GuestId t,
                                std::uint64_t n,
                                const std::vector<NodeId>* usable) {
  return st.router.next_hop(st.lo, st.hi, st.fwd, st.succ, t, n,
                            [usable](NodeId host) {
                              return usable == nullptr ||
                                     std::binary_search(usable->begin(),
                                                        usable->end(), host);
                            });
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
    ctx.send(next, std::move(fwd));
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
