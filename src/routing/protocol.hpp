// In-band lookups: the application the overlay exists for, executed as real
// messages over the *built* host network (not a god's-eye graph walk).
//
// Each host's routing table is exactly what the stabilizer left behind:
// its responsible range and the per-level fwd interval maps ("who hosts my
// range shifted by +2^k"). A lookup for guest t is forwarded Chord-style to
// the neighbor hosting the closest guest preceding t reachable in one hop;
// the ring level guarantees progress, the top levels make it logarithmic.
// The rule and its per-host next-hop table live in routing/finger_router
// (DESIGN.md D16), shared with the KV plane.
//
// make_lookup_engine() snapshots a converged stabilizer engine — the
// realistic hand-off from the maintenance plane to the data plane.
#pragma once

#include <cstdint>
#include <vector>

#include "core/network.hpp"
#include "routing/finger_router.hpp"
#include "sim/engine.hpp"
#include "util/interval_map.hpp"

namespace chs::routing {

using graph::NodeId;
using topology::GuestId;

class LookupProtocol {
 public:
  /// Active-set stepping (DESIGN.md D6): lookups are purely message-driven —
  /// injections via state_mut wake the origin, deliveries wake each hop — so
  /// idle hosts never step and a large converged plane costs nothing.
  static constexpr bool kUsesActiveSet = true;

  struct Message {
    std::uint64_t lookup_id = 0;
    GuestId target = 0;
    NodeId origin = kNoneHost;
    std::uint32_t hops = 0;
  };
  struct NodeState {
    std::uint64_t lo = 0, hi = 0;  // responsible range
    std::vector<util::IntervalMap<NodeId>> fwd;  // level k: hosts of range+2^k
    NodeId succ = kNoneHost;
    // Delivery log (target guest, hops) for lookups that ended here.
    std::vector<std::pair<GuestId, std::uint32_t>> delivered;
    // Injected lookups to fire on this host's next step: (target, id).
    std::vector<std::pair<GuestId, std::uint64_t>> to_send;
    // Next-hop table over (lo, hi, fwd, succ): derived, never serialized,
    // invalidated by on_restore (DESIGN.md D16). Mutable because next_hop
    // answers for a const state and builds the table on first use.
    mutable FingerRouter router;
  };
  struct PublicState {};

  using Ctx = sim::NodeCtx<LookupProtocol>;

  explicit LookupProtocol(std::uint64_t n_guests) : n_guests_(n_guests) {}

  std::uint64_t n_guests() const { return n_guests_; }

  void init_node(NodeId, NodeState&, util::Rng&) {}
  void publish(const NodeState&, PublicState&) {}
  void step(Ctx& ctx);

  /// Active-set contract hook: no timers, so nothing to announce (see
  /// KvProtocol::schedule_wakeups for the reasoning).
  void schedule_wakeups(Ctx& ctx) const;

  /// Engine checkpoint hook: only immutable configuration lives here.
  template <typename A>
  void persist_fields(A&) {}

  /// Engine restore hook: the next-hop table is rebuilt from the restored
  /// routing state on the host's next hop.
  void on_restore(NodeState& st) const { st.router.invalidate(); }

  /// Best next hop for target t from a host with the given state: Chord's
  /// closest-preceding finger, answered by the host's FingerRouter table
  /// (DESIGN.md D16); kNoneHost when t is local or no candidate exists.
  /// When `usable` is non-null, only hosts in that sorted list are
  /// considered — step passes the current neighbor set, because for pruned
  /// targets (skiplist, smallworld, hypercube) the wave-built fwd maps can
  /// reference hosts whose span edges the DONE wave removed.
  static NodeId next_hop(const NodeState& st, GuestId t, std::uint64_t n,
                         const std::vector<NodeId>* usable = nullptr);

  static constexpr NodeId kNoneHost = kNoHop;

 private:
  std::uint64_t n_guests_;
};

using LookupEngine = sim::Engine<LookupProtocol>;

/// Snapshot a converged stabilizer engine into a lookup engine: same
/// topology, routing state copied from each host's final protocol state.
std::unique_ptr<LookupEngine> make_lookup_engine(const core::StabEngine& src,
                                                 std::uint64_t seed);

struct InBandStats {
  std::size_t issued = 0;
  std::size_t delivered = 0;
  double mean_hops = 0.0;
  std::uint32_t max_hops = 0;
  std::uint64_t rounds = 0;
};

/// Issue `count` random lookups from random hosts and run until delivered
/// (or the round budget runs out).
InBandStats run_inband_lookups(LookupEngine& eng, std::size_t count,
                               std::uint64_t seed, std::uint64_t max_rounds);

}  // namespace chs::routing
