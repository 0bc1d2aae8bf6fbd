// Chord's closest-preceding-finger rule over a host's stabilized routing
// state, shared by the in-band lookup plane (routing::LookupProtocol) and
// the KV plane (dht::KvProtocol). DESIGN.md D16.
//
// A host's routing state is its responsible range [lo, hi), one interval
// map per finger level ("who hosts my range + 2^k") and its ring successor.
// For a target guest t outside the range, every map entry [a, b) -> h offers
// the guest of [a, b) closest-preceding t, and the successor offers hi % n;
// the next hop is the host of the candidate with the smallest clockwise
// distance to t, the first in scan order on ties, among the hosts a caller's
// `usable` predicate accepts. closest_preceding() is that rule, as a scan.
//
// FingerRouter answers the same question from a per-host table. Ignoring
// `usable`, the scan's winner is constant between consecutive breakpoints
// (every entry's a and b, the successor's guest, and 0), so a sorted list
// of segment starts answers a hop with one upper_bound and one usable()
// probe. Only when that winner is unusable does the router run the scan —
// and then the scan's answer is the answer, so the table can never route
// differently from the rule.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "graph/graph.hpp"
#include "topology/cbt.hpp"
#include "util/bitops.hpp"
#include "util/check.hpp"
#include "util/interval_map.hpp"

namespace chs::routing {

using graph::NodeId;
using topology::GuestId;
using FingerMaps = std::vector<util::IntervalMap<NodeId>>;

/// "No hop": the target is local, or no usable candidate exists. Equal to
/// both planes' kNoneHost, which also marks an absent successor.
inline constexpr NodeId kNoHop = ~std::uint64_t{0};

/// The closest-preceding-finger rule for a target t outside the host's own
/// range (callers test locality first): the usable host whose candidate
/// guest precedes t most closely, first in scan order on ties, or kNoHop.
/// `hi` is the end of the host's range; its successor's candidate guest is
/// hi % n.
template <typename Usable>
NodeId closest_preceding(const FingerMaps& fwd, std::uint64_t hi, NodeId succ,
                         GuestId t, std::uint64_t n, Usable&& usable) {
  NodeId best_host = kNoHop;
  std::uint64_t best_dist = ~std::uint64_t{0};
  const auto consider = [&](GuestId g, NodeId host) {
    if (host == kNoHop) return;
    // Distance from g forward to t; g must not overshoot (g == t allowed).
    const std::uint64_t d = util::ring_cw(g, t, n);
    if (d < best_dist && usable(host)) {
      best_dist = d;
      best_host = host;
    }
  };
  for (const auto& level : fwd) {
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
  if (succ != kNoHop) consider(hi % n, succ);
  return best_host;
}

/// Per-host next-hop table over one host's routing state. Derived state: it
/// is built on the first hop after construction or invalidate(), never
/// serialized, and must be invalidated whenever the host's lo, hi, fwd or
/// succ change after it has routed (the planes do so on restore).
class FingerRouter {
 public:
  /// Next hop toward t for a host whose routing state is (lo, hi, fwd,
  /// succ), restricted to hosts `usable` accepts: exactly
  /// closest_preceding(), or kNoHop when t lies in [lo, hi).
  template <typename Usable>
  NodeId next_hop(std::uint64_t lo, std::uint64_t hi, const FingerMaps& fwd,
                  NodeId succ, GuestId t, std::uint64_t n, Usable&& usable) {
    if (t >= lo && t < hi) return kNoHop;  // local
    if (segs_.empty()) build(fwd, hi, succ, n);
    const auto it = std::upper_bound(
        segs_.begin(), segs_.end(), t,
        [](GuestId v, const Segment& s) { return v < s.start; });
    const NodeId winner = std::prev(it)->winner;
    // The unrestricted winner is the first candidate at the minimum
    // distance; when it is usable it is also the first usable one there.
    const NodeId hop = winner == kNoHop || usable(winner)
                           ? winner
                           : closest_preceding(fwd, hi, succ, t, n, usable);
    CHS_DCHECK(hop == closest_preceding(fwd, hi, succ, t, n, usable));
    return hop;
  }

  /// Drop the table; the next hop rebuilds it from the current state.
  void invalidate() { segs_.clear(); }

  /// Segments in the built table (0 when unbuilt).
  std::size_t segments() const { return segs_.size(); }

 private:
  struct Segment {
    GuestId start;  // the segment covers [start, next segment's start)
    NodeId winner;  // closest_preceding() with every host usable
  };

  void build(const FingerMaps& fwd, std::uint64_t hi, NodeId succ,
             std::uint64_t n);

  std::vector<Segment> segs_;  // sorted by start; segs_[0].start == 0
};

}  // namespace chs::routing
