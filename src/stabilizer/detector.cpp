// Fault detection and phase selection (§4.4, Definition 3, Lemmas 1-2).
//
// Every round, every host checks its own state and the previous-round public
// state of its neighbors. Any inconsistency — malformed range, map keys that
// disagree with the forced crossing-edge geometry, structural neighbors in
// the wrong cluster or with non-tiling ranges, wave counters that violate
// the scaffolded-Chord predicate, expired merge/wave budgets, or a neighbor
// in a different phase without an in-flight phase wave to explain it —
// resets the host to a singleton cluster: it becomes its own cluster hosting
// the entire N-guest Cbt, keeps every incident edge (they remain the
// connectivity substrate, reclassified as external), and starts executing
// the Avatar(Cbt) algorithm. Per Lemma 2 this reset infects the network in
// O(log N) rounds when the configuration is neither legal nor scaffolded.
#include <algorithm>
#include <optional>
#include <vector>

#include "stabilizer/protocol.hpp"
#include "util/log.hpp"

namespace chs::stabilizer {

namespace {

/// Wrap-aware coverage check of [lo+shift, hi+shift) mod n.
bool covers_mod(const util::IntervalMap<NodeId>& map, std::uint64_t lo,
                std::uint64_t hi, std::uint64_t n) {
  if (lo >= n) {
    lo -= n;
    hi -= n;
  }
  if (hi <= n) return map.covers(lo, hi);
  return map.covers(lo, n) && map.covers(0, hi - n);
}

}  // namespace


// Reset diagnostics: record the fault::k* code of the check that fired
// (tests and the debug tracer read HostState::fault_line).
#define CHS_FAULT(code)                  \
  do {                                   \
    ctx.state().fault_line = (code);     \
    return false;                        \
  } while (0)

int Protocol::crossing_key_fault(const HostState& st) const {
  std::size_t nb = 0, np = 0;
  for (const auto& ce : cbt_.crossing_edges(st.lo, st.hi)) {
    if (!ce.child_inside) {
      if (!st.boundary_host.count(ce.child_pos)) {
        return fault::kMissingBoundaryKey;
      }
      ++nb;
    } else {
      if (!st.parent_host.count(ce.child_pos)) return fault::kMissingParentKey;
      ++np;
    }
  }
  if (st.boundary_host.size() != nb || st.parent_host.size() != np) {
    return fault::kCrossingKeyCount;
  }
  return 0;
}

// Exact against crossing_key_fault (DESIGN.md D17): the fragment walk's
// out-edges are exactly the child-outside crossing edges and the non-root
// fragment entries exactly the child-inside ones, every key is unique, so
// the sorted key sequences are equal iff the reference loop's per-key and
// size tests all pass.
bool Protocol::crossing_keys_match_cache(const HostState& st) const {
  if (!st.frags_current()) return false;
  if (st.boundary_host.size() != st.out_edge_to_entry.size()) return false;
  auto oe = st.out_edge_to_entry.begin();
  for (const auto& [pos, host] : st.boundary_host) {
    if (pos != oe->first) return false;
    ++oe;
  }
  auto pe = st.parent_host.begin();
  for (const auto& f : st.frags) {
    if (!f.parent_pos) continue;  // the guest root's fragment has no parent
    if (pe == st.parent_host.end() || pe->first != f.entry) return false;
    ++pe;
  }
  return pe == st.parent_host.end();
}

bool Protocol::check_local(Ctx& ctx) const {
  const HostState& st = ctx.state();
  const std::uint64_t n = params_.n_guests;
  const std::uint64_t now = ctx.round();

  // --- 0. Well-formedness of my own claims -------------------------------
  if (st.id != ctx.self()) CHS_FAULT(fault::kSelfIdMismatch);
  if (st.id >= n) CHS_FAULT(fault::kIdOutsideGuests);
  if (st.hi > n || st.lo >= st.hi) CHS_FAULT(fault::kMalformedRange);
  if (st.lo != 0 && st.lo != st.id) CHS_FAULT(fault::kRangeNotAnchored);
  if (st.id < st.lo || st.id >= st.hi) CHS_FAULT(fault::kIdOutsideRange);
  const bool hosts_guest_root = guest_root() >= st.lo && guest_root() < st.hi;
  if (hosts_guest_root != st.is_root()) CHS_FAULT(fault::kRootClaimMismatch);
  if ((st.hi == n) != (st.succ == kNone)) CHS_FAULT(fault::kSuccVsRangeEnd);
  if ((st.lo == 0) != (st.pred == kNone)) CHS_FAULT(fault::kPredVsRangeStart);
  if (st.cluster == kNone) CHS_FAULT(fault::kNoCluster);

  // --- 1. Map keys must equal the forced crossing-edge geometry ----------
  // The cached fragment geometry answers in one pass; on a mismatch or a
  // stale cache the crossing-edge walk decides, and names the fault.
  const bool keys_cached = crossing_keys_match_cache(st);
  CHS_DCHECK(!st.frags_current() ||
             keys_cached == (crossing_key_fault(st) == 0));
  if (!keys_cached) {
    if (const int code = crossing_key_fault(st); code != 0) CHS_FAULT(code);
  }

  // --- 2. Budgets ---------------------------------------------------------
  if (st.merge.stage != MergeStage::kNone && now > st.merge.deadline) {
    CHS_FAULT(fault::kMergeBudget);
  }
  if (st.active_wave_k != -1 && now > st.active_wave_deadline) {
    CHS_FAULT(fault::kWaveBudget);
  }
  if (st.phase != Phase::kCbt && st.merge.stage != MergeStage::kNone) {
    CHS_FAULT(fault::kMergeOutsideCbt);
  }

  // --- 3. Neighbor consistency --------------------------------------------
  const bool merge_window =
      st.merge.stage != MergeStage::kNone || now < st.recent_until;
  const auto cluster_ok = [&](const auto& v) {
    if (v.cluster == st.cluster) return true;
    if (st.merge.stage != MergeStage::kNone &&
        (v.cluster == st.merge.peer_cluster || v.merging_with == st.cluster)) {
      return true;
    }
    if (now < st.recent_until &&
        (v.cluster == st.recent_a || v.cluster == st.recent_b)) {
      return true;
    }
    CHS_FAULT(fault::kForeignCluster);
  };

  const auto check_structural = [&](GuestId pos, NodeId host,
                                    bool pos_in_their_range) {
    if (host == kNone || host == st.id) CHS_FAULT(fault::kStructuralSelfOrNone);
    // A false-y view means host is not a neighbor.
    const auto v = ctx.view(host);
    if (!v) CHS_FAULT(fault::kStructuralNotNeighbor);
    if (!cluster_ok(*v)) CHS_FAULT(fault::kStructuralForeignCluster);
    if (!merge_window && pos_in_their_range &&
        (pos < v->lo || pos >= v->hi)) {
      CHS_FAULT(fault::kStructuralPosOutsideRange);
    }
    // Reciprocity: every crossing edge is held by both endpoints, so a
    // legal boundary/parent reference is mirrored by the peer (my parent's
    // boundary map names me, and vice versa). A reference the peer does
    // not reciprocate is stale — e.g. a member carrying a pre-corruption
    // cluster structure whose every other local check passes by id
    // collision (the parasitic-enclave configuration found by the
    // invariant oracle: edge hygiene used to "detect" it by severing the
    // referenced edge, manufacturing the very dangling-reference fault I4
    // forbids; now the referencing host detects it itself).
    if (!merge_window && !v->considers_structural(st.id)) {
      CHS_FAULT(fault::kStructuralNotMirrored);
    }
    return true;
  };
  for (const auto& [pos, host] : st.boundary_host) {
    if (!check_structural(pos, host, true)) CHS_FAULT(fault::kBoundaryRef);
  }
  // parent_host is keyed by my entry position; the *parent* position must
  // lie in the neighbor's range. With the keys matched to the cache, the
  // non-root fragments list the same entries in the same order.
  auto frag = st.frags.begin();
  for (const auto& [pos, host] : st.parent_host) {
    std::optional<GuestId> pp;
    if (keys_cached) {
      while (!frag->parent_pos) ++frag;
      CHS_DCHECK(frag->entry == pos);
      pp = frag->parent_pos;
      ++frag;
    } else {
      pp = cbt_.parent(pos);
    }
    // The guest root has no parent entry.
    if (!pp) CHS_FAULT(fault::kParentOfGuestRoot);
    if (!check_structural(*pp, host, true)) CHS_FAULT(fault::kParentRef);
  }
  if (st.succ != kNone) {
    if (!ctx.view(st.succ)) CHS_FAULT(fault::kSuccNotNeighbor);
    const auto v = ctx.view(st.succ);     // memoized repeat
    if (!cluster_ok(*v)) CHS_FAULT(fault::kSuccForeignCluster);
    // Ranges must tile.
    if (!merge_window && v->id != st.hi) CHS_FAULT(fault::kSuccRangeGap);
    // Ring reciprocity: my successor's pred pointer names me (same
    // stale-membership argument as the structural-map check above).
    if (!merge_window && v->pred != st.id) CHS_FAULT(fault::kSuccNotMirrored);
  }
  if (st.pred != kNone) {
    if (!ctx.view(st.pred)) CHS_FAULT(fault::kPredNotNeighbor);
    const auto v = ctx.view(st.pred);     // memoized repeat
    if (!cluster_ok(*v)) CHS_FAULT(fault::kPredForeignCluster);
    if (!merge_window && v->hi != st.lo) CHS_FAULT(fault::kPredRangeGap);
    if (!merge_window && v->succ != st.id) CHS_FAULT(fault::kPredNotMirrored);
  }

  // --- 4. Phase agreement (Lemma 2's infection rule) and Lemma 1's
  // extra-neighbor detection: past phase CBT my cluster spans the network,
  // so *every* neighbor must belong to it — an edge to another cluster is
  // exactly the "neighbor it would not have in the correct configuration".
  if (st.phase != Phase::kCbt) {
    for (NodeId v : ctx.neighbors()) {
      const auto view = ctx.view(v);
      if (!view) continue;
      if (!cluster_ok(*view)) CHS_FAULT(fault::kPhaseForeignCluster);
      if (view->phase == st.phase) continue;
      const bool wave_explains = st.in_phase_wave || st.in_done_wave ||
                                 view->in_phase_wave || view->in_done_wave;
      if (!wave_explains) CHS_FAULT(fault::kPhaseMismatch);
    }
  }

  // --- 5. Scaffolded-Chord predicate (Definition 3) ------------------------
  if (st.phase != Phase::kCbt) {
    const auto w = static_cast<std::int32_t>(num_waves_);
    if (st.wave_k < -1 || st.wave_k >= w) CHS_FAULT(fault::kWaveCounterRange);
    if (st.active_wave_k != -1 && st.active_wave_k != st.wave_k + 1) {
      CHS_FAULT(fault::kActiveWaveNotNext);
    }
    if (st.fwd_maps.size() != num_waves_ || st.rev_maps.size() != num_waves_) {
      CHS_FAULT(fault::kFingerMapCount);
    }
    // Condition 3: structural neighbors have k-1, k, or k+1 fingers built.
    // The check is direction-free at host granularity: a host's wave_k is
    // the minimum over its fragments, and two hosts can simultaneously be
    // parent and child of each other at different tree positions.
    if (!st.in_phase_wave) {
      thread_local std::vector<NodeId> structural;  // scratch, refilled here
      structural_neighbors(st, structural);
      for (NodeId host : structural) {
        const auto v = ctx.view(host);
        if (!v) CHS_FAULT(fault::kWaveNeighborMissing);
        if (v->phase == Phase::kCbt) continue;  // phase rule handled above
        const std::int64_t diff =
            static_cast<std::int64_t>(st.wave_k) - v->wave_k;
        if (diff < -1 || diff > 1) CHS_FAULT(fault::kWaveGap);
      }
    }
    // Fingers 0..k present: the level maps must cover my range's images.
    // Strictly-below levels only: the latest level's wrap entries may still
    // be settling (ring notes / finger notes are one round behind).
    for (std::int32_t k = 0; k < st.wave_k; ++k) {
      const std::uint64_t d = std::uint64_t{1} << k;
      if (!covers_mod(st.fwd_maps[k], st.lo + d, st.hi + d, n)) {
        CHS_FAULT(fault::kFwdCoverageGap);
      }
      if (!covers_mod(st.rev_maps[k], st.lo + n - d, st.hi + n - d, n)) {
        CHS_FAULT(fault::kRevCoverageGap);
      }
    }
  }

  // --- 6. Silent-phase strictness ------------------------------------------
  if (st.phase == Phase::kDone) {
    if (st.wave_k != static_cast<std::int32_t>(num_waves_) - 1) {
      CHS_FAULT(fault::kDoneWaveIncomplete);
    }
    // After the prune settles the neighbor set must be *exactly* the
    // required structure: an extra neighbor is the paper's "neighbor it
    // would not have", a missing one is a severed finger or tree edge.
    if (st.done_pruned && !st.in_done_wave && now > st.phase_wave_deadline) {
      for (NodeId v : ctx.neighbors()) {
        if (!st.done_needed.count(v)) {
          ctx.state().fault_aux = v;
          CHS_FAULT(fault::kDoneExtraNeighbor);
        }
      }
      for (NodeId v : st.done_needed) {
        if (!ctx.is_neighbor(v)) {
          ctx.state().fault_aux = v;
          CHS_FAULT(fault::kDoneMissingNeighbor);
        }
      }
    }
  }

  return true;
}

void Protocol::reset_to_singleton(Ctx& ctx) {
  HostState& st = ctx.state();
  const std::uint64_t resets = st.resets;
  const int fault_line = st.fault_line;
  const NodeId fault_aux = st.fault_aux;
  const NodeId id = ctx.self();
  st = HostState{};
  st.fault_line = fault_line;
  st.fault_aux = fault_aux;
  st.id = id;
  st.phase = Phase::kCbt;
  st.cluster = id;
  st.lo = 0;
  st.hi = params_.n_guests;
  st.resets = resets + 1;
  // Stagger the first epoch so simultaneous resets don't stay in lockstep.
  st.epoch.timer = 1 + ctx.rng().next_below(params_.epoch_rounds());
  recompute_fragments(st);
  st.nbrs = ctx.neighbors();
}

}  // namespace chs::stabilizer
