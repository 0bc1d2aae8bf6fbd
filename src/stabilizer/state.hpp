// Per-host state of the self-stabilizing Avatar(Cbt) + Chord protocol.
//
// Guests are never materialized: a host's responsible range plus the wave /
// merge counters below determine all guest state (DESIGN.md D1). What a host
// stores is exactly the *host-level* realization of the guest structures:
//
//   boundary_host / parent_host — for each guest-CBT edge crossing the border
//       of my responsible range, the host on the other side. These maps are
//       the dilation-1 embedding made concrete, and their keys are forced by
//       pure geometry (topology::Cbt::crossing_edges), which is what makes
//       the configuration locally checkable.
//   succ / pred                 — ring order of cluster members ("successor
//       pointers" of the merge procedure, §3.2), which wave 0 of Algorithm 1
//       turns into the finger-0 ring.
//   fwd_maps / rev_maps[k]      — after MakeFinger(k), who hosts the interval
//       my range maps to under ±2^k. Populated locally and by FingerNote
//       messages from the introducing hosts; wave k+1 consumes level k.
//
// Cluster machinery (phase CBT): every host knows its cluster id (the host id
// of the cluster root = host of the guest-root position); the root runs the
// matching-epoch FSM; a merging host carries a MergeFsm holding the *pending*
// post-merge structure, swapped in atomically at commit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "avatar/range.hpp"
#include "stabilizer/params.hpp"
#include "topology/cbt.hpp"
#include "util/flat_map.hpp"
#include "util/interval_map.hpp"

namespace chs::stabilizer {

using graph::NodeId;
using topology::CbtInterval;
using topology::GuestId;

inline constexpr NodeId kNone = ~std::uint64_t{0};

enum class Phase : std::uint8_t { kCbt, kChord, kDone };

const char* phase_name(Phase p);

// ---------------------------------------------------------------------------
// PIF wave machinery (fragment-granular; see stabilizer/waves.cpp)
// ---------------------------------------------------------------------------

enum class WaveKind : std::uint8_t {
  kPoll,        // matching epoch: count external edges, sample a candidate
  kPhaseChord,  // flip phase CBT -> CHORD cluster-wide
  kMakeFinger,  // Algorithm 1 wave k
  kDone,        // flip phase CHORD -> DONE, prune non-target edges
};

const char* wave_kind_name(WaveKind k);

struct WaveId {
  WaveKind kind;
  std::uint64_t nonce = 0;
  std::int32_t k = 0;  // finger index for kMakeFinger, else 0
  auto operator<=>(const WaveId&) const = default;
};

/// Feedback payload aggregated up a wave. Fields are used by some kinds and
/// ignored by others (kept in one struct so the wave engine stays generic).
struct WaveAgg {
  std::uint64_t ext_count = 0;  // kPoll: external edges in subtree
  NodeId cand_owner = kNone;    // kPoll: member owning the sampled candidate
  NodeId cand_foreign = kNone;  // kPoll: the foreign host it leads to
  std::uint64_t cand_weight = 0;
  NodeId min_contact = kNone;  // kMakeFinger(0): host of guest 0
  NodeId max_contact = kNone;  // kMakeFinger(0): host of guest N-1
  bool ok = true;              // feedback consistency flag
};

/// Progress of one wave through one fragment of this host's range.
struct FragWave {
  std::uint32_t waiting_ext = 0;       // WaveUps still expected from out-edges
  std::uint64_t internal_ready = 0;    // round at which internal leaves are done
  std::uint64_t ready_round = 0;       // earliest permissible completion round
  bool entered = false;
  bool completed = false;
  WaveAgg agg;
  // kPoll retrace: which out-edge child supplied the sampled candidate
  // (kNone means this host's own external edge).
  GuestId cand_via_child = kNone;
};

struct WaveState {
  std::uint64_t started_round = 0;
  bool propagate_applied = false;   // per-wave, per-host propagate action fired
  bool range_actions_done = false;  // per-wave, per-host feedback actions fired
  std::uint32_t frags_completed = 0;
  util::FlatMap<GuestId, FragWave> frags;  // keyed by fragment entry position
};

// ---------------------------------------------------------------------------
// Matching epochs (root of a cluster only; §3.2 "Matching")
// ---------------------------------------------------------------------------

enum class EpochRole : std::uint8_t {
  kIdle,
  kPolling,      // poll wave in flight
  kFollowWait,   // sent a merge request, awaiting MatchGrant
  kLeadCollect,  // collecting merge requests until epoch end
};

const char* epoch_role_name(EpochRole r);

struct EpochFsm {
  EpochRole role = EpochRole::kIdle;
  std::uint64_t nonce = 0;        // identifies the current poll wave
  std::uint64_t timer = 0;        // rounds until the epoch ends
  std::vector<NodeId> requests;   // kLeadCollect: follower roots seen
  NodeId granted_peer = kNone;    // kFollowWait: peer assigned by a leader
};

// ---------------------------------------------------------------------------
// Merge zip (DESIGN.md D3; stabilizer/merge.cpp)
// ---------------------------------------------------------------------------

enum class MergeStage : std::uint8_t {
  kNone,
  kProposed,    // MergePropose sent, awaiting agreement
  kZip,         // interval zip in progress
  kCommitWait,  // member: structure pending, awaiting MergeCommit
};

const char* merge_stage_name(MergeStage s);

/// One zip step: the pairwise resolution of a subtree interval between this
/// host and the peer cluster's candidate for the same interval.
struct ZipStep {
  CbtInterval iv{0, 0};
  NodeId peer = kNone;           // peer-side candidate host
  NodeId parent_winner = kNone;  // winner of the parent step (kNone at root)
  bool sent = false;             // my ZipStep message is out
  bool have_peer = false;        // peer's ZipStep received
  // Peer data from its ZipStep message:
  std::uint64_t peer_lo = 0, peer_hi = 0;
  NodeId peer_child_left = kNone, peer_child_right = kNone;
  bool resolved = false;
  // Completion tracking (only meaningful on the step winner):
  std::uint32_t waiting_done = 0;  // ZipDone messages still expected
  bool done_reported = false;
};

struct MergeFsm {
  MergeStage stage = MergeStage::kNone;
  NodeId peer_cluster = kNone;  // root id of the other cluster
  std::uint64_t nonce = 0;      // merge instance id (shared by both clusters)
  std::uint64_t deadline = 0;   // absolute round; overrun is a fault
  util::FlatMap<GuestId, ZipStep> steps;  // keyed by interval midpoint
  // Active-use counts of counterpart edges; when a node's count hits zero a
  // retire check runs and drops the edge unless it was promoted into the
  // pending structure (bounds transient merge degree).
  util::FlatMap<NodeId, std::uint32_t> peer_refs;
  // Positions whose pending ZipDone keeps the peer-side child edge alive.
  util::FlatMap<GuestId, NodeId> pending_done_ref;
  // Pending post-merge structure (swapped in at commit):
  std::uint64_t new_lo = 0, new_hi = 0;
  NodeId new_succ = kNone, new_pred = kNone;
  util::FlatMap<GuestId, NodeId> new_boundary;
  util::FlatMap<GuestId, NodeId> new_parent;
  bool committed = false;

  void clear() { *this = MergeFsm{}; }
};

// ---------------------------------------------------------------------------
// Detector fault codes (stabilizer/detector.cpp)
// ---------------------------------------------------------------------------

/// The code check_local stores in HostState::fault_line when a check fails.
/// Each value is the detector.cpp source line the check occupied when the
/// codes were first recorded with __LINE__. fault_line is checkpointed, so
/// the values are part of the blob format: never renumber one, and give a
/// new check a new value.
namespace fault {
// 0. Well-formedness of my own claims.
inline constexpr int kSelfIdMismatch = 51;
inline constexpr int kIdOutsideGuests = 52;
inline constexpr int kMalformedRange = 53;
inline constexpr int kRangeNotAnchored = 54;
inline constexpr int kIdOutsideRange = 55;
inline constexpr int kRootClaimMismatch = 57;
inline constexpr int kSuccVsRangeEnd = 58;
inline constexpr int kPredVsRangeStart = 59;
inline constexpr int kNoCluster = 60;
// 1. Map keys vs the crossing-edge geometry.
inline constexpr int kMissingBoundaryKey = 67;
inline constexpr int kMissingParentKey = 70;
inline constexpr int kCrossingKeyCount = 75;
// 2. Budgets.
inline constexpr int kMergeBudget = 81;
inline constexpr int kWaveBudget = 83;
inline constexpr int kMergeOutsideCbt = 85;
// 3. Neighbor consistency. The cluster_ok and check_structural codes are
// overwritten by the caller's code before check_local returns.
inline constexpr int kForeignCluster = 101;
inline constexpr int kStructuralSelfOrNone = 106;
inline constexpr int kStructuralNotNeighbor = 109;
inline constexpr int kStructuralForeignCluster = 110;
inline constexpr int kStructuralPosOutsideRange = 113;
inline constexpr int kStructuralNotMirrored = 124;
inline constexpr int kBoundaryRef = 128;
inline constexpr int kParentOfGuestRoot = 134;
inline constexpr int kParentRef = 135;
inline constexpr int kSuccNotNeighbor = 138;
inline constexpr int kSuccForeignCluster = 140;
inline constexpr int kSuccRangeGap = 141;
inline constexpr int kSuccNotMirrored = 144;
inline constexpr int kPredNotNeighbor = 147;
inline constexpr int kPredForeignCluster = 149;
inline constexpr int kPredRangeGap = 150;
inline constexpr int kPredNotMirrored = 151;
// 4. Phase agreement.
inline constexpr int kPhaseForeignCluster = 162;
inline constexpr int kPhaseMismatch = 166;
// 5. Scaffolded-Chord predicate.
inline constexpr int kWaveCounterRange = 173;
inline constexpr int kActiveWaveNotNext = 175;
inline constexpr int kFingerMapCount = 178;
inline constexpr int kWaveNeighborMissing = 187;
inline constexpr int kWaveGap = 191;
inline constexpr int kFwdCoverageGap = 199;
inline constexpr int kRevCoverageGap = 201;
// 6. Silent-phase strictness.
inline constexpr int kDoneWaveIncomplete = 208;
inline constexpr int kDoneExtraNeighbor = 216;
inline constexpr int kDoneMissingNeighbor = 222;
}  // namespace fault

// ---------------------------------------------------------------------------
// Host state proper
// ---------------------------------------------------------------------------

struct HostState {
  NodeId id = kNone;
  Phase phase = Phase::kCbt;
  NodeId cluster = kNone;  // host id of my cluster's root
  std::uint64_t lo = 0, hi = 0;

  util::FlatMap<GuestId, NodeId> boundary_host;  // out-of-range child pos -> host
  util::FlatMap<GuestId, NodeId> parent_host;    // in-range entry pos -> parent's host
  NodeId succ = kNone;  // member owning [hi, ..): kNone iff hi == N
  NodeId pred = kNone;  // member whose range ends at lo; kNone iff lo == 0

  // Chord construction (phase kChord).
  std::int32_t wave_k = -1;          // last *completed* MakeFinger wave
  std::int32_t active_wave_k = -1;   // wave currently propagating (else -1)
  std::vector<util::IntervalMap<NodeId>> fwd_maps;  // level k: hosts of (range + 2^k)
  std::vector<util::IntervalMap<NodeId>> rev_maps;  // level k: hosts of (range - 2^k)
  std::int32_t chord_next_wave = 0;  // root only: next wave to launch
  std::uint64_t chord_gap_timer = 0; // root only: grace countdown between waves

  // Wave engine + cluster machinery.
  util::FlatMap<WaveId, WaveState> waves;
  EpochFsm epoch;
  MergeFsm merge;
  bool in_phase_wave = false;  // kPhaseChord tolerance window
  bool in_done_wave = false;   // kDone tolerance window
  std::uint64_t phase_wave_deadline = 0;
  std::uint64_t active_wave_deadline = 0;  // TTL for active_wave_k

  // Post-merge tolerance window: neighbors may still carry either of the two
  // pre-merge cluster ids while the commit flood is in flight.
  NodeId recent_a = kNone, recent_b = kNone;
  std::uint64_t recent_until = 0;

  // Fragment geometry of [frags_lo, frags_hi), a pure function of that
  // range (DESIGN.md D17). Derived state: built only by
  // Protocol::recompute_fragments, never serialized. It equals the geometry
  // of the current range only while frags_lo/frags_hi match lo/hi — a range
  // edited without a recompute (state_mut corruption) leaves it stale, and
  // readers that must stay exact check frags_current() first.
  std::vector<topology::Cbt::Fragment> frags;
  util::FlatMap<GuestId, GuestId> out_edge_to_entry;  // out-edge child pos -> entry
  std::uint64_t frags_lo = 0, frags_hi = 0;  // range the two caches describe

  // Cached at the DONE prune: the exact neighbor set the final configuration
  // requires; any other surviving neighbor is a fault once the prune settles.
  util::FlatSet<NodeId> done_needed;
  bool done_pruned = false;

  // Neighbor ids at the end of my previous step (published for the
  // connectivity certificate used before edge deletions).
  std::vector<NodeId> nbrs;

  // Instrumentation.
  std::uint64_t resets = 0;
  std::uint64_t false_faults = 0;  // resets after the initial sweep (tests)
  int fault_line = 0;              // fault::k* code of the last detector fault
  NodeId fault_aux = kNone;        // offending neighbor, when applicable

  bool is_root() const { return cluster == id; }
  bool frags_current() const { return frags_lo == lo && frags_hi == hi; }
  avatar::Range range() const { return {lo, hi}; }

  /// Approximate resident heap bytes of this host's tables (capacities, not
  /// sizes): the Engine's bytes_per_host accounting. Walks every nested
  /// container, so call on demand — never on the per-round hot path.
  std::size_t live_bytes() const {
    std::size_t b = boundary_host.capacity_bytes() +
                    parent_host.capacity_bytes();
    b += fwd_maps.capacity() * sizeof(fwd_maps[0]);
    for (const auto& m : fwd_maps) b += m.capacity_bytes();
    b += rev_maps.capacity() * sizeof(rev_maps[0]);
    for (const auto& m : rev_maps) b += m.capacity_bytes();
    b += waves.capacity_bytes();
    for (const auto& [id_, ws] : waves) b += ws.frags.capacity_bytes();
    b += epoch.requests.capacity() * sizeof(NodeId);
    b += merge.steps.capacity_bytes() + merge.peer_refs.capacity_bytes() +
         merge.pending_done_ref.capacity_bytes() +
         merge.new_boundary.capacity_bytes() +
         merge.new_parent.capacity_bytes();
    b += frags.capacity() * sizeof(topology::Cbt::Fragment);
    b += out_edge_to_entry.capacity_bytes();
    b += done_needed.capacity_bytes();
    b += nbrs.capacity() * sizeof(NodeId);
    return b;
  }
};

/// The slice of state neighbors can read (D4). Everything the detector's
/// neighbor checks and the deletion certificate need, nothing more.
struct PublicState {
  NodeId id = kNone;
  Phase phase = Phase::kCbt;
  NodeId cluster = kNone;
  NodeId merging_with = kNone;  // peer cluster while merging, else kNone
  std::uint64_t lo = 0, hi = 0;
  NodeId succ = kNone, pred = kNone;
  std::int32_t wave_k = -1;
  std::int32_t active_wave_k = -1;
  bool in_phase_wave = false;
  bool in_done_wave = false;
  std::vector<NodeId> nbrs;  // sorted neighbor list (one step stale)
  // Sorted targets of every structural reference (boundary, parent, succ,
  // pred). Edge hygiene must not delete an edge its peer still counts as
  // structural — the reference may be mid-flood (commit propagating) or a
  // fault awaiting the peer's own detector; severing it would manufacture
  // the dangling-reference configuration (I4) the protocol is supposed to
  // repair. Published so the check is locally evaluable from either end.
  std::vector<NodeId> structural;

  bool has_neighbor(NodeId v) const {
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
  }

  bool considers_structural(NodeId v) const {
    return std::binary_search(structural.begin(), structural.end(), v);
  }

  /// Exact comparison drives the engine's dirty-snapshot propagation: a
  /// publish that changes nothing re-activates no neighbors.
  bool operator==(const PublicState&) const = default;
};

}  // namespace chs::stabilizer
