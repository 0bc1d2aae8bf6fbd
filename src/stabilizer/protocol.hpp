// The self-stabilizing Avatar(Cbt) + network-scaffolded target protocol.
//
// One sim::Engine protocol implementing the whole paper:
//   * fault detection and reset to singleton clusters (§3.2 "Clustering",
//     §4.4 phase selection, detector.cpp),
//   * randomized leader/follower matching epochs between clusters
//     (§3.2 "Matching", cluster.cpp),
//   * pairwise cluster merge via the interval zip (§3.2 "Merging",
//     DESIGN.md D3, merge.cpp),
//   * fragment-granular PIF waves over the guest Cbt (§3.2 "Communication",
//     waves.cpp),
//   * Algorithm 1: MakeFinger waves building the target topology over the
//     scaffold, ring closure through the root, and the DONE wave
//     (§4.3, chord_build.cpp).
//
// The class is one logical unit split across those translation units; all
// handler methods are public so white-box tests can drive individual pieces.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "adversary/behavior.hpp"
#include "sim/engine.hpp"
#include "stabilizer/messages.hpp"
#include "stabilizer/params.hpp"
#include "stabilizer/snapshot.hpp"
#include "stabilizer/state.hpp"
#include "topology/cbt.hpp"

namespace chs::stabilizer {

class Protocol {
 public:
  using Message = stabilizer::Message;
  using NodeState = HostState;
  using PublicState = stabilizer::PublicState;
  /// Struct-of-arrays snapshot storage (DESIGN.md D10): hot scalar fields in
  /// one row array, neighbor lists in a shared slab. Neighbor views become
  /// PublicView values (spans into the slab) instead of PublicState pointers.
  using SnapshotStore = SnapshotArena;
  using Ctx = sim::NodeCtx<Protocol>;

  /// Active-set contract (DESIGN.md D5): every spontaneous (non-message)
  /// action below is announced to the engine via schedule_wakeups, so the
  /// engine may skip quiescent nodes without changing a single trace.
  static constexpr bool kUsesActiveSet = true;

  /// Parallel-rounds contract (DESIGN.md D6): step() confines writes to
  /// ctx.state()/ctx.rng() and the ctx action calls — params_, cbt_, and
  /// num_waves_ are immutable after construction, so one Protocol instance
  /// is safely shared by all worker threads. Per-host caches belong in
  /// HostState (e.g. frags/out_edge_to_entry), never in Protocol members;
  /// per-call scratch vectors are function-local thread_locals, cleared on
  /// entry, carrying nothing from one step to the next.

  explicit Protocol(Params params);

  const Params& params() const { return params_; }

  /// Swap the target topology mid-run (campaign retarget events). Must be
  /// called between rounds — never from step(), which runs concurrently —
  /// and followed by a host-state reset (core::retarget does both): hosts
  /// that already built the old target hold no locally-detectable fault
  /// against the new spec, so they are restarted explicitly and stabilize
  /// from the current topology as an arbitrary initial configuration.
  void set_target(topology::TargetSpec target);

  /// Freeze the protocol: while frozen, step() is a perfect no-op — no
  /// detector, no message processing, no RNG consumption, no wakeups. The
  /// campaign `freeze`/`thaw` timeline events use it to model a whole-
  /// network execution stall; the verification layer uses it to observe
  /// faults the live protocol would repair within a round (a frozen network
  /// forfeits every guarantee, which is exactly what makes injected
  /// invariant violations visible to the oracle). Must be called between
  /// rounds, like set_target; after thawing, re-activate the network with
  /// Engine::republish() — frozen steps scheduled no wakeups.
  void set_frozen(bool frozen) { frozen_ = frozen; }
  bool frozen() const { return frozen_; }

  /// Per-node adversary behaviors (DESIGN.md D11): a sorted (id, kind) list
  /// consulted at the publish and dispatch seams. Like set_frozen, this is
  /// runtime configuration written only between rounds (the campaign runner
  /// installs it at Byzantine-window boundaries and republishes the affected
  /// hosts) and read concurrently by worker threads, which is safe under the
  /// D6 contract. It is *not* serialized: checkpointed snapshots already
  /// contain any published lies, and the campaign reinstalls the policy from
  /// its own (serialized) timeline cursor on restore.
  void set_behaviors(
      std::vector<std::pair<NodeId, adversary::BehaviorKind>> behaviors) {
    CHS_DCHECK(std::is_sorted(behaviors.begin(), behaviors.end()));
    behaviors_ = std::move(behaviors);
  }
  const std::vector<std::pair<NodeId, adversary::BehaviorKind>>& behaviors()
      const {
    return behaviors_;
  }
  adversary::BehaviorKind behavior_of(NodeId id) const {
    if (behaviors_.empty()) return adversary::BehaviorKind::kCorrect;
    const auto it = std::lower_bound(
        behaviors_.begin(), behaviors_.end(), id,
        [](const auto& p, NodeId v) { return p.first < v; });
    if (it != behaviors_.end() && it->first == id) return it->second;
    return adversary::BehaviorKind::kCorrect;
  }

  const topology::Cbt& cbt() const { return cbt_; }
  std::uint32_t num_waves() const { return num_waves_; }
  GuestId guest_root() const { return cbt_.root(); }

  /// Checkpoint/restore (DESIGN.md D9): the only dynamic protocol-level
  /// state is the stall switch — params_, cbt_, and num_waves_ are
  /// configuration, rebuilt by whoever reconstructs the engine.
  template <typename A>
  void persist_fields(A& a) {
    a(frozen_);
  }

  /// Post-restore fixup invoked by Engine::restore for every host: the
  /// fragment geometry is a pure function of the restored range and is
  /// recomputed instead of serialized, so it can never drift from it.
  void on_restore(HostState& st) const { recompute_fragments(st); }

  // --- sim::Engine interface (protocol.cpp) ---
  void init_node(NodeId id, HostState& st, util::Rng& rng);
  void publish(const HostState& st, PublicState& pub);
  void step(Ctx& ctx);
  /// Register a wakeup for every pending timer/deadline in `st`: epoch and
  /// chord sequencer ticks, merge/wave budgets, tolerance-window expiries,
  /// and wave GC. Called at the end of every step; white-box tests may call
  /// it directly.
  void schedule_wakeups(Ctx& ctx) const;

  // --- shared helpers (protocol.cpp) ---
  void recompute_fragments(HostState& st) const;
  /// Fragment entry whose component contains position pos (pos must lie in
  /// the host's range).
  GuestId entry_of(const HostState& st, GuestId pos) const;
  /// Entry of minimum depth (the fragment the host's own payload rides on).
  GuestId topmost_entry(const HostState& st) const;
  /// Structural neighbors in phase kCbt: boundary + parent + succ + pred,
  /// sorted and deduped into `out` (callers pass a reused buffer).
  void structural_neighbors(const HostState& st, std::vector<NodeId>& out) const;
  /// Returns the certificate witness w (path me-w-v in current views), or
  /// kNone when no certificate exists; `structural` is
  /// structural_neighbors(ctx.state()). The engine re-validates the path at
  /// apply time — see Ctx::disconnect's witness parameter.
  NodeId deletion_certificate(Ctx& ctx, std::span<const NodeId> structural,
                              NodeId v) const;
  void classify_and_clean_edges(Ctx& ctx);
  std::vector<NodeId> external_neighbors(Ctx& ctx) const;

  // --- detector.cpp (§4.4, Definition 3, Lemmas 1-2) ---
  bool check_local(Ctx& ctx) const;
  /// Reference check of the map keys against Cbt::crossing_edges(lo, hi):
  /// the fault::k* code of the first failing test, or 0 when the keys
  /// match. Walks the tree; check_local calls it only when the cached
  /// answer below is no.
  int crossing_key_fault(const HostState& st) const;
  /// One-pass check of the same keys against the cached fragment geometry
  /// (DESIGN.md D17): true only if the cache describes the current range
  /// and the keys match it — then crossing_key_fault(st) is 0. On a fresh
  /// cache a false answer means crossing_key_fault(st) faults.
  bool crossing_keys_match_cache(const HostState& st) const;
  void reset_to_singleton(Ctx& ctx);

  // --- waves.cpp ---
  void start_wave(Ctx& ctx, WaveId id);
  void process_wave_entry(Ctx& ctx, const WaveMeta& meta, GuestId entry);
  void handle_wave_down(Ctx& ctx, const MWaveDown& m, NodeId from);
  void handle_wave_fwd(Ctx& ctx, const MWaveFwd& m);
  void handle_wave_up(Ctx& ctx, const MWaveUp& m, NodeId from);
  void handle_wave_tick(Ctx& ctx, const MWaveTick& m);
  void try_complete_fragment(Ctx& ctx, const WaveMeta& meta, GuestId entry);
  void fragment_completed(Ctx& ctx, const WaveMeta& meta, GuestId entry);
  void apply_propagate_action(Ctx& ctx, const WaveMeta& meta);
  void apply_range_actions(Ctx& ctx, const WaveMeta& meta);
  void wave_completed_at_root(Ctx& ctx, const WaveMeta& meta, const WaveAgg& agg);
  void gc_waves(Ctx& ctx);

  // --- cluster.cpp (matching epochs) ---
  void epoch_tick(Ctx& ctx);
  void start_epoch(Ctx& ctx);
  void poll_completed(Ctx& ctx, const WaveAgg& agg);
  void lead_match(Ctx& ctx);
  void handle_follow_go(Ctx& ctx, const MFollowGo& m, NodeId from);
  void handle_merge_req_hop(Ctx& ctx, const MMergeReqHop& m, NodeId from);
  void handle_match_grant(Ctx& ctx, const MMatchGrant& m, NodeId from);
  void handle_merge_propose(Ctx& ctx, const MMergePropose& m, NodeId from);
  void handle_merge_ack(Ctx& ctx, const MMergeAck& m, NodeId from);

  // --- merge.cpp (interval zip) ---
  void begin_zip(Ctx& ctx, NodeId peer_root, std::uint64_t nonce);
  void join_zip(Ctx& ctx, NodeId peer_cluster, std::uint64_t nonce);
  void handle_zip_start(Ctx& ctx, const MZipStart& m, NodeId from);
  void handle_zip_step(Ctx& ctx, const MZipStep& m, NodeId from);
  void handle_zip_phase2(Ctx& ctx, const MZipPhase2& m);
  void handle_zip_done(Ctx& ctx, const MZipDone& m, NodeId from);
  void handle_zip_retire(Ctx& ctx, const MZipRetire& m);
  void handle_zip_bye(Ctx& ctx, const MZipBye& m, NodeId from);
  /// True iff this host has no remaining use for its zip edge to `node`.
  bool zip_edge_unneeded(Ctx& ctx, NodeId node) const;
  /// Reference counting of zip counterpart edges (transient-degree bound).
  void zip_ref(HostState& st, NodeId node);
  void zip_unref(Ctx& ctx, NodeId node);
  void handle_merge_commit(Ctx& ctx, const MMergeCommit& m, NodeId from);
  void resolve_step(Ctx& ctx, GuestId pos);
  void maybe_report_done(Ctx& ctx, GuestId pos);
  /// My cluster's candidate host for position pos (me, or a boundary host).
  NodeId child_candidate(const HostState& st, GuestId pos) const;
  void send_zip_step(Ctx& ctx, GuestId pos);
  void record_interval_outcome(Ctx& ctx, const CbtInterval& iv, NodeId winner,
                               NodeId parent_winner);
  void observe_peer_id(HostState& st, NodeId peer_id);
  void apply_commit(Ctx& ctx, std::uint64_t nonce, NodeId new_cluster);

  // --- chord_build.cpp (Algorithm 1) ---
  void chord_sequencer(Ctx& ctx);
  void make_finger_actions(Ctx& ctx, std::int32_t k);
  void handle_ring_note(Ctx& ctx, const MRingNote& m);
  void handle_finger_note(Ctx& ctx, const MFingerNote& m, NodeId from);
  void apply_done_prune(Ctx& ctx);
  /// Assign host to target interval [tlo, thi) mod N in the level-k map.
  static void assign_mod(util::IntervalMap<NodeId>& map, std::uint64_t tlo,
                         std::uint64_t thi, NodeId host, std::uint64_t n);
  /// True iff some source a in [s0, s1) keeps its span-2^k edge.
  bool any_kept(std::uint64_t s0, std::uint64_t s1, std::uint32_t k) const;

 private:
  void step_impl(Ctx& ctx);
  void dispatch(Ctx& ctx, const sim::Envelope<Message>& env);

  Params params_;
  topology::Cbt cbt_;
  std::uint32_t num_waves_;
  // Runtime stall switch (set_frozen). Written only between rounds; read
  // concurrently by steps, which is safe under the D6 contract because the
  // engine's serial phases order the write before every subsequent step.
  bool frozen_ = false;
  // Adversary behavior policy (set_behaviors): sorted by id, same
  // written-between-rounds discipline as frozen_. Empty = everyone correct.
  std::vector<std::pair<NodeId, adversary::BehaviorKind>> behaviors_;
};

using StabEngine = sim::Engine<Protocol>;

}  // namespace chs::stabilizer
