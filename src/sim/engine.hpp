// Synchronous message-passing overlay-network simulator (§2.1 of the paper).
//
// Computation proceeds in synchronous rounds. In round r each node
//   1. receives every message sent to it in round r-1,
//   2. reads the *previous-round* public state of each current neighbor
//      (the paper's "nodes exchange their local state" — see DESIGN.md D4),
//   3. executes protocol actions: mutate its own state, send messages to
//      current neighbors, and request edge mutations.
// Edge mutations follow the overlay model: a node may delete any incident
// edge, and may *introduce* two of its current neighbors to each other
// (creating the edge between them). All sends and mutations are validated
// against the topology as it stood at the start of the round and applied
// between rounds, so the round is atomic and order-independent.
//
// The engine is templated on a Protocol type providing:
//   struct Message;                          // copyable payload
//   struct NodeState;                        // full per-node state
//   struct PublicState;                      // the part neighbors can read
//   void init_node(NodeId, NodeState&, util::Rng&);
//   void publish(const NodeState&, PublicState&);
//   void step(NodeCtx<Protocol>&);           // one round for one node
//
// Internally the engine is layered (DESIGN.md D5, D6):
//   * CalendarQueue (scheduler.hpp) — one shared bucket ring each for
//     delayed deliveries, held self-messages, and wakeups;
//   * MailboxPool (mailbox.hpp)     — inbox arenas, one clear point/round;
//   * dirty-snapshot publishing     — Protocol::publish runs only for nodes
//     whose state may have changed (stepped or externally mutated);
//     republish() stays as the full-refresh fault-injection fallback;
//   * active-set round loop         — in StepMode::kActiveSet only nodes
//     with deliveries, due wakeups, incident topology deltas, or changed
//     neighbor snapshots are stepped. A protocol opts in by declaring
//     `static constexpr bool kUsesActiveSet = true` and registering
//     wakeups (NodeCtx::request_wakeup) for every spontaneous, timer-driven
//     action; protocols without the trait run in StepMode::kAll, which is
//     round-for-round identical to the classic step-everyone loop;
//   * deterministic parallel rounds — set_worker_threads(k) shards the
//     stepped set and the dirty-publish set across a persistent WorkerPool.
//     Protocol actions are recorded into per-shard ActionBuffers and merged
//     in ascending node-index order, so the applied action order — and
//     therefore every trace — is bit-for-bit identical to the sequential
//     engine at any thread count (DESIGN.md D6);
//   * idle fast-forward (opt-in)    — set_idle_fast_forward(true) lets a
//     round in which nothing is active and nothing is due jump straight to
//     the next scheduled calendar event, making fully idle gap rounds O(1)
//     in aggregate while preserving round numbering, metrics, and traces.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "persist/io.hpp"
#include "sim/mailbox.hpp"
#include "sim/metrics.hpp"
#include "sim/profile.hpp"
#include "sim/scheduler.hpp"
#include "sim/snapshot.hpp"
#include "sim/worker_pool.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace chs::sim {

using graph::NodeId;
using graph::NodeIndex;

/// Sentinel for EdgeDel::witness: the deletion carries no connectivity
/// certificate and is applied unconditionally.
inline constexpr NodeId kNoWitness = ~NodeId{0};

/// How step_round selects the nodes to step.
enum class StepMode : std::uint8_t {
  kAll,        // classic loop: every node, every round
  kActiveSet,  // only nodes with a reason to act (requires protocol support)
};

namespace detail {
template <typename P>
constexpr bool protocol_uses_active_set() {
  if constexpr (requires { P::kUsesActiveSet; }) {
    return P::kUsesActiveSet;
  } else {
    return false;
  }
}
}  // namespace detail

template <typename P>
class Engine;

/// One applied topology mutation, as reported to a round observer: protocol
/// edge actions and external inject_edge / inject_edge_removal calls alike.
/// Recorded only while an observer is installed.
struct EdgeDelta {
  NodeId u = 0, v = 0;
  bool removed = false;
};

/// Per-shard record of the protocol actions emitted while stepping
/// (DESIGN.md D6). NodeCtx appends here instead of mutating the engine, so
/// steps are data-parallel; the engine merges buffers in shard order (=
/// ascending node-index order) after the step phase, which reproduces the
/// sequential engine's application order exactly. Kinds are stored in
/// separate arenas: the only orders that matter downstream are per-calendar
/// and per-mutation-list, each of which sees one kind.
template <typename M>
struct ActionBuffer {
  struct Send {
    NodeIndex from, to;
    M msg;
  };
  struct Hold {
    NodeIndex self;
    std::uint64_t due;
    M msg;
  };
  struct Wakeup {
    NodeIndex self;
    std::uint64_t due;
  };
  struct EdgeAdd {
    NodeId a, b;
  };
  struct EdgeDel {
    NodeId a, b;
    const char* site;  // deletions carry provenance for edge-delete tracing
    // Connectivity certificate (kNoWitness = none): the deleter saw the
    // path a-witness-b in its (one-round-stale) views. The engine re-checks
    // that path against the live graph at apply time and drops the delete
    // if it has vanished — a concurrent churn or deletion may have removed
    // a certificate edge after the decision was made, and committing the
    // delete anyway can disconnect the network.
    NodeId witness;
  };

  std::vector<Send> sends;
  std::vector<Hold> holds;
  std::vector<Wakeup> wakeups;
  std::vector<EdgeAdd> introduces;
  std::vector<EdgeDel> disconnects;

  /// Protocol actions recorded (wakeups excluded — they are bookkeeping,
  /// invisible to metrics and quiescence detection).
  std::uint64_t actions() const {
    return sends.size() + holds.size() + introduces.size() +
           disconnects.size();
  }

  void clear() {  // keeps capacities: the arenas are reused every round
    sends.clear();
    holds.clear();
    wakeups.clear();
    introduces.clear();
    disconnects.clear();
  }
};

/// Per-node, per-round view handed to Protocol::step.
template <typename P>
class NodeCtx {
 public:
  using Message = typename P::Message;
  using NodeState = typename P::NodeState;
  using PublicState = typename P::PublicState;
  using SnapshotView = typename detail::snapshot_store_t<P>::View;

  NodeId self() const { return self_; }
  std::uint64_t round() const { return round_; }
  NodeState& state() { return *state_; }
  const NodeState& state() const { return *state_; }
  util::Rng& rng() { return *rng_; }

  /// Messages delivered this round (sent last round), sender order.
  std::span<const Envelope<Message>> inbox() const { return inbox_; }

  /// Neighbor ids as of the start of this round (sorted).
  const std::vector<NodeId>& neighbors() const { return *neighbors_; }

  bool is_neighbor(NodeId v) const {
    return std::binary_search(neighbors_->begin(), neighbors_->end(), v);
  }

  /// Previous-round public state of neighbor v; a false-y view (null
  /// pointer for the default store, invalid PublicView for arena stores) if
  /// v is not a neighbor. One binary search over the neighbor list finds
  /// v's slot, which also holds v's NodeIndex (DESIGN.md D15). The last
  /// lookup is memoized: protocols typically probe the same neighbor from
  /// several checks within one step, and the repeat would cost that search
  /// plus the view build (an arena store copies the whole hot row).
  SnapshotView view(NodeId v) const {
    if (v == view_cache_id_) return view_cache_;
    const std::size_t k = slot_of(v);
    SnapshotView p = k != kNoSlot
                         ? engine_->store_.view((*neighbor_indices_)[k])
                         : SnapshotView{};
    view_cache_id_ = v;
    view_cache_ = p;
    return p;
  }

  /// Send a message over an existing edge (or to self); delivered after the
  /// engine's message delay (1 round by default). The recipient's index
  /// comes from the same neighbor-list slot that proves the edge exists.
  void send(NodeId to, Message m) {
    NodeIndex to_idx = self_idx_;
    if (to != self_) {
      const std::size_t k = slot_of(to);
      CHS_CHECK_MSG(k != kNoSlot, "send to a non-neighbor");
      to_idx = (*neighbor_indices_)[k];
    }
    acts_->sends.push_back({self_idx_, to_idx, std::move(m)});
  }

  /// Deliver a message to self after `delay` rounds (>= 1). Used to pace
  /// multi-guest-level wave processing inside one host (DESIGN.md D2).
  void hold(Message m, std::uint64_t delay) {
    CHS_CHECK(delay >= 1);
    acts_->holds.push_back({self_idx_, round_ + delay, std::move(m)});
  }

  /// Ask to be stepped again in `delay` rounds (>= 1) even if no message
  /// arrives. Active-set protocols must call this for every spontaneous
  /// (timer- or deadline-driven) action; it is a no-op signal otherwise —
  /// never an action, never delivers a message.
  void request_wakeup(std::uint64_t delay) {
    CHS_CHECK(delay >= 1);
    acts_->wakeups.push_back({self_idx_, round_ + delay});
  }

  /// Connect two of this node's current neighbors by a new logical edge.
  /// Validated here, against the start-of-round topology the step is
  /// reading anyway; the request itself is applied between rounds.
  void introduce(NodeId a, NodeId b, const char* site = "?") {
    CHS_CHECK_MSG(a != b, "introduce(a, a)");
    const bool a_ok = a == self_ || is_neighbor(a);
    const bool b_ok = b == self_ || is_neighbor(b);
    if (!(a_ok && b_ok)) {
      std::fprintf(stderr,
                   "introduce of non-neighbors: self=%llu a=%llu(%d) "
                   "b=%llu(%d) round=%llu site=%s\n",
                   static_cast<unsigned long long>(self_),
                   static_cast<unsigned long long>(a), int(a_ok),
                   static_cast<unsigned long long>(b), int(b_ok),
                   static_cast<unsigned long long>(round_), site);
      CHS_CHECK_MSG(false, "introduce of non-neighbors");
    }
    acts_->introduces.push_back({a, b});
  }

  /// Delete the edge between self and v. The edge may already have been
  /// deleted by the other endpoint in an earlier round; the request is then
  /// a no-op at apply time.
  /// `witness` (optional) names a node w such that the caller's views
  /// showed the path self-w-v; the engine validates that path still exists
  /// when the deferred delete is applied and drops the delete otherwise
  /// (see ActionBuffer::EdgeDel::witness).
  void disconnect(NodeId v, const char* site = "?",
                  NodeId witness = kNoWitness) {
    acts_->disconnects.push_back({self_, v, site, witness});
  }

  /// Debug: who last requested deletion of edge (self, v), if recorded.
  /// Requires Engine::set_edge_delete_tracing(true).
  const char* last_delete_site(NodeId v) const {
    return engine_->last_delete_site(self_, v);
  }

 private:
  friend class Engine<P>;
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// Position of v in the neighbor list, or kNoSlot.
  std::size_t slot_of(NodeId v) const {
    const auto it = std::lower_bound(neighbors_->begin(), neighbors_->end(), v);
    return it != neighbors_->end() && *it == v
               ? static_cast<std::size_t>(it - neighbors_->begin())
               : kNoSlot;
  }

  NodeId self_ = 0;
  NodeIndex self_idx_ = 0;
  std::uint64_t round_ = 0;
  NodeState* state_ = nullptr;
  util::Rng* rng_ = nullptr;
  std::span<const Envelope<Message>> inbox_;
  const std::vector<NodeId>* neighbors_ = nullptr;
  const std::vector<NodeIndex>* neighbor_indices_ = nullptr;  // slot for slot
  Engine<P>* engine_ = nullptr;
  ActionBuffer<Message>* acts_ = nullptr;
  mutable NodeId view_cache_id_ = ~NodeId{0};
  mutable SnapshotView view_cache_{};
};

template <typename P>
class Engine {
 public:
  using Message = typename P::Message;
  using NodeState = typename P::NodeState;
  using PublicState = typename P::PublicState;
  using Store = detail::snapshot_store_t<P>;

  Engine(graph::Graph g, P protocol, std::uint64_t seed)
      : graph_(std::move(g)), protocol_(std::move(protocol)), root_rng_(seed) {
    const std::size_t n = graph_.size();
    states_.resize(n);
    store_.init(n);
    mail_.init(n);
    woken_mark_.assign(n, 0);
    dirty_mark_.assign(n, 0);
    ckpt_dirty_mark_.assign(n, 0);
    rngs_.reserve(n);
    delay_rngs_.reserve(n);
    slots_.resize(1);
    if constexpr (detail::protocol_uses_active_set<P>()) {
      step_mode_ = StepMode::kActiveSet;
    }
    for (NodeIndex i = 0; i < n; ++i) {
      rngs_.push_back(root_rng_.split(graph_.id_of(i)));
      protocol_.init_node(graph_.id_of(i), states_[i], rngs_[i]);
    }
    // Per-sender message-delay streams (DESIGN.md D6): splitting by a salted
    // id keeps them independent of the per-node protocol streams above and
    // of each other, and — unlike the old draw from the shared root RNG in
    // global send order — independent of every other node's send count.
    for (NodeIndex i = 0; i < n; ++i) {
      delay_rngs_.push_back(root_rng_.split(graph_.id_of(i) ^ kDelayStreamSalt));
    }
    republish();
    metrics_.observe_initial(graph_);
  }

  const graph::Graph& graph() const { return graph_; }
  P& protocol() { return protocol_; }
  const P& protocol() const { return protocol_; }
  std::uint64_t round() const { return round_; }
  RunMetrics& metrics() { return metrics_; }
  const RunMetrics& metrics() const { return metrics_; }

  StepMode step_mode() const { return step_mode_; }

  /// Force a step mode. Switching to kActiveSet re-activates every node so
  /// protocols (re)establish their wakeup schedules.
  void set_step_mode(StepMode mode) {
    step_mode_ = mode;
    if (mode == StepMode::kActiveSet) wake_all();
  }

  /// Deterministic parallel rounds (DESIGN.md D6): step and publish with k
  /// workers (k - 1 pool threads plus the calling thread). Traces are
  /// bit-for-bit identical at every k; the knob trades wall clock only.
  /// Protocol::step must not mutate protocol members or any state other
  /// than its own NodeCtx (the engine contract already demands this for
  /// order-independence; parallelism additionally outlaws hidden caches).
  void set_worker_threads(std::size_t k) {
    CHS_CHECK(k >= 1);
    worker_threads_ = k;
    pool_.resize(k - 1);
    if (slots_.size() < k) slots_.resize(k);
  }
  std::size_t worker_threads() const { return worker_threads_; }

  /// Idle fast-forward: when nothing is active and nothing is due, jump
  /// round_ straight to the next scheduled calendar event instead of
  /// iterating empty rounds. Round numbering, metrics, and traces are
  /// preserved exactly; what changes is that one step_round() call may
  /// advance round() by more than one. Off by default because harnesses
  /// that call step_round() a fixed number of times rely on one call
  /// advancing exactly one round.
  void set_idle_fast_forward(bool on) { idle_fast_forward_ = on; }
  bool idle_fast_forward() const { return idle_fast_forward_; }

  const NodeState& state(NodeId id) const { return states_[graph_.index_of(id)]; }

  /// Mutable state access for fault injection and harness glue. Marks the
  /// node dirty (its snapshot republishes at the end of the next round) and
  /// active (it will be stepped), so external mutation is never missed by
  /// the active-set loop.
  NodeState& state_mut(NodeId id) {
    const NodeIndex i = graph_.index_of(id);
    mark_dirty(i);
    wake(i);
    return states_[i];
  }

  /// Refresh every public snapshot and re-activate every node; the
  /// full-strength fallback after arbitrary external mutation.
  void republish() {
    for (NodeIndex i = 0; i < graph_.size(); ++i) {
      store_.publish_now(protocol_, states_[i], i);
    }
    metrics_.count_snapshots(graph_.size());
    wake_all();
  }

  /// Targeted refresh after mutating a single node's state: publish its
  /// snapshot immediately (visible to neighbor views next round) and
  /// re-activate it plus its neighbors. Equivalent to republish() when no
  /// other node's state changed, without the O(n) sweep.
  void republish(NodeId id) {
    const NodeIndex i = graph_.index_of(id);
    store_.publish_now(protocol_, states_[i], i);
    metrics_.count_snapshots(1);
    wake(i);
    for (NodeIndex nb : graph_.neighbor_indices(i)) wake(nb);
  }

  /// Direct topology mutation for fault injection; bypasses overlay rules.
  /// Both endpoints are re-activated so they observe the delta.
  bool inject_edge(NodeId u, NodeId v) {
    if (!graph_.add_edge(u, v)) return false;
    topo_changed_ = ckpt_topo_changed_ = true;
    wake(graph_.index_of(u));
    wake(graph_.index_of(v));
    record_delta(u, v, false);
    return true;
  }
  bool inject_edge_removal(NodeId u, NodeId v) {
    if (!graph_.remove_edge(u, v)) return false;
    topo_changed_ = ckpt_topo_changed_ = true;
    wake(graph_.index_of(u));
    wake(graph_.index_of(v));
    record_delta(u, v, true);
    return true;
  }

  /// Asynchrony model (§7 future work): each message is delayed uniformly
  /// in [1, d] rounds instead of exactly 1. Channels stay reliable and
  /// FIFO-per-round; protocol budgets should be scaled via
  /// Params::delay_slack to match. Delays are drawn from the per-sender
  /// streams at apply time, so traces do not depend on worker count.
  void set_max_message_delay(std::uint32_t d) {
    CHS_CHECK(d >= 1);
    max_delay_ = d;
  }

  /// Per-round delivery filter (DESIGN.md D7): fault-injection hook for
  /// message loss and network partitions. When installed, it is consulted
  /// once per network delivery due this round — return false to drop the
  /// message. Self-deliveries (from == to) never cross the network and are
  /// exempt; held self-messages (NodeCtx::hold) are intra-host and likewise
  /// never filtered.
  ///
  /// Threading contract: the filter runs on the engine's calling thread
  /// during the serial release phase, *before* the round's parallel step
  /// phase, in calendar drain order (deterministic). It may therefore keep
  /// unsynchronized state (e.g. an RNG stream for probabilistic loss) and
  /// still yield bit-for-bit identical traces at any set_worker_threads(k).
  using DeliveryFilter =
      std::function<bool(NodeId from, NodeId to, std::uint64_t round)>;
  void set_delivery_filter(DeliveryFilter f) {
    delivery_filter_ = std::move(f);
  }
  bool has_delivery_filter() const {
    return static_cast<bool>(delivery_filter_);
  }

  /// Per-edge message-delay sampler (DESIGN.md D11): replaces the default
  /// uniform-[1, d] law with an arbitrary distribution over the same
  /// per-sender RNG streams. The sampler runs in the serial apply phase
  /// (after the D6 shard merge, in ascending shard order), sees the
  /// sender's own delay stream, and must return a value in [1, d]; because
  /// each sender's draws still happen in the sequential action order,
  /// traces stay bit-identical at any worker count. Like the delivery
  /// filter, this is process-level configuration — not engine state — and
  /// is neither saved by checkpoint() nor touched by restore().
  using DelaySampler = std::function<std::uint64_t(
      NodeId from, NodeId to, std::uint32_t max_delay, util::Rng& rng)>;
  void set_delay_sampler(DelaySampler f) { delay_sampler_ = std::move(f); }
  bool has_delay_sampler() const { return static_cast<bool>(delay_sampler_); }

  /// End-of-round observer (verification hook — see src/verify/). When
  /// installed, it is invoked exactly once per executed round, after the
  /// publish phase, with the round number, the indices of every node whose
  /// state may have changed since the previous observation (stepped this
  /// round or externally mutated via state_mut — ascending order), and
  /// every topology mutation applied since the previous observation
  /// (protocol edge actions and external inject_edge / inject_edge_removal
  /// alike). Rounds skipped by the idle fast-forward are provably empty and
  /// are not observed individually.
  ///
  /// Threading contract: like the delivery filter, the observer runs on the
  /// engine's calling thread in a serial phase — after the D6 shard merge —
  /// so it may keep unsynchronized state and reads are bit-for-bit
  /// reproducible at any set_worker_threads(k). When no observer is
  /// installed the engine records nothing: the hook costs one branch per
  /// round and per applied edge mutation.
  using RoundObserver = std::function<void(
      std::uint64_t round, std::span<const NodeIndex> dirty,
      std::span<const EdgeDelta> edge_deltas)>;
  void set_round_observer(RoundObserver f) {
    round_observer_ = std::move(f);
    if (!round_observer_) observed_deltas_.clear();
  }
  bool has_round_observer() const {
    return static_cast<bool>(round_observer_);
  }

  /// Compose a second observer behind whatever is already installed
  /// (observability hook — see src/obs/). The engine keeps a single
  /// observer slot; chaining wraps the current one so both run, previous
  /// first, in the same serial phase with the same spans. set_round_observer
  /// replaces the whole chain — callers that chain (e.g. the flight
  /// recorder) must install *after* any set_round_observer owner (e.g. the
  /// oracle) and accept that the owner's teardown removes the chain too.
  void chain_round_observer(RoundObserver f) {
    if (!f) return;
    if (!round_observer_) {
      round_observer_ = std::move(f);
      return;
    }
    round_observer_ = [prev = std::move(round_observer_), next = std::move(f)](
                          std::uint64_t round,
                          std::span<const NodeIndex> dirty,
                          std::span<const EdgeDelta> deltas) {
      prev(round, dirty, deltas);
      next(round, dirty, deltas);
    };
  }

  /// Arm wall-clock phase profiling (sim/profile.hpp): every subsequent
  /// step_round charges per-phase nanoseconds into *p. Like the worker-count
  /// knob this is process configuration, not simulation state — it is never
  /// checkpointed and has zero effect on traces, metrics, or report bytes.
  /// Pass nullptr to disarm (the default costs one branch per phase).
  void set_profiler(RoundProfile* p) { profile_ = p; }

  /// Record which protocol site requested each applied edge deletion
  /// (ctx.last_delete_site). Off by default: the record grows with every
  /// deletion ever applied, which is unbounded under churn.
  void set_edge_delete_tracing(bool on) {
    edge_trace_ = on;
    if (!on) last_delete_.clear();
  }

  /// Execute one synchronous round (or, with idle fast-forward enabled,
  /// one active round preceded by any number of provably empty ones).
  void step_round() {
    PhaseTimer prof(profile_);
    round_actions_ = 0;
    if (idle_fast_forward_ && step_mode_ == StepMode::kActiveSet &&
        woken_.empty()) {
      fast_forward_idle_gap();
    }
    mail_.begin_round();

    // --- release: wakeups, then held self-messages, then delayed sends.
    // Holds-before-sends reproduces the seed's per-node inbox order.
    wakeups_.drain_due(round_, [&](NodeIndex i) { wake(i); });
    holds_.drain_due(round_, [&](HoldEvent&& h) {
      wake(h.to);
      mail_.deliver(h.to, Envelope<Message>{graph_.id_of(h.to), std::move(h.msg)});
    });
    delayed_.drain_due(round_, [&](SendEvent&& s) {
      if (delivery_filter_) {
        const NodeId to_id = graph_.id_of(s.to);
        if (s.env.from != to_id &&
            !delivery_filter_(s.env.from, to_id, round_)) {
          metrics_.count_message_dropped();
          return;  // dropped: no delivery, and the recipient is not woken
        }
      }
      wake(s.to);
      mail_.deliver(s.to, std::move(s.env));
    });

    // --- select this round's step set (ascending index order: scheduling
    // order inside the calendars, and thus determinism, depends on it).
    stepped_.clear();
    if (step_mode_ == StepMode::kAll) {
      for (NodeIndex i = 0; i < graph_.size(); ++i) stepped_.push_back(i);
      for (NodeIndex i : woken_) woken_mark_[i] = 0;
      woken_.clear();
    } else {
      stepped_.swap(woken_);
      for (NodeIndex i : stepped_) woken_mark_[i] = 0;
      std::sort(stepped_.begin(), stepped_.end());
    }

    // --- step against the start-of-round topology and snapshots, sharded
    // across the worker pool. Each shard is a contiguous slice of stepped_
    // and fills its own ActionBuffer; nothing engine-owned mutates until
    // the deterministic merge below. The single-shard case runs inline —
    // no dispatch, no std::function — so the quiescent round stays as
    // cheap as PR 1 left it.
    prof.lap(RoundPhase::kScan);
    if (!stepped_.empty()) {
      const std::size_t shards = shard_count(stepped_.size());
      if (shards == 1) {
        ActionBuffer<Message>& buf = slots_[0].acts;
        for (NodeIndex i : stepped_) step_node(i, buf);
        prof.lap(RoundPhase::kStep);
        apply_actions(buf);
      } else {
        pool_.run(shards, [&](std::size_t s) {
          const auto [b, e] = shard_range(stepped_.size(), shards, s);
          ActionBuffer<Message>& buf = slots_[s].acts;
          for (std::size_t k = b; k < e; ++k) step_node(stepped_[k], buf);
        });
        prof.lap(RoundPhase::kStep);
        // Merge in shard order == ascending node-index order == the exact
        // order the sequential engine applied actions in.
        for (std::size_t s = 0; s < shards; ++s) apply_actions(slots_[s].acts);
      }
    } else {
      prof.lap(RoundPhase::kStep);
    }

    // --- apply deferred edge mutations (deletes first, so an introduce in
    // the same round re-creates deliberately).
    for (std::size_t di = 0; di < pending_deletes_.size(); ++di) {
      const auto& [u, v] = pending_deletes_[di];
      // Commit-time certificate validation: the deleter promised the path
      // u-w-v as the reason (u, v) is safe to drop. Deletes are deferred a
      // whole round, so a concurrent external removal (churn, fault) or an
      // earlier delete in this very batch may have severed that path; the
      // batch applies sequentially, so each check sees all prior deletes.
      // A dropped delete is not lost work — the junk edge survives one more
      // round and the owner re-certifies against fresh views. Both endpoints
      // are re-activated exactly as if the delete had committed: in
      // active-set mode nothing else would re-step the owner (its state did
      // not change), and the junk edge would linger until an unrelated
      // wakeup — breaking the D5 kAll/kActiveSet trace equivalence.
      if (const NodeId w = pending_delete_witnesses_[di]; w != kNoWitness) {
        if (!graph_.has_edge(u, w) || !graph_.has_edge(w, v)) {
          metrics_.count_stale_cert_drop();
          wake(graph_.index_of(u));
          wake(graph_.index_of(v));
          continue;
        }
      }
      if (graph_.remove_edge(u, v)) {
        metrics_.count_edge_del();
        topo_changed_ = ckpt_topo_changed_ = true;
        wake(graph_.index_of(u));
        wake(graph_.index_of(v));
        record_delta(u, v, true);
        if (edge_trace_) record_delete_site(u, v, pending_delete_sites_[di]);
      }
    }
    pending_delete_sites_.clear();
    pending_delete_witnesses_.clear();
    for (const auto& [u, v] : pending_adds_) {
      if (graph_.add_edge(u, v)) {
        metrics_.count_edge_add();
        topo_changed_ = ckpt_topo_changed_ = true;
        wake(graph_.index_of(u));
        wake(graph_.index_of(v));
        record_delta(u, v, false);
      }
    }
    pending_deletes_.clear();
    pending_adds_.clear();
    CHS_DCHECK(graph_.indices_consistent());
    prof.lap(RoundPhase::kApply);

    // --- dirty-snapshot publish: only nodes whose state may have changed
    // (stepped this round, or externally mutated via state_mut). Sharded
    // like the step phase; per-shard wake lists are merged in shard order,
    // which again equals the sequential engine's order.
    for (NodeIndex i : stepped_) mark_dirty(i);
    std::sort(dirty_.begin(), dirty_.end());
    if (!dirty_.empty()) {
      const std::size_t shards = shard_count(dirty_.size());
      store_.begin_publish(shards);
      const auto publish_range = [&](std::size_t b, std::size_t e,
                                     std::size_t s) {
        WorkerSlot& slot = slots_[s];
        for (std::size_t k = b; k < e; ++k) {
          const NodeIndex i = dirty_[k];
          dirty_mark_[i] = 0;
          if (step_mode_ == StepMode::kActiveSet) {
            publish_and_collect(i, slot, s);
          } else {
            store_.publish(protocol_, states_[i], i, s);
          }
        }
      };
      if (shards == 1) {
        publish_range(0, dirty_.size(), 0);
      } else {
        pool_.run(shards, [&](std::size_t s) {
          const auto [b, e] = shard_range(dirty_.size(), shards, s);
          publish_range(b, e, s);
        });
      }
      for (std::size_t s = 0; s < shards; ++s) {
        for (NodeIndex i : slots_[s].wake) wake(i);
        slots_[s].wake.clear();
      }
      store_.finish_publish();
      metrics_.count_snapshots(dirty_.size());
      // dirty_ is cleared at the end of the round (the marks are already
      // zeroed above): the round observer reads it first.
    }

    const std::uint64_t deliveries = mail_.delivered_this_round();
    mail_.end_round();
    prof.lap(RoundPhase::kPublish);

    metrics_.observe_round(graph_, round_actions_, stepped_.size(),
                           topo_changed_);
    metrics_.observe_scheduler(pending_events(), peak_bucket_occupancy());
    if (round_observer_) {
      round_observer_(round_, std::span<const NodeIndex>(dirty_),
                      std::span<const EdgeDelta>(observed_deltas_));
      observed_deltas_.clear();
    }
    // Fold this round's dirty set into the incremental-checkpoint touched
    // set (DESIGN.md D10) before it is cleared. Stepped nodes are a subset
    // of dirty_, so this also covers every per-node RNG advance: protocol
    // streams draw only inside step(), delay streams only for senders, and
    // both imply the node stepped — and was marked dirty — this round.
    for (NodeIndex i : dirty_) ckpt_mark(i);
    dirty_.clear();
    topo_changed_ = false;
    if (round_actions_ == 0 && deliveries == 0 && !holds_pending()) {
      ++quiescent_streak_;
    } else {
      quiescent_streak_ = 0;
    }
    prof.lap(RoundPhase::kObserver);
    prof.finish();
    ++round_;
  }

  /// Debug: which protocol site last requested deletion of edge {a, b}
  /// (requires set_edge_delete_tracing). Public so diagnostic harnesses and
  /// the verification layer can attribute a missing edge without a NodeCtx.
  const char* last_delete_site(NodeId a, NodeId b) {
    if (!edge_trace_) return "(untracked)";
    auto it = last_delete_.find(std::minmax(a, b));
    return it == last_delete_.end() ? "(none)" : it->second;
  }

  /// Consecutive fully-silent rounds (no deliveries, holds, or actions).
  std::uint64_t quiescent_streak() const { return quiescent_streak_; }

  /// Nodes stepped in the most recent round (n in StepMode::kAll).
  std::size_t last_stepped() const { return stepped_.size(); }

  /// Events (deliveries + holds + wakeups) currently scheduled.
  std::size_t pending_events() const {
    return delayed_.size() + holds_.size() + wakeups_.size();
  }

  /// Held self-messages currently scheduled (D2 pacing); the persist tests
  /// use this to pin checkpoints that land on a pending multi-round hold.
  std::size_t pending_holds() const { return holds_.size(); }

  std::size_t peak_bucket_occupancy() const {
    return std::max({delayed_.peak_bucket_occupancy(),
                     holds_.peak_bucket_occupancy(),
                     wakeups_.peak_bucket_occupancy()});
  }

  /// Run until `done(*this)` holds or max_rounds elapse. Returns the number
  /// of rounds executed and whether the predicate was satisfied.
  template <typename Pred>
  std::pair<std::uint64_t, bool> run_until(Pred&& done, std::uint64_t max_rounds) {
    const std::uint64_t start = round_;
    while (round_ - start < max_rounds) {
      if (done(*this)) return {round_ - start, true};
      step_round();
    }
    return {round_ - start, done(*this)};
  }

  // --- checkpoint / deterministic resume (DESIGN.md D9) ---------------------

  /// Serialize the complete dynamic simulation state: round counter, the
  /// three calendars (due rounds and FIFO order verbatim), mailbox arenas,
  /// topology, every per-node protocol and delay RNG stream, node states and
  /// public snapshots, the active set, and RunMetrics. A run restored from
  /// this blob continues with traces, metrics, and derived report bytes
  /// bit-for-bit identical to the uninterrupted run, at any worker count.
  ///
  /// Must be called between rounds (outside step_round). Wall-clock and
  /// debug configuration — worker threads, idle fast-forward, delivery
  /// filter, round observer, edge-delete tracing — is deliberately *not*
  /// state and is neither saved nor touched by restore: it belongs to the
  /// process hosting the run, not to the run.
  ///
  /// If the protocol declares `persist_fields(A&)`, its between-round
  /// dynamic knobs (e.g. the stabilizer's frozen flag) ride along; protocol
  /// *configuration* (Params, target) is the caller's job — restore onto an
  /// engine rebuilt with the same recipe.
  void checkpoint(persist::Writer& w) {
    CHS_CHECK_MSG(pending_adds_.empty() && pending_deletes_.empty(),
                  "checkpoint must be taken between rounds");
    w.begin_section(persist::tag4("GRPH"));
    w(graph_);
    w.end_section();
    w.begin_section(persist::tag4("ENGN"));
    w(round_);
    w(round_actions_);
    w(quiescent_streak_);
    w(step_mode_);
    w(max_delay_);
    w(root_rng_);
    w(rngs_);
    w(delay_rngs_);
    w(woken_);
    w(stepped_);
    w(dirty_);
    w.end_section();
    w.begin_section(persist::tag4("CALS"));
    w(delayed_);
    w(holds_);
    w(wakeups_);
    w.end_section();
    w.begin_section(persist::tag4("MAIL"));
    w(mail_);
    w.end_section();
    w.begin_section(persist::tag4("STAT"));
    w(states_);
    w.end_section();
    w.begin_section(persist::tag4("PUBS"));
    store_.save(w);  // canonical per-node layout, store-independent
    w.end_section();
    w.begin_section(persist::tag4("METR"));
    w(metrics_);
    w.end_section();
    w.begin_section(persist::tag4("PROT"));
    if constexpr (requires(persist::Writer& a) { protocol_.persist_fields(a); }) {
      w(protocol_);
    }
    w.end_section();
  }

  /// Restore a checkpoint taken by checkpoint() onto this engine. The
  /// engine must have been built with the same recipe (same host-id set and
  /// protocol configuration); everything dynamic is overwritten wholesale —
  /// including the public snapshots, so no republish (which would wake every
  /// node and perturb the active set) happens.
  ///
  /// All section CRCs are verified before any member mutates; corrupt,
  /// truncated, or stale blobs return a failed Status naming the problem and
  /// leave the engine untouched. The caller owns the header: a typical
  /// sequence is `Reader r(bytes); r.expect_header(BlobKind::kEngine);
  /// eng.restore(r);`.
  persist::Status restore(persist::Reader& r) {
    if (auto s = r.validate_sections(); !s.ok) return s;

    graph::Graph g;
    if (auto s = r.open_section(persist::tag4("GRPH")); !s.ok) return s;
    r(g);
    if (auto s = r.close_section(); !s.ok) return s;
    if (g.ids() != graph_.ids()) {
      return persist::Status::failure(
          "checkpoint host set does not match this engine");
    }
    const std::size_t n = graph_.size();

    std::uint64_t round = 0, round_actions = 0, quiescent_streak = 0;
    StepMode step_mode = StepMode::kAll;
    std::uint32_t max_delay = 1;
    util::Rng root_rng;
    std::vector<util::Rng> rngs, delay_rngs;
    std::vector<NodeIndex> woken, stepped, dirty;
    if (auto s = r.open_section(persist::tag4("ENGN")); !s.ok) return s;
    r(round);
    r(round_actions);
    r(quiescent_streak);
    r(step_mode);
    r(max_delay);
    r(root_rng);
    r(rngs);
    r(delay_rngs);
    r(woken);
    r(stepped);
    r(dirty);
    if (auto s = r.close_section(); !s.ok) return s;

    CalendarQueue<SendEvent> delayed;
    CalendarQueue<HoldEvent> holds;
    CalendarQueue<NodeIndex> wakeups;
    if (auto s = r.open_section(persist::tag4("CALS")); !s.ok) return s;
    r(delayed);
    r(holds);
    r(wakeups);
    if (auto s = r.close_section(); !s.ok) return s;

    MailboxPool<Message> mail;
    if (auto s = r.open_section(persist::tag4("MAIL")); !s.ok) return s;
    r(mail);
    if (auto s = r.close_section(); !s.ok) return s;

    std::vector<NodeState> states;
    if (auto s = r.open_section(persist::tag4("STAT")); !s.ok) return s;
    r(states);
    if (auto s = r.close_section(); !s.ok) return s;

    std::vector<PublicState> publics;
    if (auto s = r.open_section(persist::tag4("PUBS")); !s.ok) return s;
    r(publics);
    if (auto s = r.close_section(); !s.ok) return s;

    RunMetrics metrics;
    if (auto s = r.open_section(persist::tag4("METR")); !s.ok) return s;
    r(metrics);
    if (auto s = r.close_section(); !s.ok) return s;

    if (!r.ok()) return r.status();
    if (rngs.size() != n || delay_rngs.size() != n || states.size() != n ||
        publics.size() != n) {
      return persist::Status::failure("checkpoint node-count mismatch");
    }
    // Every restored node index must be in range before commit: the CRCs
    // reject corruption, but a stale blob with a valid checksum must fail
    // with a Status here, not index out of bounds in the next round.
    bool indices_ok = true;
    for (const auto* idxs : {&woken, &stepped, &dirty}) {
      for (NodeIndex i : *idxs) indices_ok &= i < n;
    }
    delayed.for_each_event([&](const SendEvent& e) { indices_ok &= e.to < n; });
    holds.for_each_event([&](const HoldEvent& e) { indices_ok &= e.to < n; });
    wakeups.for_each_event([&](const NodeIndex& i) { indices_ok &= i < n; });
    if (!indices_ok) {
      return persist::Status::failure("node index out of range");
    }
    if (!mail.consistent_for(n)) {
      return persist::Status::failure("mailbox arena inconsistent");
    }

    // Protocol dynamic knobs: staged in a copy when the protocol type
    // allows it, so a layout mismatch in this last section cannot leave
    // half-read knobs behind on an otherwise-untouched engine.
    std::optional<P> staged_protocol;
    if (auto s = r.open_section(persist::tag4("PROT")); !s.ok) return s;
    if constexpr (requires(persist::Reader& a) { protocol_.persist_fields(a); }) {
      if constexpr (std::copy_constructible<P> &&
                    std::is_copy_assignable_v<P>) {
        staged_protocol.emplace(protocol_);
        r(*staged_protocol);
      } else {
        r(protocol_);  // non-copyable protocol: reads in place
      }
    }
    if (auto s = r.close_section(); !s.ok) return s;
    if (!r.ok()) return r.status();

    // --- commit -------------------------------------------------------------
    if (staged_protocol) protocol_ = std::move(*staged_protocol);
    graph_ = std::move(g);
    CHS_DCHECK(graph_.indices_consistent());
    round_ = round;
    round_actions_ = round_actions;
    quiescent_streak_ = quiescent_streak;
    step_mode_ = step_mode;
    max_delay_ = max_delay;
    root_rng_ = root_rng;
    rngs_ = std::move(rngs);
    delay_rngs_ = std::move(delay_rngs);
    woken_ = std::move(woken);
    stepped_ = std::move(stepped);
    dirty_ = std::move(dirty);
    delayed_ = std::move(delayed);
    holds_ = std::move(holds);
    wakeups_ = std::move(wakeups);
    mail_ = std::move(mail);
    states_ = std::move(states);
    store_.init(n);
    for (NodeIndex i = 0; i < n; ++i) store_.store(i, publics[i]);
    metrics_ = std::move(metrics);
    woken_mark_.assign(n, 0);
    for (NodeIndex i : woken_) woken_mark_[i] = 1;
    dirty_mark_.assign(n, 0);
    for (NodeIndex i : dirty_) dirty_mark_[i] = 1;
    topo_changed_ = false;
    pending_adds_.clear();
    pending_deletes_.clear();
    pending_delete_sites_.clear();
    pending_delete_witnesses_.clear();
    observed_deltas_.clear();
    // The blob this reader came from is unknown here, so the incremental
    // chain is broken: restore_blob() re-establishes it from the bytes.
    ckpt_dirty_mark_.assign(n, 0);
    ckpt_dirty_.clear();
    ckpt_topo_changed_ = false;
    last_ckpt_hash_ = 0;
    has_ckpt_base_ = false;
    // Derived per-node caches (e.g. the stabilizer's fragment geometry) are
    // recomputed rather than serialized: they are pure functions of the
    // restored state, and recomputation cannot drift from it.
    if constexpr (requires(NodeState& st) { protocol_.on_restore(st); }) {
      for (NodeState& st : states_) protocol_.on_restore(st);
    }
    return {};
  }

  // --- incremental checkpoints (DESIGN.md D10) ------------------------------
  //
  // A delta blob serializes only what can have changed since the last blob
  // in this engine's chain: the touched node set (states, RNG streams, and
  // canonical snapshots of nodes stepped or externally mutated since), the
  // topology only if it mutated, and the always-small sections (scalars,
  // calendars, metrics, protocol knobs) in full. Each delta records the
  // content hash of its parent blob; restore verifies the hash, so a delta
  // applied against the wrong base — or out of order — fails loudly.
  //
  // Chain discipline: the *_blob helpers below maintain the chain head. A
  // delta must be applied to an engine whose state exactly equals its
  // parent blob's state (the normal flow: fresh engine, restore_blob(base),
  // then restore_delta_blob for each delta in order). The raw Writer/Reader
  // variants exist for embedding; they deliberately break the chain on the
  // restore side because the blob's bytes (and hash) are unknown to them.

  /// True once this engine has a chain head to extend with deltas.
  bool has_checkpoint_base() const { return has_ckpt_base_; }

  /// Full checkpoint as a self-contained kEngine blob; becomes the chain
  /// head (deltas taken afterwards extend it).
  std::vector<std::uint8_t> checkpoint_blob() {
    persist::Writer w(persist::BlobKind::kEngine);
    checkpoint(w);
    std::vector<std::uint8_t> bytes = w.take();
    note_ckpt_chain(bytes);
    return bytes;
  }

  /// Incremental checkpoint as a kEngineDelta blob extending the current
  /// chain head; becomes the new head. Requires a prior checkpoint_blob()
  /// or restore_blob() on this engine.
  std::vector<std::uint8_t> checkpoint_delta_blob() {
    CHS_CHECK_MSG(has_ckpt_base_,
                  "delta checkpoint without a base blob in the chain");
    persist::Writer w(persist::BlobKind::kEngineDelta);
    checkpoint_delta(w);
    std::vector<std::uint8_t> bytes = w.take();
    note_ckpt_chain(bytes);
    return bytes;
  }

  /// Restore a full kEngine blob and make it the chain head.
  persist::Status restore_blob(const std::vector<std::uint8_t>& bytes) {
    persist::Reader r(bytes);
    if (auto s = r.expect_header(persist::BlobKind::kEngine); !s.ok) return s;
    if (auto s = restore(r); !s.ok) return s;
    if (auto s = r.expect_end(); !s.ok) return s;
    note_ckpt_chain(bytes);
    return {};
  }

  /// Apply a delta blob. The engine's state must equal the parent blob's
  /// state (enforced via the parent content hash against the chain head);
  /// on success the delta becomes the new head. Corrupt or mismatched blobs
  /// fail with a Status and leave the engine untouched.
  persist::Status restore_delta_blob(const std::vector<std::uint8_t>& bytes) {
    persist::Reader r(bytes);
    if (auto s = r.expect_header(persist::BlobKind::kEngineDelta); !s.ok) {
      return s;
    }
    if (auto s = restore_delta(r); !s.ok) return s;
    if (auto s = r.expect_end(); !s.ok) return s;
    note_ckpt_chain(bytes);
    return {};
  }

  /// Raw-writer delta checkpoint (see the chain discipline note above).
  void checkpoint_delta(persist::Writer& w) {
    CHS_CHECK_MSG(pending_adds_.empty() && pending_deletes_.empty(),
                  "checkpoint must be taken between rounds");
    // External mutations still awaiting their publish round (state_mut
    // between rounds) are part of the touched set too; dirty_ itself rides
    // in DENG so the pending publish replays after restore.
    for (NodeIndex i : dirty_) ckpt_mark(i);
    std::sort(ckpt_dirty_.begin(), ckpt_dirty_.end());

    w.begin_section(persist::tag4("DHDR"));
    w(last_ckpt_hash_);
    const std::uint64_t n = graph_.size();
    w(n);
    w.end_section();
    w.begin_section(persist::tag4("DENG"));
    w(round_);
    w(round_actions_);
    w(quiescent_streak_);
    w(step_mode_);
    w(max_delay_);
    w(root_rng_);
    w(woken_);
    w(stepped_);
    w(dirty_);
    w.end_section();
    w.begin_section(persist::tag4("DTOP"));
    w(ckpt_topo_changed_);
    if (ckpt_topo_changed_) w(graph_);
    w.end_section();
    w.begin_section(persist::tag4("DCAL"));
    w(delayed_);
    w(holds_);
    w(wakeups_);
    w.end_section();
    w.begin_section(persist::tag4("DMAI"));
    // Between rounds every box is empty (end_round is the single clear
    // point); only the last round's delivery count survives.
    w(mail_.delivered_this_round());
    w.end_section();
    w.begin_section(persist::tag4("DNOD"));
    const std::uint64_t touched = ckpt_dirty_.size();
    w(touched);
    PublicState tmp;
    for (NodeIndex i : ckpt_dirty_) {
      w(i);
      w(states_[i]);
      w(rngs_[i]);
      w(delay_rngs_[i]);
      store_.materialize(i, tmp);  // canonical form, store-independent
      w(tmp);
    }
    w.end_section();
    w.begin_section(persist::tag4("DMET"));
    w(metrics_);
    w.end_section();
    w.begin_section(persist::tag4("DPRO"));
    if constexpr (requires(persist::Writer& a) { protocol_.persist_fields(a); }) {
      w(protocol_);
    }
    w.end_section();
  }

  /// Raw-reader delta restore: fully staged, committed only after every
  /// section read and range check passes — a failure of any kind leaves the
  /// engine untouched. Breaks the chain head (the caller knows the bytes;
  /// restore_delta_blob re-establishes it).
  persist::Status restore_delta(persist::Reader& r) {
    if (!has_ckpt_base_) {
      return persist::Status::failure(
          "delta restore without a base checkpoint");
    }
    if (auto s = r.validate_sections(); !s.ok) return s;

    std::uint64_t parent = 0, n_in = 0;
    if (auto s = r.open_section(persist::tag4("DHDR")); !s.ok) return s;
    r(parent);
    r(n_in);
    if (auto s = r.close_section(); !s.ok) return s;
    if (r.ok() && parent != last_ckpt_hash_) {
      return persist::Status::failure(
          "delta parent hash mismatch: blob does not extend this engine's "
          "checkpoint chain");
    }
    const std::size_t n = graph_.size();
    if (r.ok() && n_in != n) {
      return persist::Status::failure("checkpoint node-count mismatch");
    }

    std::uint64_t round = 0, round_actions = 0, quiescent_streak = 0;
    StepMode step_mode = StepMode::kAll;
    std::uint32_t max_delay = 1;
    util::Rng root_rng;
    std::vector<NodeIndex> woken, stepped, dirty;
    if (auto s = r.open_section(persist::tag4("DENG")); !s.ok) return s;
    r(round);
    r(round_actions);
    r(quiescent_streak);
    r(step_mode);
    r(max_delay);
    r(root_rng);
    r(woken);
    r(stepped);
    r(dirty);
    if (auto s = r.close_section(); !s.ok) return s;

    bool topo = false;
    graph::Graph g;
    if (auto s = r.open_section(persist::tag4("DTOP")); !s.ok) return s;
    r(topo);
    if (topo) r(g);
    if (auto s = r.close_section(); !s.ok) return s;
    if (r.ok() && topo && g.ids() != graph_.ids()) {
      return persist::Status::failure(
          "checkpoint host set does not match this engine");
    }

    CalendarQueue<SendEvent> delayed;
    CalendarQueue<HoldEvent> holds;
    CalendarQueue<NodeIndex> wakeups;
    if (auto s = r.open_section(persist::tag4("DCAL")); !s.ok) return s;
    r(delayed);
    r(holds);
    r(wakeups);
    if (auto s = r.close_section(); !s.ok) return s;

    std::uint64_t delivered = 0;
    if (auto s = r.open_section(persist::tag4("DMAI")); !s.ok) return s;
    r(delivered);
    if (auto s = r.close_section(); !s.ok) return s;

    struct NodePatch {
      NodeIndex i = 0;
      NodeState st{};
      util::Rng rng, delay_rng;
      PublicState pub{};
    };
    std::vector<NodePatch> patches;
    if (auto s = r.open_section(persist::tag4("DNOD")); !s.ok) return s;
    std::uint64_t touched = 0;
    r(touched);
    for (std::uint64_t k = 0; k < touched && r.ok(); ++k) {
      patches.emplace_back();
      NodePatch& p = patches.back();
      r(p.i);
      r(p.st);
      r(p.rng);
      r(p.delay_rng);
      r(p.pub);
    }
    if (auto s = r.close_section(); !s.ok) return s;

    RunMetrics metrics;
    if (auto s = r.open_section(persist::tag4("DMET")); !s.ok) return s;
    r(metrics);
    if (auto s = r.close_section(); !s.ok) return s;

    std::optional<P> staged_protocol;
    if (auto s = r.open_section(persist::tag4("DPRO")); !s.ok) return s;
    if constexpr (requires(persist::Reader& a) { protocol_.persist_fields(a); }) {
      if constexpr (std::copy_constructible<P> &&
                    std::is_copy_assignable_v<P>) {
        staged_protocol.emplace(protocol_);
        r(*staged_protocol);
      } else {
        r(protocol_);  // non-copyable protocol: reads in place
      }
    }
    if (auto s = r.close_section(); !s.ok) return s;
    if (!r.ok()) return r.status();

    bool indices_ok = true;
    for (const auto* idxs : {&woken, &stepped, &dirty}) {
      for (NodeIndex i : *idxs) indices_ok &= i < n;
    }
    for (const NodePatch& p : patches) indices_ok &= p.i < n;
    delayed.for_each_event([&](const SendEvent& e) { indices_ok &= e.to < n; });
    holds.for_each_event([&](const HoldEvent& e) { indices_ok &= e.to < n; });
    wakeups.for_each_event([&](const NodeIndex& i) { indices_ok &= i < n; });
    if (!indices_ok) {
      return persist::Status::failure("node index out of range");
    }

    // --- commit -------------------------------------------------------------
    if (staged_protocol) protocol_ = std::move(*staged_protocol);
    if (topo) graph_ = std::move(g);
    CHS_DCHECK(graph_.indices_consistent());
    round_ = round;
    round_actions_ = round_actions;
    quiescent_streak_ = quiescent_streak;
    step_mode_ = step_mode;
    max_delay_ = max_delay;
    root_rng_ = root_rng;
    woken_ = std::move(woken);
    stepped_ = std::move(stepped);
    dirty_ = std::move(dirty);
    delayed_ = std::move(delayed);
    holds_ = std::move(holds);
    wakeups_ = std::move(wakeups);
    mail_.reset_empty(n, delivered);
    for (NodePatch& p : patches) {
      states_[p.i] = std::move(p.st);
      rngs_[p.i] = p.rng;
      delay_rngs_[p.i] = p.delay_rng;
      store_.store(p.i, p.pub);
    }
    metrics_ = std::move(metrics);
    woken_mark_.assign(n, 0);
    for (NodeIndex i : woken_) woken_mark_[i] = 1;
    dirty_mark_.assign(n, 0);
    for (NodeIndex i : dirty_) dirty_mark_[i] = 1;
    topo_changed_ = false;
    pending_adds_.clear();
    pending_deletes_.clear();
    pending_delete_sites_.clear();
    pending_delete_witnesses_.clear();
    observed_deltas_.clear();
    clear_ckpt_tracking();
    has_ckpt_base_ = false;  // see restore_delta_blob
    last_ckpt_hash_ = 0;
    // Untouched nodes kept their state — and their derived caches — from the
    // parent restore; only the patched ones need the post-restore fixup.
    if constexpr (requires(NodeState& st) { protocol_.on_restore(st); }) {
      for (const NodePatch& p : patches) protocol_.on_restore(states_[p.i]);
    }
    return {};
  }

  // --- memory accounting (DESIGN.md D10) ------------------------------------

  /// Approximate resident bytes of the engine's dynamic structures: snapshot
  /// store, node states (plus their heap, when NodeState exposes
  /// live_bytes()), mailbox arenas, calendars, RNG streams, and the
  /// active/dirty bookkeeping. Capacities, not sizes — this measures what the
  /// process actually holds. O(n); call on demand, never per round.
  std::size_t approx_live_bytes() const {
    std::size_t b = store_.live_bytes() + mail_.live_bytes() +
                    delayed_.live_bytes() + holds_.live_bytes() +
                    wakeups_.live_bytes();
    b += states_.capacity() * sizeof(NodeState);
    if constexpr (requires(const NodeState& st) {
                    { st.live_bytes() } -> std::convertible_to<std::size_t>;
                  }) {
      for (const NodeState& st : states_) b += st.live_bytes();
    }
    b += (rngs_.capacity() + delay_rngs_.capacity()) * sizeof(util::Rng);
    b += (woken_.capacity() + stepped_.capacity() + dirty_.capacity() +
          ckpt_dirty_.capacity()) *
         sizeof(NodeIndex);
    b += woken_mark_.capacity() + dirty_mark_.capacity() +
         ckpt_dirty_mark_.capacity();
    return b;
  }

  /// Sample approx_live_bytes() into RunMetrics::bytes_per_host. Explicit
  /// call only (benchmarks, scale harnesses): capacities depend on the
  /// worker-thread knob, so automatic sampling would leak wall-clock
  /// configuration into checkpoint bytes.
  void record_live_bytes() {
    const std::size_t n = graph_.size();
    metrics_.set_bytes_per_host(n == 0 ? 0 : approx_live_bytes() / n);
  }

 private:
  friend class NodeCtx<P>;

  struct HoldEvent {
    NodeIndex to;
    Message msg;

    template <typename A>
    void persist_fields(A& a) {
      a(to);
      a(msg);
    }
  };
  struct SendEvent {
    NodeIndex to;
    Envelope<Message> env;

    template <typename A>
    void persist_fields(A& a) {
      a(to);
      a(env);
    }
  };
  /// Per-shard scratch for the parallel phases: the action buffer filled
  /// while stepping, the wake list collected while publishing, and the
  /// snapshot-comparison scratch.
  struct WorkerSlot {
    ActionBuffer<Message> acts;
    std::vector<NodeIndex> wake;
    PublicState scratch{};
  };

  // Salt for the per-sender delay streams; any constant far outside the
  // node-id space works (ids are < n_guests), it only has to keep the
  // streams disjoint from root_rng_.split(id).
  static constexpr std::uint64_t kDelayStreamSalt = 0xd31a'57f3'0b5e'9c11ULL;

  void wake(NodeIndex i) {
    if (!woken_mark_[i]) {
      woken_mark_[i] = 1;
      woken_.push_back(i);
    }
  }

  void wake_all() {
    for (NodeIndex i = 0; i < graph_.size(); ++i) wake(i);
  }

  void mark_dirty(NodeIndex i) {
    if (!dirty_mark_[i]) {
      dirty_mark_[i] = 1;
      dirty_.push_back(i);
    }
  }

  /// Accumulate node i into the set touched since the last checkpoint blob
  /// (full or delta) — the nodes a delta checkpoint must serialize.
  void ckpt_mark(NodeIndex i) {
    if (!ckpt_dirty_mark_[i]) {
      ckpt_dirty_mark_[i] = 1;
      ckpt_dirty_.push_back(i);
    }
  }

  /// Reset the incremental-checkpoint tracking (the engine's state now
  /// exactly matches the head of its blob chain — or the chain was broken).
  void clear_ckpt_tracking() {
    for (NodeIndex i : ckpt_dirty_) ckpt_dirty_mark_[i] = 0;
    ckpt_dirty_.clear();
    ckpt_topo_changed_ = false;
  }

  /// Record `bytes` as the new head of this engine's checkpoint chain: the
  /// next delta extends it, identified by content hash.
  void note_ckpt_chain(const std::vector<std::uint8_t>& bytes) {
    last_ckpt_hash_ = persist::content_hash(bytes);
    has_ckpt_base_ = true;
    clear_ckpt_tracking();
  }

  /// Number of shards for a parallel phase over `items` units. One shard
  /// (inline, no dispatch) unless the pool is populated and the phase is
  /// large enough to amortize a dispatch; never more than the worker count,
  /// so slots_ is indexable by shard.
  std::size_t shard_count(std::size_t items) const {
    if (worker_threads_ <= 1) return 1;
    const std::size_t by_grain = items / kParallelGrain;
    return std::max<std::size_t>(1, std::min(worker_threads_, by_grain));
  }
  // A shard of 16 protocol steps already dwarfs one pool dispatch; smaller
  // phases run inline (identical results — only the schedule differs).
  static constexpr std::size_t kParallelGrain = 16;

  /// Contiguous block partition of [0, n) into `shards` ranges.
  static std::pair<std::size_t, std::size_t> shard_range(std::size_t n,
                                                         std::size_t shards,
                                                         std::size_t s) {
    const std::size_t base = n / shards;
    const std::size_t rem = n % shards;
    const std::size_t b = s * base + std::min(s, rem);
    return {b, b + base + (s < rem ? 1 : 0)};
  }

  void step_node(NodeIndex i, ActionBuffer<Message>& buf) {
    NodeCtx<P> ctx;
    ctx.self_ = graph_.id_of(i);
    ctx.self_idx_ = i;
    ctx.round_ = round_;
    ctx.state_ = &states_[i];
    ctx.rng_ = &rngs_[i];
    ctx.inbox_ = mail_.inbox(i);
    ctx.neighbors_ = &graph_.neighbors_at(i);
    ctx.neighbor_indices_ = &graph_.neighbor_indices(i);
    ctx.engine_ = this;
    ctx.acts_ = &buf;
    protocol_.step(ctx);
  }

  /// Serially apply one shard's buffered actions (the merge step). Within a
  /// buffer, entries of each kind are already in (node, call) order; shards
  /// cover ascending node ranges, so applying buffers in shard order feeds
  /// each calendar and mutation list in exactly the sequential order.
  void apply_actions(ActionBuffer<Message>& buf) {
    for (auto& s : buf.sends) {
      std::uint64_t delay;
      if (delay_sampler_) {
        delay = delay_sampler_(graph_.id_of(s.from), graph_.id_of(s.to),
                               max_delay_, delay_rngs_[s.from]);
        CHS_CHECK(delay >= 1 && delay <= max_delay_);
      } else {
        delay =
            max_delay_ == 1 ? 1 : 1 + delay_rngs_[s.from].next_below(max_delay_);
      }
      delayed_.schedule(round_ + delay,
                        SendEvent{s.to, Envelope<Message>{graph_.id_of(s.from),
                                                          std::move(s.msg)}});
      metrics_.count_message();
    }
    for (auto& h : buf.holds) {
      holds_.schedule(h.due, HoldEvent{h.self, std::move(h.msg)});
    }
    for (const auto& w : buf.wakeups) {
      // Bookkeeping only: not a protocol action, invisible to metrics and
      // to quiescence detection.
      wakeups_.schedule(w.due, w.self);
    }
    for (const auto& d : buf.disconnects) {
      pending_deletes_.emplace_back(d.a, d.b);
      pending_delete_sites_.push_back(d.site);
      pending_delete_witnesses_.push_back(d.witness);
    }
    for (const auto& a : buf.introduces) {
      pending_adds_.emplace_back(a.a, a.b);
    }
    round_actions_ += buf.actions();
    buf.clear();
  }

  /// Publish node i's snapshot via the store; if it changed, collect its
  /// neighbors into the shard's wake list (their next check_local / view
  /// reads see different data).
  void publish_and_collect(NodeIndex i, WorkerSlot& slot, std::size_t shard) {
    const bool changed =
        store_.publish_compare(protocol_, states_[i], i, slot.scratch, shard);
    if (changed) {
      const auto& nbrs = graph_.neighbor_indices(i);
      slot.wake.insert(slot.wake.end(), nbrs.begin(), nbrs.end());
    }
  }

  /// Opt-in idle fast-forward: with no active nodes and no event due before
  /// round X, rounds round_ .. X-1 are provably empty — account for them in
  /// the metrics (identical entries to executing them) and jump. The
  /// subsequent code in step_round then runs the first non-empty round.
  void fast_forward_idle_gap() {
    std::uint64_t next = ~std::uint64_t{0};
    bool any = false;
    if (const auto d = delayed_.next_due_round()) {
      next = std::min(next, *d);
      any = true;
    }
    if (const auto d = holds_.next_due_round()) {
      next = std::min(next, *d);
      any = true;
    }
    if (const auto d = wakeups_.next_due_round()) {
      next = std::min(next, *d);
      any = true;
    }
    if (!any || next <= round_) return;  // nothing ever due, or due now
    const std::uint64_t skip = next - round_;
    metrics_.observe_idle_rounds(skip);
    // Each skipped round had zero actions and deliveries; the quiescence
    // streak grows through the gap unless deliverable events (holds or
    // delayed sends) were pending all along — exactly the per-round rule.
    if (holds_pending()) {
      quiescent_streak_ = 0;
    } else {
      quiescent_streak_ += skip;
    }
    round_ = next;
  }

  /// Accumulate an applied topology mutation for the round observer; a
  /// no-op (one predicted branch) when no observer is installed.
  void record_delta(NodeId u, NodeId v, bool removed) {
    if (round_observer_) observed_deltas_.push_back({u, v, removed});
  }

  void record_delete_site(NodeId u, NodeId v, const char* site) {
    // Bounded: long churn runs otherwise grow this map without limit.
    if (last_delete_.size() >= kMaxDeleteRecords) last_delete_.clear();
    last_delete_[std::minmax(u, v)] = site;
  }

  bool holds_pending() const { return !holds_.empty() || !delayed_.empty(); }

  static constexpr std::size_t kMaxDeleteRecords = 1u << 20;

  graph::Graph graph_;
  P protocol_;
  util::Rng root_rng_;
  std::vector<NodeState> states_;
  Store store_;  // public snapshots, behind the per-protocol store layout
  MailboxPool<Message> mail_;
  CalendarQueue<SendEvent> delayed_;
  CalendarQueue<HoldEvent> holds_;
  CalendarQueue<NodeIndex> wakeups_;
  std::vector<util::Rng> rngs_;
  std::vector<util::Rng> delay_rngs_;  // per-sender message-delay streams
  std::vector<std::pair<NodeId, NodeId>> pending_adds_;
  std::vector<std::pair<NodeId, NodeId>> pending_deletes_;
  std::vector<const char*> pending_delete_sites_;
  std::vector<NodeId> pending_delete_witnesses_;
  std::map<std::pair<NodeId, NodeId>, const char*> last_delete_;
  RunMetrics metrics_;
  DeliveryFilter delivery_filter_;  // empty = deliver everything
  DelaySampler delay_sampler_;      // empty = uniform [1, max_delay_]
  RoundObserver round_observer_;    // empty = observe nothing, record nothing
  RoundProfile* profile_ = nullptr;  // null = no wall-clock phase timing
  std::vector<EdgeDelta> observed_deltas_;  // mutations since last observation
  WorkerPool pool_;
  std::vector<WorkerSlot> slots_;
  std::size_t worker_threads_ = 1;
  StepMode step_mode_ = StepMode::kAll;
  bool edge_trace_ = false;
  bool topo_changed_ = false;
  bool idle_fast_forward_ = false;
  std::vector<NodeIndex> woken_;   // active set accumulating for next round
  std::vector<std::uint8_t> woken_mark_;
  std::vector<NodeIndex> stepped_;  // nodes stepped in the current round
  std::vector<NodeIndex> dirty_;    // snapshots to publish this round
  std::vector<std::uint8_t> dirty_mark_;
  // Incremental-checkpoint chain state (DESIGN.md D10): nodes touched since
  // the last blob, whether topology changed since it, and the content hash
  // identifying it (the parent of the next delta).
  std::vector<NodeIndex> ckpt_dirty_;
  std::vector<std::uint8_t> ckpt_dirty_mark_;
  bool ckpt_topo_changed_ = false;
  std::uint64_t last_ckpt_hash_ = 0;
  bool has_ckpt_base_ = false;
  std::uint32_t max_delay_ = 1;
  std::uint64_t round_ = 0;
  std::uint64_t round_actions_ = 0;
  std::uint64_t quiescent_streak_ = 0;
};

}  // namespace chs::sim
