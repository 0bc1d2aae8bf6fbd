// Undirected graph over arbitrary 64-bit node identifiers.
//
// This is the simulator's ground-truth topology: in the overlay model (§2.1
// of the paper) the edge set *is* part of the distributed state, so the
// engine owns one Graph instance and applies protocol edge actions to it
// between rounds. Nodes carry sparse u64 ids (host ids are an arbitrary
// subset of [0, N)) but adjacency is stored densely by index for speed.
//
// Each sorted neighbor-id list carries a parallel list of the neighbors'
// NodeIndex, slot for slot (DESIGN.md D15). Ids are stored sorted, so index
// order equals id order and both lists share one ordering; per-step code
// finds a neighbor by id in the small list and reads its index from the same
// slot instead of searching the whole id set with index_of.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace chs::graph {

using NodeId = std::uint64_t;
using NodeIndex = std::uint32_t;

class Graph {
 public:
  Graph() = default;

  /// Build a graph with the given vertex set and no edges. Ids must be
  /// unique; they are stored sorted.
  explicit Graph(std::vector<NodeId> ids);

  std::size_t size() const { return ids_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// Sorted vertex ids.
  const std::vector<NodeId>& ids() const { return ids_; }

  bool contains(NodeId id) const;
  NodeIndex index_of(NodeId id) const;  // CHECKs contains(id)
  NodeId id_of(NodeIndex idx) const {
    CHS_DCHECK(idx < ids_.size());
    return ids_[idx];
  }

  bool has_edge(NodeId u, NodeId v) const;

  /// Add undirected edge {u, v}. Returns false if it already existed or
  /// u == v (self-loops are meaningless in the overlay model).
  bool add_edge(NodeId u, NodeId v);

  /// Remove undirected edge {u, v}. Returns false if absent.
  bool remove_edge(NodeId u, NodeId v);

  /// Sorted neighbor ids of u.
  const std::vector<NodeId>& neighbors(NodeId u) const {
    return adj_[index_of(u)];
  }

  /// Sorted neighbor ids of the node at index i.
  const std::vector<NodeId>& neighbors_at(NodeIndex i) const {
    CHS_DCHECK(i < adj_.size());
    return adj_[i];
  }

  /// NodeIndex of each neighbor of the node at index i, slot for slot with
  /// neighbors_at(i) (so also ascending).
  const std::vector<NodeIndex>& neighbor_indices(NodeIndex i) const {
    CHS_DCHECK(i < nbr_idx_.size());
    return nbr_idx_[i];
  }

  /// Full-recompute cross-check of the cached index lists: every slot
  /// satisfies neighbor_indices(i)[k] == index_of(neighbors_at(i)[k]).
  bool indices_consistent() const;

  std::size_t degree(NodeId u) const { return adj_[index_of(u)].size(); }

  std::size_t max_degree() const;

  /// All edges as (u, v) pairs with u < v, in deterministic order.
  std::vector<std::pair<NodeId, NodeId>> edge_list() const;

  /// Structural equality of vertex sets and edge sets.
  bool same_topology(const Graph& other) const;

  /// Checkpoint/restore (DESIGN.md D9): the edge set is distributed state in
  /// the overlay model, so the whole adjacency round-trips exactly. The
  /// neighbor-index lists are derived data: never written, rebuilt on read.
  template <typename A>
  void persist_fields(A& a) {
    a(ids_);
    a(adj_);
    a(num_edges_);
    if constexpr (A::kIsReader) {
      // A CRC-valid but stale blob must fail with a Status, not abort in
      // index_of: an adjacency naming an unknown id is rejected here.
      if (!rebuild_indices()) a.fail("graph adjacency names an unknown node");
    }
  }

 private:
  bool rebuild_indices();

  std::vector<NodeId> ids_;                      // sorted
  std::vector<std::vector<NodeId>> adj_;         // adj_[i] sorted by id
  std::vector<std::vector<NodeIndex>> nbr_idx_;  // [i][k]: index of adj_[i][k]
  std::size_t num_edges_ = 0;
};

}  // namespace chs::graph
