#include "graph/graph.hpp"

#include <algorithm>

namespace chs::graph {

Graph::Graph(std::vector<NodeId> ids) : ids_(std::move(ids)) {
  std::sort(ids_.begin(), ids_.end());
  CHS_CHECK_MSG(std::adjacent_find(ids_.begin(), ids_.end()) == ids_.end(),
                "duplicate node ids");
  adj_.resize(ids_.size());
  nbr_idx_.resize(ids_.size());
}

bool Graph::contains(NodeId id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

NodeIndex Graph::index_of(NodeId id) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  CHS_CHECK_MSG(it != ids_.end() && *it == id, "unknown node id");
  return static_cast<NodeIndex>(it - ids_.begin());
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (u == v) return false;
  const auto& nu = adj_[index_of(u)];
  return std::binary_search(nu.begin(), nu.end(), v);
}

bool Graph::add_edge(NodeId u, NodeId v) {
  if (u == v) return false;
  const NodeIndex iu = index_of(u);
  auto& nu = adj_[iu];
  auto it = std::lower_bound(nu.begin(), nu.end(), v);
  if (it != nu.end() && *it == v) return false;
  const NodeIndex iv = index_of(v);
  nbr_idx_[iu].insert(nbr_idx_[iu].begin() + (it - nu.begin()), iv);
  nu.insert(it, v);
  auto& nv = adj_[iv];
  auto jt = std::lower_bound(nv.begin(), nv.end(), u);
  nbr_idx_[iv].insert(nbr_idx_[iv].begin() + (jt - nv.begin()), iu);
  nv.insert(jt, u);
  ++num_edges_;
  return true;
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  if (u == v) return false;
  const NodeIndex iu = index_of(u);
  auto& nu = adj_[iu];
  auto it = std::lower_bound(nu.begin(), nu.end(), v);
  if (it == nu.end() || *it != v) return false;
  const NodeIndex iv = nbr_idx_[iu][it - nu.begin()];
  nbr_idx_[iu].erase(nbr_idx_[iu].begin() + (it - nu.begin()));
  nu.erase(it);
  auto& nv = adj_[iv];
  auto jt = std::lower_bound(nv.begin(), nv.end(), u);
  CHS_DCHECK(jt != nv.end() && *jt == u);
  nbr_idx_[iv].erase(nbr_idx_[iv].begin() + (jt - nv.begin()));
  nv.erase(jt);
  --num_edges_;
  return true;
}

bool Graph::rebuild_indices() {
  nbr_idx_.assign(adj_.size(), {});
  if (adj_.size() != ids_.size()) return false;
  for (std::size_t i = 0; i < adj_.size(); ++i) {
    nbr_idx_[i].reserve(adj_[i].size());
    for (NodeId v : adj_[i]) {
      if (!contains(v)) return false;
      nbr_idx_[i].push_back(index_of(v));
    }
  }
  return true;
}

bool Graph::indices_consistent() const {
  Graph fresh = *this;
  return fresh.rebuild_indices() && fresh.nbr_idx_ == nbr_idx_;
}

std::size_t Graph::max_degree() const {
  std::size_t best = 0;
  for (const auto& n : adj_) best = std::max(best, n.size());
  return best;
}

std::vector<std::pair<NodeId, NodeId>> Graph::edge_list() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(num_edges_);
  for (NodeIndex i = 0; i < ids_.size(); ++i) {
    for (NodeId v : adj_[i]) {
      if (ids_[i] < v) out.emplace_back(ids_[i], v);
    }
  }
  return out;
}

bool Graph::same_topology(const Graph& other) const {
  return ids_ == other.ids_ && adj_ == other.adj_;
}

}  // namespace chs::graph
