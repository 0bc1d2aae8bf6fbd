#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/analysis.hpp"
#include "graph/graph.hpp"
#include "persist/io.hpp"
#include "util/rng.hpp"

namespace chs::graph {
namespace {

TEST(Graph, EmptyAndSingleton) {
  Graph e;
  EXPECT_EQ(e.size(), 0u);
  EXPECT_EQ(e.num_edges(), 0u);
  Graph s({7});
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.contains(8));
}

TEST(Graph, AddRemoveEdges) {
  Graph g({1, 2, 3});
  EXPECT_TRUE(g.add_edge(1, 2));
  EXPECT_FALSE(g.add_edge(2, 1));  // duplicate, either orientation
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.remove_edge(1, 2));
  EXPECT_FALSE(g.remove_edge(1, 2));
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, NoSelfLoops) {
  Graph g({1, 2});
  EXPECT_FALSE(g.add_edge(1, 1));
  EXPECT_FALSE(g.has_edge(1, 1));
}

TEST(Graph, NeighborsSortedAndDegrees) {
  Graph g({1, 2, 3, 4});
  g.add_edge(3, 1);
  g.add_edge(3, 4);
  g.add_edge(3, 2);
  const auto& n = g.neighbors(3);
  ASSERT_EQ(n.size(), 3u);
  EXPECT_EQ(n[0], 1u);
  EXPECT_EQ(n[1], 2u);
  EXPECT_EQ(n[2], 4u);
  EXPECT_EQ(g.degree(3), 3u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(Graph, EdgeListCanonical) {
  Graph g({5, 1, 9});
  g.add_edge(9, 1);
  g.add_edge(5, 9);
  const auto el = g.edge_list();
  ASSERT_EQ(el.size(), 2u);
  EXPECT_EQ(el[0], (std::pair<NodeId, NodeId>{1, 9}));
  EXPECT_EQ(el[1], (std::pair<NodeId, NodeId>{5, 9}));
}

TEST(Graph, SameTopology) {
  Graph a({1, 2, 3}), b({1, 2, 3}), c({1, 2, 4});
  a.add_edge(1, 2);
  b.add_edge(2, 1);
  EXPECT_TRUE(a.same_topology(b));
  b.add_edge(2, 3);
  EXPECT_FALSE(a.same_topology(b));
  EXPECT_FALSE(a.same_topology(c));
}

// --- neighbor-slot index (DESIGN.md D15) -----------------------------------

/// Every neighbor list's parallel index list, re-derived the slow way.
void expect_slots_match(const Graph& g) {
  ASSERT_TRUE(g.indices_consistent());
  for (NodeIndex i = 0; i < g.size(); ++i) {
    const auto& ids = g.neighbors_at(i);
    const auto& idx = g.neighbor_indices(i);
    ASSERT_EQ(ids.size(), idx.size());
    for (std::size_t k = 0; k < ids.size(); ++k) {
      EXPECT_EQ(g.id_of(idx[k]), ids[k]);
    }
  }
}

TEST(Graph, NeighborIndicesTrackRandomAddRemoveSequences) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    std::vector<NodeId> ids;
    for (NodeId v = 0; v < 40; ++v) ids.push_back(v * 7 + seed);  // sparse
    Graph g(ids);
    std::size_t edges = 0;
    for (int op = 0; op < 3000; ++op) {
      const NodeId u = ids[rng.next_below(ids.size())];
      const NodeId v = ids[rng.next_below(ids.size())];
      const bool had = g.has_edge(u, v);
      if (rng.next_below(3) == 0) {
        EXPECT_EQ(g.remove_edge(u, v), had);
        if (had) --edges;
      } else {
        EXPECT_EQ(g.add_edge(u, v), !had && u != v);
        if (!had && u != v) ++edges;
      }
      if (op % 97 == 0) expect_slots_match(g);
    }
    EXPECT_EQ(g.num_edges(), edges);
    expect_slots_match(g);
  }
}

std::vector<std::uint8_t> graph_bytes(Graph& g) {
  persist::Writer w(persist::BlobKind::kRaw);
  w.begin_section(persist::tag4("GRPH"));
  w(g);
  w.end_section();
  return w.take();
}

Graph dense_sample() {
  Graph g({3, 10, 11, 40, 41, 90});
  g.add_edge(3, 90);
  g.add_edge(10, 41);
  g.add_edge(40, 10);
  g.add_edge(11, 3);
  g.add_edge(41, 90);
  g.remove_edge(10, 41);
  return g;
}

TEST(Graph, CheckpointBytesCarryNoIndex) {
  // The index is derived data: a Graph serializes exactly as the three
  // fields ids, adjacency and edge count, written one after the other.
  Graph g = dense_sample();
  std::vector<NodeId> ids = g.ids();
  std::vector<std::vector<NodeId>> adj;
  for (NodeId v : ids) adj.push_back(g.neighbors(v));
  std::size_t num_edges = g.num_edges();
  persist::Writer w(persist::BlobKind::kRaw);
  w.begin_section(persist::tag4("GRPH"));
  w(ids);
  w(adj);
  w(num_edges);
  w.end_section();
  EXPECT_EQ(graph_bytes(g), w.take());
}

TEST(Graph, RestoreRebuildsTheIndex) {
  Graph g = dense_sample();
  const auto bytes = graph_bytes(g);
  Graph back;
  persist::Reader r(bytes);
  ASSERT_TRUE(r.expect_header(persist::BlobKind::kRaw).ok);
  ASSERT_TRUE(r.open_section(persist::tag4("GRPH")).ok);
  r(back);
  ASSERT_TRUE(r.close_section().ok);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(back.same_topology(g));
  expect_slots_match(back);
  for (NodeIndex i = 0; i < g.size(); ++i) {
    EXPECT_EQ(back.neighbor_indices(i), g.neighbor_indices(i));
  }
}

TEST(Graph, RestoreRejectsAnAdjacencyNamingAnUnknownNode) {
  std::vector<NodeId> ids{1, 2};
  std::vector<std::vector<NodeId>> adj{{5}, {}};
  std::size_t num_edges = 1;
  persist::Writer w(persist::BlobKind::kRaw);
  w.begin_section(persist::tag4("GRPH"));
  w(ids);
  w(adj);
  w(num_edges);
  w.end_section();
  const auto bytes = w.take();
  Graph back;
  persist::Reader r(bytes);
  ASSERT_TRUE(r.expect_header(persist::BlobKind::kRaw).ok);
  ASSERT_TRUE(r.open_section(persist::tag4("GRPH")).ok);
  r(back);  // must fail with a Status, not abort in index_of
  EXPECT_FALSE(r.ok());
}

TEST(Analysis, Connectivity) {
  Graph g({0, 1, 2, 3});
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(num_components(g), 4u);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_EQ(num_components(g), 2u);
  g.add_edge(1, 2);
  EXPECT_TRUE(is_connected(g));
}

TEST(Analysis, BfsAndDiameter) {
  // Path 0-1-2-3.
  Graph g({0, 1, 2, 3});
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[g.index_of(3)], 3u);
  EXPECT_EQ(eccentricity(g, 1), 2u);
  EXPECT_EQ(diameter(g), 3u);
}

TEST(Analysis, DegreeStats) {
  Graph g({0, 1, 2});
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  const auto s = degree_stats(g);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 2u);
  EXPECT_NEAR(s.mean, 4.0 / 3.0, 1e-12);
}

TEST(Analysis, ReachablePairFraction) {
  Graph g({0, 1, 2, 3});
  g.add_edge(0, 1);
  // Two components of size 2 and 2 isolated nodes? 0-1 connected, 2, 3 alone.
  EXPECT_NEAR(reachable_pair_fraction(g), 2.0 / 12.0, 1e-12);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_NEAR(reachable_pair_fraction(g), 1.0, 1e-12);
}

TEST(Analysis, RemoveNodes) {
  Graph g({0, 1, 2, 3});
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const Graph h = remove_nodes(g, {1});
  EXPECT_EQ(h.size(), 3u);
  EXPECT_FALSE(h.contains(1));
  EXPECT_EQ(h.num_edges(), 1u);
  EXPECT_TRUE(h.has_edge(2, 3));
}

}  // namespace
}  // namespace chs::graph
