// Shared helpers for the GALA test suites.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "gala/graph/csr.hpp"
#include "gala/graph/generators.hpp"

namespace gala::testing {

/// Tiny two-triangle graph joined by one bridge: the canonical hand-checkable
/// community structure. Vertices 0-2 and 3-5; bridge {2,3}.
inline graph::Graph two_triangles() {
  graph::GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(3, 5);
  b.add_edge(2, 3);
  return b.build();
}

/// Karate-club-sized deterministic planted graph for mid-size tests.
inline graph::Graph small_planted(std::uint64_t seed = 5, vid_t n = 400, vid_t k = 8,
                                  double mixing = 0.15) {
  graph::PlantedPartitionParams p;
  p.num_vertices = n;
  p.num_communities = k;
  p.avg_degree = 12;
  p.mixing = mixing;
  p.seed = seed;
  return graph::planted_partition(p);
}

/// Compares every field of two graphs bit for bit (memcmp on the doubles):
/// offsets, adjacency, weights, degrees, self-loops, total weight, edge
/// count and maximum out-degree. The failure names the first field that
/// differs.
inline ::testing::AssertionResult bit_identical(const graph::Graph& a, const graph::Graph& b) {
  const auto same = [](auto x, auto y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
  };
  const auto self_loops = [](const graph::Graph& g) {
    std::vector<wt_t> loops(g.num_vertices());
    for (vid_t v = 0; v < g.num_vertices(); ++v) loops[v] = g.self_loop(v);
    return loops;
  };
  const std::vector<wt_t> la = self_loops(a), lb = self_loops(b);
  const wt_t ta = a.total_weight(), tb = b.total_weight();
  const char* differs =
      a.num_vertices() != b.num_vertices()                          ? "vertex counts"
      : !same(a.offsets(), b.offsets())                             ? "offsets"
      : !same(a.adjacency(), b.adjacency())                         ? "adjacency"
      : !same(a.adjacency_weights(), b.adjacency_weights())         ? "adjacency weights"
      : !same(a.degrees(), b.degrees())                             ? "degrees"
      : !same(std::span<const wt_t>(la), std::span<const wt_t>(lb)) ? "self-loops"
      : std::memcmp(&ta, &tb, sizeof ta) != 0                       ? "total weights"
      : a.num_edges() != b.num_edges()                              ? "edge counts"
      : a.max_out_degree() != b.max_out_degree()                    ? "max out-degrees"
                                                                    : nullptr;
  if (differs == nullptr) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << differs << " differ";
}

}  // namespace gala::testing
