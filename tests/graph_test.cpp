// Unit tests for the CSR graph: builder semantics (merging, symmetry,
// self-loop conventions), invariants, and accessors.
#include "gala/graph/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "gala/common/prng.hpp"
#include "gala/graph/io.hpp"
#include "temp_dir.hpp"
#include "test_util.hpp"

namespace gala::graph {
namespace {

TEST(GraphBuilder, BuildsSymmetricSortedAdjacency) {
  GraphBuilder b(4);
  b.add_edge(2, 0, 1.5);
  b.add_edge(0, 1, 2.0);
  b.add_edge(3, 2, 1.0);
  const Graph g = b.build();
  g.validate();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_adjacency(), 6u);
  const auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_DOUBLE_EQ(g.weights(0)[1], 1.5);
}

TEST(GraphBuilder, MergesParallelEdgesBySummingWeights) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 0, 2.5);  // same undirected edge, other orientation
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.weights(0)[0], 3.5);
  EXPECT_DOUBLE_EQ(g.weights(1)[0], 3.5);
  EXPECT_DOUBLE_EQ(g.total_weight(), 3.5);
}

TEST(GraphBuilder, SelfLoopStoredOnceCountedTwiceInDegree) {
  GraphBuilder b(1);
  b.add_edge(0, 0, 2.0);
  const Graph g = b.build();
  g.validate();
  EXPECT_EQ(g.out_degree(0), 1u);          // one adjacency entry
  EXPECT_DOUBLE_EQ(g.self_loop(0), 2.0);
  EXPECT_DOUBLE_EQ(g.degree(0), 4.0);      // counted twice
  EXPECT_DOUBLE_EQ(g.total_weight(), 2.0); // |E| counts it once
  EXPECT_DOUBLE_EQ(g.two_m(), 4.0);        // sum of degrees
}

TEST(GraphBuilder, DegreeSumEqualsTwoM) {
  const Graph g = testing::small_planted(3);
  wt_t sum = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) sum += g.degree(v);
  EXPECT_NEAR(sum, g.two_m(), 1e-9);
}

TEST(GraphBuilder, RejectsOutOfRangeVertices) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), Error);
  EXPECT_THROW(b.add_edge(5, 0), Error);
}

TEST(GraphBuilder, RejectsNonPositiveWeights) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 1, 0.0), Error);
  EXPECT_THROW(b.add_edge(0, 1, -1.0), Error);
}

TEST(GraphBuilder, EmptyGraphHasZeroEverything) {
  GraphBuilder b(5);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.total_weight(), 0.0);
  for (vid_t v = 0; v < 5; ++v) {
    EXPECT_EQ(g.out_degree(v), 0u);
    EXPECT_TRUE(g.neighbors(v).empty());
  }
}

TEST(GraphBuilder, MaxOutDegreeTracked) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  b.add_edge(1, 2);
  const Graph g = b.build();
  EXPECT_EQ(g.max_out_degree(), 3u);
}

TEST(GraphBuilder, BuilderReusableStateCleared) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  EXPECT_EQ(b.num_added(), 1u);
  (void)b.build();
  EXPECT_EQ(b.num_added(), 0u);
}

// Fractional sums depend on their order: an edge added three or more times
// must sum in the same order in both rows, or the two directions differ in
// the last bit and load_binary rejects the graph's own snapshot.
TEST(GraphBuilder, RepeatedFractionalEdgesAreBitEqualBothWays) {
  testing::TestTempDir tmp;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256 rng(seed);
    GraphBuilder b(300);
    for (int k = 0; k < 2000; ++k) {
      b.add_edge(static_cast<vid_t>(rng.next_below(300)), static_cast<vid_t>(rng.next_below(300)),
                 0.1 + k / 37.0);
    }
    const Graph g = b.build();
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      const auto nbrs = g.neighbors(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const auto back = g.neighbors(nbrs[i]);
        const auto j = static_cast<std::size_t>(std::lower_bound(back.begin(), back.end(), v) -
                                                back.begin());
        ASSERT_LT(j, back.size());
        ASSERT_EQ(std::memcmp(&g.weights(v)[i], &g.weights(nbrs[i])[j], sizeof(wt_t)), 0)
            << "seed " << seed << " edge {" << v << ", " << nbrs[i] << "}";
      }
    }
    const std::string path = tmp.path("multigraph-" + std::to_string(seed) + ".bin");
    save_binary(g, path);
    EXPECT_TRUE(testing::bit_identical(load_binary(path), g)) << "seed " << seed;
  }
}

TEST(Graph, SummaryMentionsCounts) {
  const Graph g = testing::two_triangles();
  const std::string s = summary(g);
  EXPECT_NE(s.find("V=6"), std::string::npos);
  EXPECT_NE(s.find("E=7"), std::string::npos);
}

TEST(Graph, WeightsAndNeighborsAreParallelSpans) {
  const Graph g = testing::small_planted(13);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.neighbors(v).size(), g.weights(v).size());
    EXPECT_EQ(g.neighbors(v).size(), g.out_degree(v));
  }
}

TEST(Graph, ValidatePassesOnGeneratedGraphs) {
  testing::small_planted(17).validate();
  testing::two_triangles().validate();
}

}  // namespace
}  // namespace gala::graph
