// Specification suite for core::apply_edge_updates. The specification is
// the original implementation, kept here verbatim: fold every update into a
// std::map of undirected edges, then rebuild the graph through GraphBuilder.
// The row-merge implementation must return a graph bit-identical to it
// (every array compared with memcmp) or throw the same message. The random
// cases draw from a base seed that rotates in CI (GALA_DIFF_SEED, derived
// from the commit SHA) like query_differential_test; re-run locally with
//   GALA_DIFF_SEED=<seed> ./incremental_spec_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gala/common/prng.hpp"
#include "gala/core/incremental.hpp"
#include "test_util.hpp"

namespace gala::core {
namespace {

std::uint64_t edge_key(vid_t u, vid_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// The specification: the map-and-builder apply_edge_updates.
graph::Graph spec_apply_edge_updates(const graph::Graph& g, std::span<const EdgeUpdate> updates) {
  const vid_t n = g.num_vertices();
  // Collect the undirected edge map once, apply deltas, rebuild.
  std::map<std::uint64_t, wt_t> edges;
  for (vid_t v = 0; v < n; ++v) {
    auto nbrs = g.neighbors(v);
    auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] >= v) edges[edge_key(v, nbrs[i])] = ws[i];
    }
  }
  for (const EdgeUpdate& u : updates) {
    GALA_CHECK(u.u < n && u.v < n, "update touches vertex outside the graph");
    GALA_CHECK(u.weight > 0, "update weight must be positive");
    const std::uint64_t key = edge_key(u.u, u.v);
    if (u.remove) {
      auto it = edges.find(key);
      GALA_CHECK(it != edges.end(), "removing non-existent edge {" << u.u << "," << u.v << "}");
      it->second -= u.weight;
      if (it->second <= 1e-12) edges.erase(it);
    } else {
      edges[key] += u.weight;
    }
  }
  graph::GraphBuilder builder(n);
  for (const auto& [key, w] : edges) {
    builder.add_edge(static_cast<vid_t>(key >> 32), static_cast<vid_t>(key & 0xffffffffu), w);
  }
  return builder.build();
}

std::uint64_t base_seed() {
  if (const char* env = std::getenv("GALA_DIFF_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20261020ULL;  // fixed default: local runs are reproducible as-is
}

/// The reason a GALA_CHECK gave, without the expression and source location
/// (which differ between the two implementations by construction).
std::string reason_of(const Error& e) {
  const std::string what = e.what();
  const std::string sep = " — ";
  const auto at = what.find(sep);
  return at == std::string::npos ? what : what.substr(at + sep.size());
}

struct Outcome {
  std::optional<graph::Graph> graph;
  std::string error;
};

template <typename Apply>
Outcome outcome_of(Apply&& apply) {
  Outcome out;
  try {
    out.graph = apply();
  } catch (const Error& e) {
    out.error = reason_of(e);
  }
  return out;
}

/// Applies `batch` with both implementations and expects the same graph bit
/// for bit, or the same error. Returns the result, if there is one.
std::optional<graph::Graph> expect_matches_spec(const graph::Graph& g,
                                                const std::vector<EdgeUpdate>& batch,
                                                const std::string& context) {
  const Outcome want = outcome_of([&] { return spec_apply_edge_updates(g, batch); });
  const Outcome got = outcome_of([&] { return apply_edge_updates(g, batch); });
  EXPECT_EQ(got.error, want.error) << context;
  EXPECT_EQ(got.graph.has_value(), want.graph.has_value()) << context;
  if (got.graph && want.graph) {
    EXPECT_TRUE(testing::bit_identical(*got.graph, *want.graph)) << context;
  }
  return got.graph;
}

/// A weight that is not a sum of binary fractions, so fold order shows in
/// the last bits.
wt_t fractional(Xoshiro256& rng) { return 0.05 + static_cast<wt_t>(rng.next_below(4000)) / 37.0; }

/// Random multigraph with fractional weights, self-loops and a tail of
/// isolated vertices.
graph::Graph random_graph(Xoshiro256& rng) {
  const auto n = static_cast<vid_t>(8 + rng.next_below(150));
  const vid_t connected = n - n / 6;
  const std::uint64_t m = rng.next_below(3 * static_cast<std::uint64_t>(connected));
  graph::GraphBuilder b(n);
  for (std::uint64_t i = 0; i < m; ++i) {
    const auto u = static_cast<vid_t>(rng.next_below(connected));
    const auto v = rng.next_below(10) == 0 ? u : static_cast<vid_t>(rng.next_below(connected));
    b.add_edge(u, v, fractional(rng));
  }
  return b.build();
}

/// Random batch against `g`: inserts anywhere (isolated vertices included),
/// partial and over-removals of existing edges in either orientation, and
/// repeats of earlier keys. Four batches in five remove each edge at most
/// once and repeat only as inserts, so they apply; in the others a removal
/// may name an edge an earlier update erased, and both implementations must
/// then throw alike.
std::vector<EdgeUpdate> random_batch(const graph::Graph& g, Xoshiro256& rng) {
  const vid_t n = g.num_vertices();
  const std::size_t size = 1 + rng.next_below(2 * g.num_edges() + 8);
  const bool valid = rng.next_below(5) != 0;
  std::set<std::uint64_t> removed;
  std::vector<EdgeUpdate> batch;
  while (batch.size() < size) {
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 4 || g.num_edges() == 0) {
      const auto u = static_cast<vid_t>(rng.next_below(n));
      const auto v = rng.next_below(8) == 0 ? u : static_cast<vid_t>(rng.next_below(n));
      batch.push_back({u, v, fractional(rng), false});
    } else if (kind < 8) {
      const auto u = static_cast<vid_t>(rng.next_below(n));
      const auto nbrs = g.neighbors(u);
      if (nbrs.empty()) continue;
      const std::size_t i = rng.next_below(nbrs.size());
      if (valid && !removed.insert(edge_key(u, nbrs[i])).second) continue;
      const wt_t w = g.weights(u)[i];
      const wt_t take = rng.next_below(3) == 0 ? w * 1.5 : w * (0.1 + 0.8 * rng.next_double());
      if (rng.next_below(2) == 0) batch.push_back({u, nbrs[i], take, true});
      else batch.push_back({nbrs[i], u, take, true});
    } else if (!batch.empty()) {
      EdgeUpdate again = batch[rng.next_below(batch.size())];
      std::swap(again.u, again.v);
      again.weight = fractional(rng) / 4;
      if (valid) again.remove = false;
      batch.push_back(again);
    }
  }
  return batch;
}

TEST(ApplyUpdatesSpec, RandomGraphsAndBatchesMatchBitForBit) {
  const std::uint64_t base = base_seed();
  std::cout << "[harness] GALA_DIFF_SEED=" << base << "\n";
  constexpr int kTrials = 40;
  constexpr int kBatchesPerTrial = 5;
  int applied = 0, rejected = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = splitmix64(base ^ (0x9e3779b97f4a7c15ULL * (trial + 1)));
    Xoshiro256 rng(seed);
    graph::Graph g = random_graph(rng);
    for (int b = 0; b < kBatchesPerTrial; ++b) {
      const auto batch = random_batch(g, rng);
      const std::string context = "repro: GALA_DIFF_SEED=" + std::to_string(base) +
                                  " trial_seed=" + std::to_string(seed) + " batch " +
                                  std::to_string(b);
      auto next = expect_matches_spec(g, batch, context);
      if (::testing::Test::HasFailure()) return;
      if (!next) {
        ++rejected;
        continue;
      }
      ++applied;
      g = std::move(*next);
    }
  }
  // Both outcomes must be exercised, the successful one mostly.
  EXPECT_GT(applied, kTrials * kBatchesPerTrial / 2);
  EXPECT_GT(rejected, 0);
}

/// Two triangles {0,1,2} and {3,4,5} joined by the bridge {2,3}, with
/// fractional weights, a self-loop on 1 and isolated vertices 6 and 7.
graph::Graph weighted_triangles() {
  graph::GraphBuilder b(8);
  b.add_edge(0, 1, 0.7);
  b.add_edge(1, 2, 1.3);
  b.add_edge(0, 2, 2.1);
  b.add_edge(3, 4, 0.9);
  b.add_edge(4, 5, 1.1);
  b.add_edge(3, 5, 0.3);
  b.add_edge(2, 3, 0.6);
  b.add_edge(1, 1, 0.4);
  return b.build();
}

TEST(ApplyUpdatesSpec, DuplicateUpdatesInBothOrientations) {
  const auto g = weighted_triangles();
  expect_matches_spec(g,
                      {{0, 4, 0.1, false}, {4, 0, 0.2, false}, {0, 4, 0.3, false},
                       {1, 2, 0.1, false}, {2, 1, 0.2, false}, {2, 1, 0.05, true}},
                      "duplicates");
}

TEST(ApplyUpdatesSpec, SelfLoops) {
  const auto g = weighted_triangles();
  expect_matches_spec(g, {{1, 1, 0.1, false}, {1, 1, 0.2, true}}, "grow then shrink a loop");
  expect_matches_spec(g, {{1, 1, 0.4, true}}, "remove a loop exactly");
  expect_matches_spec(g, {{1, 1, 9.0, true}, {6, 6, 0.3, false}}, "over-remove, new loop");
}

TEST(ApplyUpdatesSpec, PartialAndOverRemoval) {
  const auto g = weighted_triangles();
  expect_matches_spec(g, {{2, 3, 0.2, true}, {3, 2, 0.2, true}}, "two partial removals");
  expect_matches_spec(g, {{2, 3, 0.3, true}, {3, 2, 0.3, true}}, "partial removals to ~0");
  expect_matches_spec(g, {{0, 2, 100.0, true}, {4, 5, 1.1, true}}, "over and exact removal");
  expect_matches_spec(g, {{0, 2, 2.1 - 1e-13, true}}, "remainder within the erase tolerance");
}

TEST(ApplyUpdatesSpec, RemoveThenReinsertOneEdge) {
  const auto g = weighted_triangles();
  expect_matches_spec(g, {{2, 3, 5.0, true}, {3, 2, 0.25, false}, {2, 3, 0.5, false}},
                      "erase, re-create, grow");
  expect_matches_spec(g, {{0, 6, 0.5, false}, {6, 0, 0.5, true}, {0, 6, 0.7, false}},
                      "create, erase, re-create a new edge");
  expect_matches_spec(g, {{0, 7, 0.5, false}, {7, 0, 0.9, true}}, "create then over-remove");
}

TEST(ApplyUpdatesSpec, EmptyBatch) {
  expect_matches_spec(weighted_triangles(), {}, "triangles");
  expect_matches_spec(graph::GraphBuilder(5).build(), {}, "edgeless");
  expect_matches_spec(graph::GraphBuilder(0).build(), {}, "no vertices");
  expect_matches_spec(testing::small_planted(3, 300, 6, 0.2), {}, "planted");
}

TEST(ApplyUpdatesSpec, IsolatedVertices) {
  const auto g = weighted_triangles();
  expect_matches_spec(g, {{6, 7, 1.5, false}, {7, 0, 0.5, false}, {5, 6, 0.1, false}},
                      "connect the isolated tail");
  expect_matches_spec(graph::GraphBuilder(4).build(), {{3, 0, 1.0, false}, {1, 1, 2.0, false}},
                      "edgeless graph gains edges");
}

TEST(ApplyUpdatesSpec, BatchLargerThanTheGraph) {
  const auto g = weighted_triangles();
  std::vector<EdgeUpdate> batch;
  for (vid_t u = 0; u < 8; ++u) {
    for (vid_t v = 0; v < 8; ++v) batch.push_back({u, v, 0.01 * (1 + u + 3 * v), false});
  }
  batch.push_back({2, 3, 0.2, true});
  batch.push_back({6, 6, 10.0, true});
  ASSERT_GT(batch.size(), g.num_edges());
  expect_matches_spec(g, batch, "every pair, both ways");
}

TEST(ApplyUpdatesSpec, ErrorsNameTheFirstOffendingUpdate) {
  const auto g = weighted_triangles();
  const auto reason = [&](const std::vector<EdgeUpdate>& batch) {
    return outcome_of([&] { return apply_edge_updates(g, batch); }).error;
  };
  const vid_t n = g.num_vertices();
  const wt_t nan = std::numeric_limits<wt_t>::quiet_NaN();
  const std::vector<std::vector<EdgeUpdate>> batches = {
      // A valid removal of a key, then the removal of what it erased.
      {{2, 3, 0.6, true}, {3, 2, 0.1, true}},
      // A valid insert and over-removal of a new key, then one removal more.
      {{0, 5, 1.0, false}, {5, 0, 2.0, true}, {0, 5, 1.0, true}},
      // A removal error before an out-of-range update...
      {{0, 1, 0.1, false}, {0, 6, 1.0, true}, {0, n, 1.0, false}},
      // ...and after one, and after a bad weight, of the same key.
      {{0, 1, 0.1, false}, {n, 0, 1.0, false}, {0, 6, 1.0, true}},
      {{0, 6, 0.0, false}, {0, 6, 1.0, true}},
      {{0, 4, 1.0, false}, {0, 4, nan, false}},
      {{0, 4, -1.0, true}},
      {{n, n, 1.0, true}},
      // Two removal errors: the earlier one in batch order is reported.
      {{5, 7, 1.0, true}, {0, 6, 1.0, true}},
      {{0, 6, 1.0, true}, {5, 7, 1.0, true}},
  };
  const std::vector<std::string> expected = {
      "removing non-existent edge {3,2}",     "removing non-existent edge {0,5}",
      "removing non-existent edge {0,6}",     "update touches vertex outside the graph",
      "update weight must be positive",       "update weight must be positive",
      "update weight must be positive",       "update touches vertex outside the graph",
      "removing non-existent edge {5,7}",     "removing non-existent edge {0,6}",
  };
  for (std::size_t i = 0; i < batches.size(); ++i) {
    expect_matches_spec(g, batches[i], "error batch " + std::to_string(i));
    EXPECT_EQ(reason(batches[i]), expected[i]) << "error batch " << i;
  }
}

}  // namespace
}  // namespace gala::core
