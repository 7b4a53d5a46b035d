#include "gala/core/incremental.hpp"

#include <algorithm>
#include <utility>

#include "gala/core/aggregation.hpp"
#include "gala/core/modularity.hpp"

namespace gala::core {
namespace {

std::uint64_t edge_key(vid_t u, vid_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Final state of one directed adjacency entry the batch touched.
struct Change {
  vid_t src;
  vid_t dst;
  wt_t weight;
  bool present;
};

}  // namespace

graph::Graph apply_edge_updates(const graph::Graph& g, std::span<const EdgeUpdate> updates) {
  const vid_t n = g.num_vertices();
  // Only the updates before the first out-of-range or non-positive one are
  // folded: a removal of an absent edge among them is the earlier error.
  const std::size_t valid = static_cast<std::size_t>(
      std::find_if(updates.begin(), updates.end(),
                   [n](const EdgeUpdate& up) { return !(up.u < n && up.v < n && up.weight > 0); }) -
      updates.begin());
  std::vector<std::pair<std::uint64_t, std::size_t>> order(valid);  // (key, batch index)
  for (std::size_t i = 0; i < valid; ++i) order[i] = {edge_key(updates[i].u, updates[i].v), i};
  std::sort(order.begin(), order.end());

  // Fold each edge's updates in batch order over the weight row min(u, v)
  // holds, with the arithmetic of an accumulating map: an absent edge starts
  // from 0, a removal erases the edge once at most 1e-12 is left.
  std::size_t first_error = valid;
  std::vector<Change> changes;
  changes.reserve(2 * order.size());
  for (std::size_t i = 0; i < order.size();) {
    const std::uint64_t key = order[i].first;
    const auto a = static_cast<vid_t>(key >> 32);
    const auto b = static_cast<vid_t>(key & 0xffffffffu);
    const auto row = g.neighbors(a);
    const auto it = std::lower_bound(row.begin(), row.end(), b);
    bool present = it != row.end() && *it == b;
    wt_t w = present ? g.weights(a)[static_cast<std::size_t>(it - row.begin())] : 0.0;
    for (; i < order.size() && order[i].first == key; ++i) {
      const EdgeUpdate& up = updates[order[i].second];
      if (!up.remove) {
        w = (present ? w : 0.0) + up.weight;
        present = true;
      } else if (!present) {
        first_error = std::min(first_error, order[i].second);
        while (i + 1 < order.size() && order[i + 1].first == key) ++i;
      } else {
        w -= up.weight;
        if (w <= 1e-12) present = false;
      }
    }
    changes.push_back({a, b, w, present});
    if (a != b) changes.push_back({b, a, w, present});
  }
  if (first_error < updates.size()) {
    // Out of range, not positive, or else a removal of an absent edge.
    const EdgeUpdate& up = updates[first_error];
    GALA_CHECK(up.u < n && up.v < n, "update touches vertex outside the graph");
    GALA_CHECK(up.weight > 0, "update weight must be positive");
    GALA_CHECK(!up.remove, "removing non-existent edge {" << up.u << "," << up.v << "}");
  }
  std::sort(changes.begin(), changes.end(), [](const Change& x, const Change& y) {
    return x.src != y.src ? x.src < y.src : x.dst < y.dst;
  });

  // Rows no change names are copied whole; the others merge their sorted
  // changes in: a change replaces or drops the entry it names, or inserts it.
  const auto old_offsets = g.offsets();
  const auto old_adj = g.adjacency();
  const auto old_w = g.adjacency_weights();
  std::vector<eid_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<vid_t> adj;
  std::vector<wt_t> weights;
  adj.reserve(old_adj.size() + changes.size());
  weights.reserve(old_adj.size() + changes.size());
  const auto copy = [&](eid_t from, eid_t to) {
    adj.insert(adj.end(), old_adj.begin() + from, old_adj.begin() + to);
    weights.insert(weights.end(), old_w.begin() + from, old_w.begin() + to);
  };
  auto c = changes.begin();
  for (vid_t v = 0; v < n; ++v) {
    eid_t e = old_offsets[v];
    const eid_t end = old_offsets[v + 1];
    for (; c != changes.end() && c->src == v; ++c) {
      const eid_t at = static_cast<eid_t>(
          std::lower_bound(old_adj.begin() + e, old_adj.begin() + end, c->dst) - old_adj.begin());
      copy(e, at);
      e = at < end && old_adj[at] == c->dst ? at + 1 : at;
      if (c->present) {
        adj.push_back(c->dst);
        weights.push_back(c->weight);
      }
    }
    copy(e, end);
    offsets[v + 1] = static_cast<eid_t>(adj.size());
  }
  return graph::GraphBuilder::from_sorted_csr(n, std::move(offsets), std::move(adj),
                                              std::move(weights));
}

IncrementalResult update_communities(const graph::Graph& g, std::span<const cid_t> previous,
                                     std::span<const EdgeUpdate> updates,
                                     const GalaConfig& config) {
  GALA_CHECK(previous.size() == g.num_vertices(), "assignment size mismatch");
  IncrementalResult result;
  result.graph = apply_edge_updates(g, updates);

  // Round 1: warm-started repair. MG pruning deactivates the untouched bulk
  // on iteration 0.
  std::vector<cid_t> warm(previous.begin(), previous.end());
  renumber_communities(warm);
  BspLouvainEngine engine(result.graph, config.bsp, warm);
  const Phase1Result repair = engine.run();
  result.repair_iterations = static_cast<int>(repair.iterations.size());
  for (const auto& it : repair.iterations) result.evaluated_vertices += it.active;

  // Contract the repaired partition and finish with the standard pipeline.
  AggregationResult agg = aggregate(result.graph, repair.community);
  result.assignment = agg.fine_to_coarse;
  if (agg.num_communities > 1 && agg.num_communities < result.graph.num_vertices()) {
    GalaConfig rest = config;
    const GalaResult deeper = run_louvain(agg.coarse, rest);
    result.assignment = compose_assignment(result.assignment, deeper.assignment);
  }
  result.num_communities = renumber_communities(result.assignment);
  result.modularity = modularity(result.graph, result.assignment, config.bsp.resolution);
  return result;
}

}  // namespace gala::core
