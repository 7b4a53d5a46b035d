#include "gala/graph/csr.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace gala::graph {

void GraphBuilder::add_edge(vid_t u, vid_t v, wt_t w) {
  GALA_CHECK(u < num_vertices_ && v < num_vertices_,
             "edge (" << u << "," << v << ") out of range [0," << num_vertices_ << ")");
  GALA_CHECK(w > 0, "edge weight must be positive, got " << w);
  edges_.push_back({u, v, w});
}

Graph GraphBuilder::build() {
  // Bucket the directed entries by source row — both directions for u != v,
  // once for loops — in insertion order, then sort each row stably by
  // neighbour. Duplicates therefore sum in insertion order in both rows, so
  // the two directions of a repeated edge stay bit-equal.
  Graph g;
  g.offsets_.assign(static_cast<std::size_t>(num_vertices_) + 1, 0);
  for (const RawEdge& e : edges_) {
    ++g.offsets_[e.src + 1];
    if (e.src != e.dst) ++g.offsets_[e.dst + 1];
  }
  std::partial_sum(g.offsets_.begin(), g.offsets_.end(), g.offsets_.begin());
  struct Entry {
    vid_t dst;
    wt_t weight;
  };
  std::vector<Entry> directed(g.offsets_.back());
  {
    std::vector<eid_t> fill(g.offsets_.begin(), g.offsets_.end() - 1);
    for (const RawEdge& e : edges_) {
      directed[fill[e.src]++] = {e.dst, e.weight};
      if (e.src != e.dst) directed[fill[e.dst]++] = {e.src, e.weight};
    }
  }
  edges_.clear();
  edges_.shrink_to_fit();

  g.neighbors_.reserve(directed.size());
  g.weights_.reserve(directed.size());
  g.self_loops_.assign(num_vertices_, 0);

  // Merge duplicates (same neighbour) by summing weights while emitting CSR;
  // offsets_ turns from bucket bounds into row bounds as it goes.
  auto row_begin = directed.begin();
  for (vid_t v = 0; v < num_vertices_; ++v) {
    const auto row_end = directed.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v + 1]);
    if (row_end - row_begin > 1) {
      std::stable_sort(row_begin, row_end,
                       [](const Entry& a, const Entry& b) { return a.dst < b.dst; });
    }
    for (auto it = row_begin; it != row_end;) {
      const vid_t dst = it->dst;
      wt_t w = it->weight;
      for (++it; it != row_end && it->dst == dst; ++it) w += it->weight;
      g.neighbors_.push_back(dst);
      g.weights_.push_back(w);
      if (dst == v) g.self_loops_[v] = w;
    }
    g.offsets_[v + 1] = static_cast<eid_t>(g.neighbors_.size());
    row_begin = row_end;
  }

  // Degrees and totals. Self-loops appear once in the adjacency, so adding
  // self_loops_[v] on top counts them twice in d(v).
  g.degrees_.assign(num_vertices_, 0);
  wt_t adj_weight = 0;  // sum over directed adjacency
  wt_t loop_weight = 0;
  for (vid_t v = 0; v < num_vertices_; ++v) {
    wt_t d = 0;
    for (eid_t e = g.offsets_[v]; e < g.offsets_[v + 1]; ++e) d += g.weights_[e];
    adj_weight += d;
    loop_weight += g.self_loops_[v];
    g.degrees_[v] = d + g.self_loops_[v];
    g.max_out_degree_ = std::max(g.max_out_degree_, g.out_degree(v));
  }
  // adj_weight counts each non-loop edge twice and each loop once.
  g.total_weight_ = (adj_weight - loop_weight) / 2 + loop_weight;

  eid_t loops = 0;
  for (vid_t v = 0; v < num_vertices_; ++v) {
    if (g.self_loops_[v] > 0) ++loops;
  }
  g.num_undirected_edges_ = (g.num_adjacency() - loops) / 2 + loops;
  return g;
}

Graph GraphBuilder::from_sorted_csr(vid_t num_vertices, std::vector<eid_t> offsets,
                                    std::vector<vid_t> neighbors, std::vector<wt_t> weights) {
  GALA_CHECK(offsets.size() == static_cast<std::size_t>(num_vertices) + 1,
             "from_sorted_csr: offset array size mismatch");
  GALA_CHECK(neighbors.size() == weights.size(), "from_sorted_csr: adjacency/weight size mismatch");
  GALA_CHECK(offsets.back() == static_cast<eid_t>(neighbors.size()),
             "from_sorted_csr: final offset != adjacency size");

  Graph g;
  g.offsets_ = std::move(offsets);
  g.neighbors_ = std::move(neighbors);
  g.weights_ = std::move(weights);
  g.self_loops_.assign(num_vertices, 0);
  g.degrees_.assign(num_vertices, 0);

  // Same derived-field formulas as build(): d(v) = row sum + self-loop (so
  // loops count twice), adj_weight counts each non-loop edge twice and each
  // loop once.
  wt_t adj_weight = 0;
  wt_t loop_weight = 0;
  eid_t loops = 0;
  for (vid_t v = 0; v < num_vertices; ++v) {
    wt_t d = 0;
    for (eid_t e = g.offsets_[v]; e < g.offsets_[v + 1]; ++e) {
      if (g.neighbors_[e] == v) {
        g.self_loops_[v] = g.weights_[e];
        ++loops;
      }
      d += g.weights_[e];
    }
    adj_weight += d;
    loop_weight += g.self_loops_[v];
    g.degrees_[v] = d + g.self_loops_[v];
    g.max_out_degree_ = std::max(g.max_out_degree_, g.out_degree(v));
  }
  g.total_weight_ = (adj_weight - loop_weight) / 2 + loop_weight;
  g.num_undirected_edges_ = (g.num_adjacency() - loops) / 2 + loops;
  return g;
}

void Graph::validate() const {
  const vid_t n = num_vertices();
  GALA_CHECK(offsets_.size() == static_cast<std::size_t>(n) + 1 || (n == 0 && offsets_.empty()),
             "offset array size mismatch");
  GALA_CHECK(neighbors_.size() == weights_.size(), "adjacency/weight size mismatch");
  wt_t degree_sum = 0;
  for (vid_t v = 0; v < n; ++v) {
    auto nbrs = neighbors(v);
    auto ws = weights(v);
    wt_t d = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      GALA_CHECK(nbrs[i] < n, "neighbor out of range");
      GALA_CHECK(ws[i] > 0, "non-positive weight");
      if (i > 0) GALA_CHECK(nbrs[i - 1] < nbrs[i], "adjacency not strictly sorted at v=" << v);
      d += ws[i];
      // Symmetry: the reverse edge must exist with the same weight.
      if (nbrs[i] != v) {
        auto rn = neighbors(nbrs[i]);
        auto it = std::lower_bound(rn.begin(), rn.end(), v);
        GALA_CHECK(it != rn.end() && *it == v, "missing reverse edge " << nbrs[i] << "->" << v);
        const auto idx = static_cast<std::size_t>(it - rn.begin());
        GALA_CHECK(std::abs(this->weights(nbrs[i])[idx] - ws[i]) < 1e-12,
                   "asymmetric weight on edge {" << v << "," << nbrs[i] << "}");
      }
    }
    GALA_CHECK(std::abs(d + self_loop(v) - degree(v)) < 1e-9, "degree mismatch at v=" << v);
    degree_sum += degree(v);
  }
  GALA_CHECK(std::abs(degree_sum - two_m()) < 1e-6 * std::max<wt_t>(1, two_m()),
             "sum of degrees (" << degree_sum << ") != 2|E| (" << two_m() << ")");
}

std::string summary(const Graph& g) {
  std::ostringstream os;
  os << "V=" << g.num_vertices() << " E=" << g.num_edges() << " |E|_w=" << g.total_weight()
     << " max_deg=" << g.max_out_degree();
  return os.str();
}

}  // namespace gala::graph
