#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <unordered_map>

namespace perfbench {

Csr copy_csr(const gala::graph::Graph& g) {
  Csr c;
  c.offsets.assign(g.offsets().begin(), g.offsets().end());
  c.adj.assign(g.adjacency().begin(), g.adjacency().end());
  c.w.assign(g.adjacency_weights().begin(), g.adjacency_weights().end());
  return c;
}

CsrView view_of(const gala::graph::Graph& g) {
  return {g.offsets(), g.adjacency(), g.adjacency_weights()};
}

wt_t total_weight(CsrView g) {
  wt_t twice = 0;  // non-loop edges are seen from both ends
  wt_t loops = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      if (g.adj[e] == v) loops += g.w[e];
      else twice += g.w[e];
    }
  }
  return twice / 2 + loops;
}

wt_t modularity(CsrView g, std::span<const cid_t> labels) {
  const vid_t n = g.num_vertices();
  cid_t k = 0;
  for (cid_t c : labels) k = std::max(k, c + 1);
  std::vector<wt_t> in(k, 0), tot(k, 0);
  wt_t two_m = 0;
  for (vid_t v = 0; v < n; ++v) {
    const cid_t cv = labels[v];
    for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const vid_t u = g.adj[e];
      const wt_t w = u == v ? 2 * g.w[e] : g.w[e];
      tot[cv] += w;
      two_m += w;
      if (labels[u] == cv) in[cv] += w;
    }
  }
  if (two_m <= 0) return 0;
  wt_t q = 0;
  for (cid_t c = 0; c < k; ++c) q += in[c] / two_m - (tot[c] / two_m) * (tot[c] / two_m);
  return q;
}

std::string check_dense(std::span<const cid_t> labels, std::size_t num_vertices) {
  if (labels.size() != num_vertices) {
    return "assignment has " + std::to_string(labels.size()) + " entries for " +
           std::to_string(num_vertices) + " vertices";
  }
  cid_t k = 0;
  for (cid_t c : labels) k = std::max(k, c + 1);
  if (k > labels.size()) return "community id " + std::to_string(k - 1) + " is not dense";
  std::vector<std::uint8_t> used(k, 0);
  for (cid_t c : labels) used[c] = 1;
  for (cid_t c = 0; c < k; ++c) {
    if (!used[c]) return "community id " + std::to_string(c) + " is unused below the maximum";
  }
  return "";
}

bool same_partition(std::span<const cid_t> a, std::span<const cid_t> b) {
  if (a.size() != b.size()) return false;
  std::unordered_map<cid_t, cid_t> ab, ba;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto [it, fresh] = ab.emplace(a[i], b[i]);
    if (!fresh && it->second != b[i]) return false;
    const auto [jt, fresh_b] = ba.emplace(b[i], a[i]);
    if (!fresh_b && jt->second != a[i]) return false;
  }
  return true;
}

double nmi(std::span<const cid_t> a, std::span<const cid_t> b) {
  const std::size_t n = a.size();
  if (n == 0 || n != b.size()) return 0;
  std::unordered_map<cid_t, double> ca, cb;
  std::unordered_map<std::uint64_t, double> joint;
  for (std::size_t i = 0; i < n; ++i) {
    ca[a[i]] += 1;
    cb[b[i]] += 1;
    joint[(static_cast<std::uint64_t>(a[i]) << 32) | b[i]] += 1;
  }
  const double dn = static_cast<double>(n);
  auto entropy = [dn](const std::unordered_map<cid_t, double>& counts) {
    double h = 0;
    for (const auto& [label, c] : counts) h -= c / dn * std::log(c / dn);
    return h;
  };
  double mi = 0;
  for (const auto& [key, c] : joint) {
    const double pa = ca[static_cast<cid_t>(key >> 32)] / dn;
    const double pb = cb[static_cast<cid_t>(key & 0xffffffffu)] / dn;
    mi += c / dn * std::log((c / dn) / (pa * pb));
  }
  const double ha = entropy(ca), hb = entropy(cb);
  if (ha <= 0 || hb <= 0) return ha == hb ? 1.0 : 0.0;
  return mi / std::sqrt(ha * hb);
}

std::vector<vid_t> label_sizes(std::span<const cid_t> labels) {
  cid_t k = 0;
  for (cid_t c : labels) k = std::max(k, c + 1);
  std::vector<vid_t> sizes(k, 0);
  for (cid_t c : labels) ++sizes[c];
  return sizes;
}

std::vector<vid_t> moved_between(std::span<const cid_t> from, std::span<const cid_t> to) {
  const std::vector<vid_t> from_size = label_sizes(from);
  const std::vector<vid_t> to_size = label_sizes(to);
  std::unordered_map<std::uint64_t, vid_t> pair;
  auto key = [&](std::size_t v) { return (static_cast<std::uint64_t>(from[v]) << 32) | to[v]; };
  for (std::size_t v = 0; v < from.size(); ++v) ++pair[key(v)];
  std::vector<vid_t> moved;
  for (std::size_t v = 0; v < from.size(); ++v) {
    const vid_t shared = pair[key(v)];
    if (shared != from_size[from[v]] || shared != to_size[to[v]]) {
      moved.push_back(static_cast<vid_t>(v));
    }
  }
  return moved;
}

std::string LabelBijection::check(std::span<const vid_t> vertices,
                                  std::span<const cid_t> answers,
                                  std::span<const cid_t> labels) {
  if (answers.size() != vertices.size()) return "answer count differs from query count";
  if (++stamp_ == 0) {  // wrapped: forget every stale stamp
    std::fill(forward_stamp_.begin(), forward_stamp_.end(), 0);
    std::fill(backward_stamp_.begin(), backward_stamp_.end(), 0);
    stamp_ = 1;
  }
  auto slot = [](std::vector<cid_t>& map, std::vector<std::uint32_t>& stamps, cid_t key) {
    if (key >= stamps.size()) {
      stamps.resize(static_cast<std::size_t>(key) + 1, 0);
      map.resize(static_cast<std::size_t>(key) + 1, 0);
    }
    return key;
  };
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    if (vertices[i] >= labels.size()) return "queried vertex out of range";
    const cid_t answer = answers[i];
    const cid_t expected = labels[vertices[i]];
    const cid_t f = slot(forward_, forward_stamp_, answer);
    const cid_t b = slot(backward_, backward_stamp_, expected);
    if (forward_stamp_[f] == stamp_ && forward_[f] != expected) {
      return "vertex " + std::to_string(vertices[i]) + " shares answer " +
             std::to_string(answer) + " with a vertex of another community";
    }
    if (backward_stamp_[b] == stamp_ && backward_[b] != answer) {
      return "vertex " + std::to_string(vertices[i]) + " got answer " + std::to_string(answer) +
             " but a co-member got " + std::to_string(backward_[b]);
    }
    forward_stamp_[f] = stamp_;
    forward_[f] = expected;
    backward_stamp_[b] = stamp_;
    backward_[b] = answer;
  }
  return "";
}

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

void Tally::record(const std::string& op, const Verdict& v) {
  ++attempted_;
  if (v.ok()) return;
  ++failed_;
  if (v.check != kOracleGapCheck) correct_ = false;
  if (reported_[op + "/" + v.check]++ == 0) {
    std::fprintf(stderr, "perfbench: %s failed %s: %s\n", op.c_str(), v.check.c_str(),
                 v.why.c_str());
  }
}

void Tally::reference_broken(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: reference detect failed: %s\n", why.c_str());
}

Verdict check_partition(std::span<const cid_t> labels, double reported_q,
                        const PartitionExpect& expect) {
  Verdict v;
  const std::string dense = check_dense(labels, expect.graph.num_vertices());
  v.require(dense.empty(), "dense-ids", dense);
  if (!v.ok()) return v;
  const double q = modularity(expect.graph, labels);
  v.require(std::abs(reported_q - q) <= 1e-9 * std::max(1.0, std::abs(q)), "modularity",
            "reported Q " + fmt(reported_q) + " but the partition has Q " + fmt(q));
  if (!expect.truth.empty()) {
    const double score = nmi(labels, expect.truth);
    v.require(score >= expect.nmi_floor, "nmi",
              "NMI " + fmt(score) + " below the floor " + fmt(expect.nmi_floor));
  }
  if (!expect.reference.empty()) {
    v.require(same_partition(labels, expect.reference), "engine-parity",
              "partition differs from the reference partition");
  }
  if (expect.oracle_q > 0) {
    v.require(reported_q >= (1 - kOracleGap) * expect.oracle_q, kOracleGapCheck,
              "Q " + fmt(reported_q) + " trails the sequential oracle's " +
                  fmt(expect.oracle_q) + " by more than " + fmt(kOracleGap * 100) + "%");
  }
  return v;
}

std::shared_ptr<const EpochRef> make_epoch_ref(std::vector<cid_t> labels, std::size_t top_k) {
  auto ref = std::make_shared<EpochRef>();
  ref->labels = std::move(labels);
  ref->sizes = label_sizes(ref->labels);
  ref->top_sizes = ref->sizes;
  std::sort(ref->top_sizes.begin(), ref->top_sizes.end(), std::greater<>());
  if (ref->top_sizes.size() > top_k) ref->top_sizes.resize(top_k);
  return ref;
}

std::string check_sizes(const EpochRef& ref, std::span<const vid_t> vertices,
                        std::span<const vid_t> sizes) {
  if (sizes.size() != vertices.size()) return "size answer count differs from query count";
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const vid_t expected = ref.sizes[ref.labels[vertices[i]]];
    if (sizes[i] != expected) {
      return "community size of vertex " + std::to_string(vertices[i]) + " is " +
             std::to_string(sizes[i]) + ", expected " + std::to_string(expected);
    }
  }
  return "";
}

std::string check_top_k(const EpochRef& ref, std::span<const cid_t> communities,
                        std::span<const vid_t> sizes) {
  if (!std::equal(sizes.begin(), sizes.end(), ref.top_sizes.begin(), ref.top_sizes.end())) {
    return "top-k sizes differ from the largest community sizes";
  }
  if (std::set<cid_t>(communities.begin(), communities.end()).size() != communities.size()) {
    return "top-k names a community twice";
  }
  return "";
}

std::string check_diff(const EpochRef& from, const EpochRef& to, std::span<const vid_t> moved) {
  const std::vector<vid_t> expected = moved_between(from.labels, to.labels);
  if (!std::equal(moved.begin(), moved.end(), expected.begin(), expected.end())) {
    return "diff reports " + std::to_string(moved.size()) + " moved vertices, expected " +
           std::to_string(expected.size());
  }
  return "";
}

}  // namespace perfbench
