// Output checks computed apart from the library: the benchmark keeps its
// own copy of every input graph and recomputes modularity, NMI, partition
// identity, edge-weight totals and query answers with the code in this file
// only. Nothing here calls into gala's algorithms; it reads gala's types.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gala/common/types.hpp"
#include "gala/graph/csr.hpp"

namespace perfbench {

using gala::cid_t;
using gala::vid_t;
using gala::wt_t;

/// CSR arrays: each undirected edge {u,v}, u != v, appears in both rows; a
/// self-loop appears once in its row.
struct CsrView {
  std::span<const std::uint64_t> offsets;
  std::span<const vid_t> adj;
  std::span<const wt_t> w;

  vid_t num_vertices() const { return offsets.empty() ? 0 : static_cast<vid_t>(offsets.size() - 1); }
};

/// The benchmark's own copy of a generated graph, taken before the library
/// writes and reloads it, so that a loader fault shows as a wrong Q.
struct Csr {
  std::vector<std::uint64_t> offsets;
  std::vector<vid_t> adj;
  std::vector<wt_t> w;

  CsrView view() const { return {offsets, adj, w}; }
};

Csr copy_csr(const gala::graph::Graph& g);
CsrView view_of(const gala::graph::Graph& g);

/// |E|: the summed weight of undirected edges, self-loops counted once.
wt_t total_weight(CsrView g);

/// Classical modularity Q = sum_C [in_C / 2m - (tot_C / 2m)^2], where a
/// self-loop of weight w adds 2w to both the degree and in_C.
wt_t modularity(CsrView g, std::span<const cid_t> labels);

/// "" when `labels` has one entry per vertex and uses exactly the ids
/// [0, k) for some k; otherwise the reason.
std::string check_dense(std::span<const cid_t> labels, std::size_t num_vertices);

/// True when `a` and `b` group the vertices identically (labels may differ).
bool same_partition(std::span<const cid_t> a, std::span<const cid_t> b);

/// Normalised mutual information, sqrt normalisation: I / sqrt(H_a H_b).
double nmi(std::span<const cid_t> a, std::span<const cid_t> b);

/// Vertices whose community changed between two epochs: v is unmoved iff
/// the members of its community in `from` are exactly the members of its
/// community in `to`. Ascending ids.
std::vector<vid_t> moved_between(std::span<const cid_t> from, std::span<const cid_t> to);

/// Member count of every label of `labels` (labels must be dense).
std::vector<vid_t> label_sizes(std::span<const cid_t> labels);

/// Checks that answers given for `vertices` name the same communities as
/// the reference `labels` (same answer iff same reference label). Reusable
/// buffers so that one check costs O(|vertices|).
class LabelBijection {
 public:
  /// "" when consistent, otherwise the reason.
  std::string check(std::span<const vid_t> vertices, std::span<const cid_t> answers,
                    std::span<const cid_t> labels);

 private:
  std::vector<cid_t> forward_, backward_;
  std::vector<std::uint32_t> forward_stamp_, backward_stamp_;
  std::uint32_t stamp_ = 0;
};

// ------------------------------------------------ operation verdicts

/// GALA's Q may trail the sequential oracle's by at most this share.
inline constexpr double kOracleGap = 0.05;
/// The one check that marks a known fault of the program rather than a
/// wrong output: a run whose only failures are oracle gaps stays correct.
inline constexpr const char* kOracleGapCheck = "oracle-gap";

/// The first failing check of one operation.
struct Verdict {
  std::string check, why;
  bool ok() const { return check.empty(); }
  void require(bool cond, const char* name, const std::string& reason) {
    if (!cond && ok()) {
      check = name;
      why = reason;
    }
  }
};

/// Counts operations; an operation whose verdict is not ok is failed. The
/// first failure of each (operation, check) pair is printed to stderr.
class Tally {
 public:
  void record(const std::string& op, const Verdict& v);
  /// A failure outside any counted operation (the warm-up reference).
  void reference_broken(const std::string& why);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  std::uint64_t attempted_ = 0, failed_ = 0;
  bool correct_ = true;
  std::map<std::string, int> reported_;
};

/// What every partition of an input graph must satisfy.
struct PartitionExpect {
  CsrView graph;
  std::span<const cid_t> reference;  ///< must group identically; empty: unchecked
  std::span<const cid_t> truth;      ///< ground truth for NMI; empty: unchecked
  double nmi_floor = 0;
  double oracle_q = 0;  ///< sequential oracle's Q; 0: unchecked
};

/// Dense ids, Q recomputed from the CSR equal to the reported Q, NMI at or
/// above the floor, the same grouping as the reference, and Q within
/// kOracleGap of the oracle's — in that order; the first failure wins.
Verdict check_partition(std::span<const cid_t> labels, double reported_q,
                        const PartitionExpect& expect);

/// The benchmark's own record of one published epoch, against which every
/// query answer is checked.
struct EpochRef {
  std::vector<cid_t> labels;
  std::vector<vid_t> sizes;      ///< member count per label
  std::vector<vid_t> top_sizes;  ///< the top_k largest sizes, descending
};
std::shared_ptr<const EpochRef> make_epoch_ref(std::vector<cid_t> labels, std::size_t top_k);

/// Checks of query answers against an EpochRef; "" when right.
std::string check_sizes(const EpochRef& ref, std::span<const vid_t> vertices,
                        std::span<const vid_t> sizes);
std::string check_top_k(const EpochRef& ref, std::span<const cid_t> communities,
                        std::span<const vid_t> sizes);
std::string check_diff(const EpochRef& from, const EpochRef& to, std::span<const vid_t> moved);

}  // namespace perfbench
