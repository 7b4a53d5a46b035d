// The two DecideAndMove kernels against a brute-force reference: identical
// best-community decisions on randomized states, across degrees spanning
// the single-warp and multi-chunk regimes, plus the shared move guard.
//
// The ShuffleSpec suite holds the specification of the shuffle kernel: a
// lane-by-lane simulation of Algorithm 2 on the gpusim warp primitives.
// The library's shuffle_decide executes natively and charges its traffic in
// closed form; it must return a bit-identical Decision and charge every
// MemoryStats field exactly as the lane simulation does.
#include "gala/core/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <ostream>

#include "gala/common/error.hpp"
#include "gala/common/prng.hpp"
#include "gala/graph/generators.hpp"
#include "test_util.hpp"

namespace gala::core {
namespace {

/// Brute-force DecideAndMove: exact per-community weights via std::map.
Decision reference_decide(const DecideInput& in, vid_t v) {
  const graph::Graph& g = *in.g;
  const cid_t curr = in.comm[v];
  const wt_t dv = g.degree(v);
  std::map<cid_t, wt_t> acc;
  auto nbrs = g.neighbors(v);
  auto ws = g.weights(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] != v) acc[in.comm[nbrs[i]]] += ws[i];
  }
  Decision d;
  d.weight_to_curr = acc.count(curr) ? acc[curr] : 0;
  d.curr_score = move_score(d.weight_to_curr, in.comm_total[curr], dv, in.two_m, true);
  d.best = kInvalidCid;
  for (const auto& [c, w] : acc) {
    const wt_t score = move_score(w, in.comm_total[c], dv, in.two_m, c == curr);
    if (d.best == kInvalidCid || score > d.best_score || (score == d.best_score && c < d.best)) {
      d.best = c;
      d.best_score = score;
    }
  }
  if (d.best == kInvalidCid) {
    d.best = curr;
    d.best_score = d.curr_score;
  }
  return d;
}

/// Randomized state: each vertex in one of k communities.
struct State {
  std::vector<cid_t> comm;
  std::vector<wt_t> comm_total;
};

State random_state(const graph::Graph& g, cid_t k, std::uint64_t seed) {
  State s;
  s.comm.resize(g.num_vertices());
  s.comm_total.assign(g.num_vertices(), 0);
  Xoshiro256 rng(seed);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    s.comm[v] = static_cast<cid_t>(rng.next_below(k));
    s.comm_total[s.comm[v]] += g.degree(v);
  }
  return s;
}

void expect_same_decision(const Decision& got, const Decision& want, vid_t v) {
  EXPECT_EQ(got.best, want.best) << "vertex " << v;
  EXPECT_NEAR(got.best_score, want.best_score, 1e-9) << "vertex " << v;
  EXPECT_NEAR(got.curr_score, want.curr_score, 1e-9) << "vertex " << v;
  EXPECT_NEAR(got.weight_to_curr, want.weight_to_curr, 1e-9) << "vertex " << v;
}

// ---- lane-level specification of shuffle_decide ----------------------------

using gpusim::kWarpSize;
using gpusim::LaneMask;
using gpusim::WarpValues;

/// (community, partial d_C(v)) pair spilled by chunk leaders.
struct SpillEntry {
  cid_t community;
  wt_t weight;
};

/// Algorithm 2 simulated lane by lane: every warp collective, gather and
/// shared store runs through gpusim::warp, which charges its traffic.
Decision lane_shuffle_decide(const DecideInput& in, vid_t v,
                             gpusim::SharedMemoryArena& spill_arena,
                             gpusim::MemoryStats& stats) {
  const graph::Graph& g = *in.g;
  const cid_t curr = in.comm[v];
  const wt_t dv = g.degree(v);
  const auto nbrs = g.neighbors(v);
  const auto ws = g.weights(v);
  const std::size_t deg = nbrs.size();

  Decision result;
  wt_t e_curr = 0;
  BestTracker tracker;

  const bool multi_chunk = deg > static_cast<std::size_t>(kWarpSize);
  std::span<SpillEntry> spill;
  std::size_t spill_count = 0;
  if (multi_chunk) spill = spill_arena.allocate<SpillEntry>(deg);

  for (std::size_t base = 0; base < deg; base += kWarpSize) {
    const int lanes = static_cast<int>(std::min<std::size_t>(kWarpSize, deg - base));
    LaneMask active = gpusim::warp::first_lanes(lanes);
    WarpValues<cid_t> my_c{};
    WarpValues<wt_t> my_w{};
    for (int i = 0; i < lanes; ++i) {
      const vid_t u = nbrs[base + i];
      stats.global_reads += 3;  // neighbour id, edge weight, C[u]
      if (u == v) {
        active &= ~(LaneMask{1} << i);
        continue;
      }
      my_c[i] = in.comm[u];
      my_w[i] = ws[base + i];
    }
    if (active == 0) continue;

    {
      WarpValues<vid_t> addrs{};
      for (int i = 0; i < lanes; ++i) addrs[i] = nbrs[base + i];
      gpusim::warp::gather_transactions(active, addrs, stats);
    }

    const auto masks = gpusim::warp::match_any(active, my_c, stats);
    const auto sums = gpusim::warp::segmented_reduce_add(active, masks, my_w, stats);

    if (!multi_chunk) {
      WarpValues<wt_t> my_dq{};
      for (int i = 0; i < kWarpSize; ++i) my_dq[i] = std::numeric_limits<wt_t>::lowest();
      for (int i = 0; i < kWarpSize; ++i) {
        if (!((active >> i) & 1u)) continue;
        if (gpusim::warp::leader_lane(masks[i]) != i) continue;
        const cid_t c = my_c[i];
        stats.global_reads += 1;  // D_V(C)
        my_dq[i] = move_score(sums[i], in.comm_total[c], dv, in.two_m, c == curr, in.resolution);
        if (c == curr) e_curr = sums[i];
      }
      const wt_t max_dq = gpusim::warp::reduce_max(active, my_dq, stats);
      stats.shuffle_ops += 1;  // winner election
      for (int i = 0; i < kWarpSize; ++i) {
        if (((active >> i) & 1u) && my_dq[i] == max_dq) tracker.offer(my_c[i], my_dq[i]);
      }
    } else {
      constexpr std::uint64_t kSpillWords = sizeof(SpillEntry) / 4;
      LaneMask leaders = 0;
      WarpValues<std::uint64_t> spill_words{};
      for (int i = 0; i < kWarpSize; ++i) {
        if (!((active >> i) & 1u)) continue;
        if (gpusim::warp::leader_lane(masks[i]) != i) continue;
        leaders |= (LaneMask{1} << i);
        spill_words[i] = static_cast<std::uint64_t>(spill_count) * kSpillWords;
        spill[spill_count++] = {my_c[i], sums[i]};
        stats.shared_writes += 1;
      }
      if (leaders != 0) gpusim::warp::shared_transactions(leaders, spill_words, stats);
    }
  }

  if (multi_chunk) {
    std::size_t unique = 0;
    for (std::size_t j = 0; j < spill_count; ++j) {
      stats.shared_reads += 1;
      bool merged = false;
      for (std::size_t k = 0; k < unique; ++k) {
        stats.shared_reads += 1;
        if (spill[k].community == spill[j].community) {
          spill[k].weight += spill[j].weight;
          stats.shared_writes += 1;
          merged = true;
          break;
        }
      }
      if (!merged) {
        spill[unique] = spill[j];
        stats.shared_writes += 1;
        ++unique;
      }
    }
    for (std::size_t k = 0; k < unique; ++k) {
      stats.shared_reads += 1;
      stats.global_reads += 1;  // D_V(C)
      const cid_t c = spill[k].community;
      const wt_t score =
          move_score(spill[k].weight, in.comm_total[c], dv, in.two_m, c == curr, in.resolution);
      stats.register_ops += 1;
      if (c == curr) e_curr = spill[k].weight;
      tracker.offer(c, score);
    }
  }

  result.weight_to_curr = e_curr;
  stats.global_reads += 1;  // D_V(C[v])
  result.curr_score = move_score(e_curr, in.comm_total[curr], dv, in.two_m, true, in.resolution);
  if (tracker.best == kInvalidCid) {
    result.best = curr;
    result.best_score = result.curr_score;
  } else {
    result.best = tracker.best;
    result.best_score = tracker.score;
  }
  return result;
}

std::uint64_t bits(wt_t x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bit_identical(const Decision& got, const Decision& want, vid_t v) {
  EXPECT_EQ(got.best, want.best) << "vertex " << v;
  EXPECT_EQ(bits(got.best_score), bits(want.best_score)) << "vertex " << v;
  EXPECT_EQ(bits(got.curr_score), bits(want.curr_score)) << "vertex " << v;
  EXPECT_EQ(bits(got.weight_to_curr), bits(want.weight_to_curr)) << "vertex " << v;
}

void expect_same_stats(const gpusim::MemoryStats& got, const gpusim::MemoryStats& want,
                       vid_t v) {
#define GALA_EXPECT_FIELD(f) EXPECT_EQ(got.f, want.f) << #f << " at vertex " << v
  GALA_EXPECT_FIELD(global_reads);
  GALA_EXPECT_FIELD(global_writes);
  GALA_EXPECT_FIELD(global_atomics);
  GALA_EXPECT_FIELD(shared_reads);
  GALA_EXPECT_FIELD(shared_writes);
  GALA_EXPECT_FIELD(shared_atomics);
  GALA_EXPECT_FIELD(register_ops);
  GALA_EXPECT_FIELD(shuffle_ops);
  GALA_EXPECT_FIELD(ht_maintain_shared);
  GALA_EXPECT_FIELD(ht_maintain_global);
  GALA_EXPECT_FIELD(ht_access_shared);
  GALA_EXPECT_FIELD(ht_access_global);
  GALA_EXPECT_FIELD(gather_requests);
  GALA_EXPECT_FIELD(gather_transactions);
  GALA_EXPECT_FIELD(simt_lane_slots);
  GALA_EXPECT_FIELD(simt_active_lanes);
  GALA_EXPECT_FIELD(shared_requests);
  GALA_EXPECT_FIELD(shared_waves);
  GALA_EXPECT_FIELD(ht_lookups);
  GALA_EXPECT_FIELD(ht_probes);
  GALA_EXPECT_FIELD(ht_tables);
  GALA_EXPECT_FIELD(ht_probe_hist);
  GALA_EXPECT_FIELD(ht_occupancy_hist);
#undef GALA_EXPECT_FIELD
  // Catches any field added to MemoryStats after this list was written.
  EXPECT_TRUE(got == want) << "MemoryStats differ at vertex " << v;
}

/// Runs the library kernel and the lane specification on every vertex of
/// `g` (shuffle kernel for every degree, as in ShuffleOnly mode) and checks
/// decisions, traffic and spill footprint; returns the vertices checked.
std::size_t expect_matches_lane_spec(const graph::Graph& g, std::span<const cid_t> comm,
                                     wt_t resolution) {
  std::vector<wt_t> comm_total(g.num_vertices(), 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v) comm_total[comm[v]] += g.degree(v);
  const DecideInput input{&g, comm, comm_total, g.two_m(), resolution};
  gpusim::SharedMemoryArena got_arena(48 * 1024);
  gpusim::SharedMemoryArena want_arena(48 * 1024);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    got_arena.reset();
    want_arena.reset();
    gpusim::MemoryStats got_stats;
    gpusim::MemoryStats want_stats;
    const Decision got = shuffle_decide(input, v, got_arena, got_stats);
    const Decision want = lane_shuffle_decide(input, v, want_arena, want_stats);
    expect_bit_identical(got, want, v);
    expect_same_stats(got_stats, want_stats, v);
    EXPECT_EQ(got_arena.used_bytes(), want_arena.used_bytes()) << "vertex " << v;
    if (::testing::Test::HasFailure()) return v;
  }
  return g.num_vertices();
}

std::vector<cid_t> random_communities(vid_t n, cid_t k, std::uint64_t seed) {
  std::vector<cid_t> comm(n);
  Xoshiro256 rng(seed);
  for (auto& c : comm) c = static_cast<cid_t>(rng.next_below(k));
  return comm;
}

/// Vertex `hub` joined to `degree` other vertices (ids around it, so the
/// row crosses several 32-id segments) with weights from `seed`; optional
/// self-loop on the hub.
graph::Graph star(vid_t hub, vid_t degree, bool self_loop, std::uint64_t seed) {
  const vid_t n = std::max<vid_t>(hub + 1, degree + 1);
  graph::GraphBuilder b(n);
  Xoshiro256 rng(seed);
  for (vid_t u = 0, added = 0; added < degree; ++u) {
    if (u == hub) continue;
    b.add_edge(hub, u, 0.25 + rng.next_double() * 4);
    ++added;
  }
  if (self_loop) b.add_edge(hub, hub, 3.5);
  // A few leaf-leaf edges so the other rows are not all degree 1.
  for (vid_t u = 1; u + 1 < n; u += 3) {
    if (u != hub && u + 1 != hub) b.add_edge(u, u + 1, 1.0 + static_cast<wt_t>(u % 5));
  }
  return b.build();
}

TEST(ShuffleSpec, StarDegreesAcrossTheWarpBoundary) {
  for (const vid_t degree : {0u, 1u, 31u, 32u, 33u, 64u, 65u, 100u, 200u}) {
    for (const cid_t k : {1u, 3u, 1000u}) {
      SCOPED_TRACE("degree " + std::to_string(degree) + ", k " + std::to_string(k));
      const auto g = star(/*hub=*/degree / 2, degree, /*self_loop=*/false, degree + k);
      const auto comm = random_communities(g.num_vertices(), std::min<cid_t>(k, g.num_vertices()), k);
      expect_matches_lane_spec(g, comm, 1.0);
    }
  }
}

TEST(ShuffleSpec, SelfLoops) {
  // Only a self-loop: the chunk has no active lane.
  graph::GraphBuilder b(3);
  b.add_edge(0, 0, 2.0);
  b.add_edge(1, 2, 1.0);
  const auto loop_only = b.build();
  expect_matches_lane_spec(loop_only, std::vector<cid_t>{0, 1, 1}, 1.0);
  // A self-loop in the middle of a single-chunk and of a multi-chunk row.
  for (const vid_t degree : {20u, 31u, 32u, 70u}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    const auto g = star(/*hub=*/degree / 3, degree, /*self_loop=*/true, degree);
    expect_matches_lane_spec(g, random_communities(g.num_vertices(), 4, degree), 1.0);
  }
}

TEST(ShuffleSpec, CommunityExtremes) {
  const auto g = graph::erdos_renyi(120, 2400, 9);
  std::vector<cid_t> one(g.num_vertices(), 0);
  expect_matches_lane_spec(g, one, 1.0);
  std::vector<cid_t> distinct(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v) distinct[v] = v;
  expect_matches_lane_spec(g, distinct, 1.0);
}

TEST(ShuffleSpec, WeightedGraphsAndResolution) {
  graph::PlantedPartitionParams p;
  p.num_vertices = 600;
  p.num_communities = 12;
  p.avg_degree = 24;
  p.degree_exponent = 2.2;  // skewed: rows on both sides of the warp
  p.seed = 4;
  const auto planted = graph::planted_partition(p);
  // Contracting into random groups gives self-loops and non-unit weights.
  graph::GraphBuilder b(150);
  const auto group = random_communities(planted.num_vertices(), 150, 8);
  for (vid_t v = 0; v < planted.num_vertices(); ++v) {
    const auto nbrs = planted.neighbors(v);
    const auto ws = planted.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] > v) b.add_edge(group[v], group[nbrs[i]], ws[i] * (1 + (v + i) % 3));
    }
  }
  const auto weighted = b.build();
  for (const wt_t resolution : {1.0, 0.7, 1.6}) {
    SCOPED_TRACE("resolution " + std::to_string(resolution));
    expect_matches_lane_spec(planted, random_communities(planted.num_vertices(), 40, 2),
                             resolution);
    expect_matches_lane_spec(weighted, random_communities(weighted.num_vertices(), 9, 3),
                             resolution);
  }
}

TEST(ShuffleSpec, RandomGraphFamilies) {
  graph::RmatParams r;
  r.scale = 10;
  r.seed = 3;
  const auto rmat = graph::rmat(r);
  for (const cid_t k : {2u, 30u, 1024u}) {
    SCOPED_TRACE("k " + std::to_string(k));
    expect_matches_lane_spec(rmat, random_communities(rmat.num_vertices(), k, k), 1.0);
    const auto er = graph::erdos_renyi(200, 3000, k);
    expect_matches_lane_spec(er, random_communities(er.num_vertices(), std::min<cid_t>(k, 200), k),
                             0.7);
  }
}

TEST(ShuffleSpec, SpillExhaustionThrowsBeforeAnyCharge) {
  const auto g = star(/*hub=*/0, 100, /*self_loop=*/false, 1);
  const auto comm = random_communities(g.num_vertices(), 5, 1);
  std::vector<wt_t> comm_total(g.num_vertices(), 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v) comm_total[comm[v]] += g.degree(v);
  const DecideInput input{&g, comm, comm_total, g.two_m()};
  gpusim::SharedMemoryArena tiny(100 * sizeof(SpillEntry) - 1);
  gpusim::MemoryStats stats;
  EXPECT_THROW(shuffle_decide(input, 0, tiny, stats), ResourceExhausted);
  EXPECT_TRUE(stats == gpusim::MemoryStats{});
}

struct KernelCase {
  vid_t n;
  eid_t m;
  cid_t k;
  std::uint64_t seed;
};

// The case's printed value names its test. Without this gtest prints the
// raw bytes, padding included, and the name changes from build to build.
void PrintTo(const KernelCase& c, std::ostream* os) {
  *os << "n" << c.n << "_m" << c.m << "_k" << c.k << "_seed" << c.seed;
}

class KernelAgreement : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelAgreement, BothKernelsMatchBruteForce) {
  const auto param = GetParam();
  const auto g = graph::erdos_renyi(param.n, param.m, param.seed);
  const State s = random_state(g, param.k, param.seed ^ 7);
  const DecideInput input{&g, s.comm, s.comm_total, g.two_m()};

  gpusim::SharedMemoryArena arena(48 * 1024);
  HashScratch scratch;
  gpusim::MemoryStats stats;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const Decision want = reference_decide(input, v);
    arena.reset();
    expect_same_decision(shuffle_decide(input, v, arena, stats), want, v);
    for (const auto policy : {HashTablePolicy::GlobalOnly, HashTablePolicy::Unified,
                              HashTablePolicy::Hierarchical}) {
      arena.reset();
      expect_same_decision(hash_decide(input, v, policy, arena, scratch, 99, stats), want, v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DegreeRegimes, KernelAgreement,
    ::testing::Values(KernelCase{40, 80, 5, 1},      // small degrees, single warp
                      KernelCase{60, 900, 4, 2},     // medium degrees around 32
                      KernelCase{50, 1100, 12, 3},   // multi-chunk shuffle path
                      KernelCase{30, 420, 29, 4},    // nearly one community per vertex
                      KernelCase{64, 2000, 2, 5}));  // dense, few communities

TEST(Kernels, SelfLoopsAreExcludedFromDecisions) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 0, 100.0);  // huge self-loop must not attract anyone
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  const auto g = b.build();
  State s = random_state(g, 3, 11);
  s.comm = {0, 1, 2};
  s.comm_total.assign(3, 0);
  for (vid_t v = 0; v < 3; ++v) s.comm_total[s.comm[v]] += g.degree(v);
  const DecideInput input{&g, s.comm, s.comm_total, g.two_m()};
  gpusim::SharedMemoryArena arena(48 * 1024);
  HashScratch scratch;
  gpusim::MemoryStats stats;
  const Decision d = shuffle_decide(input, 0, arena, stats);
  // Vertex 0's own self-loop contributes nothing to e_{0,C}.
  EXPECT_DOUBLE_EQ(d.weight_to_curr, 0.0);
  expect_same_decision(d, reference_decide(input, 0), 0);
}

TEST(Kernels, ShuffleChargesRegistersHashChargesTables) {
  const auto g = graph::erdos_renyi(40, 200, 3);
  const State s = random_state(g, 6, 3);
  const DecideInput input{&g, s.comm, s.comm_total, g.two_m()};
  gpusim::SharedMemoryArena arena(48 * 1024);
  HashScratch scratch;

  gpusim::MemoryStats shuffle_stats;
  gpusim::MemoryStats hash_stats;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    arena.reset();
    shuffle_decide(input, v, arena, shuffle_stats);
    arena.reset();
    hash_decide(input, v, HashTablePolicy::Hierarchical, arena, scratch, 1, hash_stats);
  }
  EXPECT_GT(shuffle_stats.shuffle_ops, 0u);
  EXPECT_EQ(hash_stats.shuffle_ops, 0u);
  EXPECT_GT(hash_stats.ht_access_shared + hash_stats.ht_access_global, 0u);
}

TEST(MoveGuard, MovesOnlyOnStrictImprovement) {
  std::vector<vid_t> sizes = {2, 2};
  Decision d;
  d.best = 1;
  d.best_score = 1.0;
  d.curr_score = 1.0;  // tie: stay (Lemma 5 convention)
  EXPECT_EQ(apply_move_guard(d, 0, sizes), 0u);
  d.best_score = 1.5;
  EXPECT_EQ(apply_move_guard(d, 0, sizes), 1u);
  d.best_score = 0.5;
  EXPECT_EQ(apply_move_guard(d, 0, sizes), 0u);
}

TEST(MoveGuard, SingletonSwapOnlyTowardSmallerId) {
  std::vector<vid_t> sizes = {1, 1, 5};
  Decision up;
  up.best = 1;
  up.best_score = 2.0;
  up.curr_score = 0.0;
  EXPECT_EQ(apply_move_guard(up, 0, sizes), 0u) << "singleton->singleton upward blocked";
  Decision down = up;
  down.best = 0;
  EXPECT_EQ(apply_move_guard(down, 1, sizes), 0u) << "downward allowed";
  // Moving into a non-singleton community is always allowed on gain.
  Decision into_big = up;
  into_big.best = 2;
  EXPECT_EQ(apply_move_guard(into_big, 0, sizes), 2u);
}

TEST(MoveGuard, InvalidBestStays) {
  std::vector<vid_t> sizes = {1};
  Decision d;  // best = kInvalidCid
  EXPECT_EQ(apply_move_guard(d, 0, sizes), 0u);
}

}  // namespace
}  // namespace gala::core
