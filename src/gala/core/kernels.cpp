#include "gala/core/kernels.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "gala/common/error.hpp"
#include "gala/gpusim/block.hpp"
#include "gala/telemetry/telemetry.hpp"

namespace gala::core {
namespace {

using gpusim::kSharedBanks;
using gpusim::kWarpSize;
using gpusim::MemoryStats;

/// (community, partial d_C(v)) pair spilled by chunk leaders.
struct SpillEntry {
  cid_t community;
  wt_t weight;
};

/// One warp's chunk of a row, executed natively. The communities of the
/// non-self-loop lanes are kept in first-appearance (= leader-lane) order,
/// each with its weight summed in lane order from wt_t{}: exactly the groups
/// __match_any_sync forms and the sums __reduce_add_sync hands their leaders.
struct ChunkGroups {
  std::uint64_t active = 0;    ///< p: lanes that are not self-loops
  std::uint64_t groups = 0;    ///< g: distinct communities
  std::uint64_t segments = 0;  ///< s: distinct 32-id segments of the C[u] gather
  std::array<cid_t, kWarpSize> community;
  std::array<wt_t, kWarpSize> weight;
};

ChunkGroups execute_chunk(const DecideInput& in, vid_t v, std::span<const vid_t> nbrs,
                          std::span<const wt_t> ws) {
  ChunkGroups c;
  std::uint64_t last_segment = ~std::uint64_t{0};
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const vid_t u = nbrs[i];
    if (u == v) continue;  // self-loops cancel out of every comparison
    ++c.active;
    // Rows are sorted, so distinct segments are the changes of u/32.
    const std::uint64_t segment = u / kWarpSize;
    if (segment != last_segment) {
      ++c.segments;
      last_segment = segment;
    }
    const cid_t cu = in.comm[u];
    std::uint64_t k = 0;
    while (k < c.groups && c.community[k] != cu) ++k;
    if (k == c.groups) {
      c.community[k] = cu;
      c.weight[k] = wt_t{};
      ++c.groups;
    }
    c.weight[k] += ws[i];
  }
  return c;
}

/// `count` warp-wide instructions with `active` useful lanes each.
void charge_warp_instructions(std::uint64_t count, std::uint64_t active, MemoryStats& stats) {
  stats.simt_lane_slots += count * kWarpSize;
  stats.simt_active_lanes += count * active;
}

/// The three warp instructions every chunk with an active lane runs: the C[u] gather
/// (one transaction per segment), __match_any_sync (one shuffle) and the
/// segmented __reduce_add_sync (one shuffle per group).
void charge_chunk(const ChunkGroups& c, MemoryStats& stats) {
  stats.gather_requests += 1;
  stats.gather_transactions += c.segments;
  stats.shuffle_ops += 1 + c.groups;
  stats.register_ops += 2 * c.active;
  charge_warp_instructions(3, c.active, stats);
}

}  // namespace

Decision shuffle_decide(const DecideInput& in, vid_t v, gpusim::SharedMemoryArena& spill_arena,
                        MemoryStats& stats) {
  const graph::Graph& g = *in.g;
  const cid_t curr = in.comm[v];
  const wt_t dv = g.degree(v);
  const auto nbrs = g.neighbors(v);
  const auto ws = g.weights(v);
  const std::size_t deg = nbrs.size();
  // Wider rows spill to shared memory; exhaustion throws before any charge.
  const bool multi_chunk = deg > static_cast<std::size_t>(kWarpSize);
  std::span<SpillEntry> spill;
  if (multi_chunk) spill = spill_arena.allocate<SpillEntry>(deg);
  // Loads: neighbour id, edge weight, C[u] per lane (Alg. 2 lines 2-4).
  stats.global_reads += 3 * deg;

  wt_t e_curr = 0;
  BestTracker tracker;
  auto score = [&](cid_t c, wt_t weight) {
    if (c == curr) e_curr = weight;
    return move_score(weight, in.comm_total[c], dv, in.two_m, c == curr, in.resolution);
  };

  if (!multi_chunk) {
    // Registers only (Alg. 2 lines 5-9): gather, match, reduce-add, then per
    // group leader a D_V(C) load, one __reduce_max_sync and the winner
    // election (a ballot + min-reduce on hardware; the tracker's
    // smaller-id tie-break is the same rule).
    const ChunkGroups c = execute_chunk(in, v, nbrs, ws);
    if (c.active > 0) {
      charge_chunk(c, stats);
      stats.global_reads += c.groups;
      stats.shuffle_ops += 2;
      stats.register_ops += c.active;
      charge_warp_instructions(1, c.active, stats);
      for (std::uint64_t k = 0; k < c.groups; ++k) {
        tracker.offer(c.community[k], score(c.community[k], c.weight[k]));
      }
    }
  } else {
    // Chunk leaders spill (community, partial sum) to shared memory as one
    // warp-wide store; consecutive 16-byte slots conflict only every eighth
    // slot. The in-place linear merge that consolidates the spill list
    // (entry j scans the unique prefix until it finds its community) is
    // charged per entry from the first-occurrence index a native lookup
    // gives: 1 + (index + 1 | unique count) reads and one write.
    constexpr std::uint64_t kSpillWords = sizeof(SpillEntry) / 4;
    std::unordered_map<cid_t, std::size_t> position;  // community -> unique index
    std::uint64_t spill_count = 0;
    std::size_t unique = 0;
    for (std::size_t base = 0; base < deg; base += kWarpSize) {
      const std::size_t lanes = std::min<std::size_t>(kWarpSize, deg - base);
      const ChunkGroups c =
          execute_chunk(in, v, nbrs.subspan(base, lanes), ws.subspan(base, lanes));
      if (c.active == 0) continue;
      charge_chunk(c, stats);
      int per_bank[kSharedBanks] = {};
      int waves = 0;
      for (std::uint64_t k = 0; k < c.groups; ++k, ++spill_count) {
        waves = std::max(waves, ++per_bank[spill_count * kSpillWords % kSharedBanks]);
        const auto [it, inserted] = position.try_emplace(c.community[k], unique);
        if (inserted) {
          stats.shared_reads += 1 + unique;
          spill[unique++] = {c.community[k], c.weight[k]};
        } else {
          stats.shared_reads += 2 + it->second;
          spill[it->second].weight += c.weight[k];
        }
      }
      stats.shared_writes += c.groups;
      stats.shared_requests += 1;
      stats.shared_waves += static_cast<std::uint64_t>(waves);
      charge_warp_instructions(1, c.groups, stats);
    }
    stats.shared_writes += spill_count;  // one write per merged entry
    // Score every consolidated community: a shared read, a D_V(C) load and
    // a register op each.
    stats.shared_reads += unique;
    stats.global_reads += unique;
    stats.register_ops += unique;
    for (std::size_t k = 0; k < unique; ++k) {
      tracker.offer(spill[k].community, score(spill[k].community, spill[k].weight));
    }
  }

  Decision result;
  result.weight_to_curr = e_curr;
  stats.global_reads += 1;  // D_V(C[v])
  result.curr_score = move_score(e_curr, in.comm_total[curr], dv, in.two_m, /*in_community=*/true, in.resolution);
  if (tracker.best == kInvalidCid) {
    result.best = curr;
    result.best_score = result.curr_score;
  } else {
    result.best = tracker.best;
    result.best_score = tracker.score;
  }
  return result;
}

namespace {

Decision hash_decide_impl(const DecideInput& in, vid_t v, HashTablePolicy policy,
                          gpusim::SharedMemoryArena& arena, HashScratch& global_scratch,
                          std::uint64_t salt, MemoryStats& stats) {
  const graph::Graph& g = *in.g;
  const cid_t curr = in.comm[v];
  const wt_t dv = g.degree(v);
  const auto nbrs = g.neighbors(v);
  const auto ws = g.weights(v);
  const std::size_t deg = nbrs.size();

  Decision result;
  if (deg == 0) {
    result.best = curr;
    stats.global_reads += 1;
    result.curr_score = move_score(0, in.comm_total[curr], dv, in.two_m, true, in.resolution);
    result.best_score = result.curr_score;
    return result;
  }

  NeighborCommunityTable table(policy, arena, global_scratch, static_cast<vid_t>(deg), salt,
                               stats);

  // Threads stride over the adjacency (Alg. 3 lines 4-10); sequentially
  // simulated, identical traffic.
  for (std::size_t i = 0; i < deg; ++i) {
    const vid_t u = nbrs[i];
    stats.global_reads += 3;  // neighbour id, weight, C[u]
    if (u == v) continue;
    table.upsert(in.comm[u], ws[i], [&](cid_t c) { return in.comm_total[c]; });
  }

  // Score every neighbouring community; the block-wide max over the
  // threads' my_best_C candidates (lines 11-15) is a shared-memory tree
  // reduction, charged explicitly.
  BestTracker tracker;
  wt_t e_curr = 0;
  table.for_each([&](cid_t c, wt_t weight, wt_t total) {
    stats.register_ops += 1;
    const wt_t score = move_score(weight, total, dv, in.two_m, c == curr, in.resolution);
    if (c == curr) e_curr = weight;
    tracker.offer(c, score);
  });
  gpusim::block::charge_tree_reduction(std::min<std::size_t>(table.size(), 256), stats);
  table.reset();

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

}  // namespace

Decision hash_decide(const DecideInput& in, vid_t v, HashTablePolicy policy,
                     gpusim::SharedMemoryArena& arena, HashScratch& global_scratch,
                     std::uint64_t salt, MemoryStats& stats) {
  if (policy == HashTablePolicy::GlobalOnly) {
    return hash_decide_impl(in, v, policy, arena, global_scratch, salt, stats);
  }
  try {
    return hash_decide_impl(in, v, policy, arena, global_scratch, salt, stats);
  } catch (const ResourceExhausted&) {
    // Degradation ladder (§4.2 read backwards): shared-memory pressure —
    // arena exhaustion, real or injected — retries this vertex with every
    // bucket in global memory. Exhaustion can only be thrown from the table
    // constructor, before any traffic is charged, so the retry accounts
    // cleanly. Decisions are policy-independent: same result, more global
    // traffic.
    telemetry::Registry::global().counter("resilience.hashtable_fallbacks").add(1);
    return hash_decide_impl(in, v, HashTablePolicy::GlobalOnly, arena, global_scratch, salt,
                            stats);
  }
}

std::string to_string(KernelMode mode) {
  switch (mode) {
    case KernelMode::Auto:
      return "auto";
    case KernelMode::ShuffleOnly:
      return "shuffle-only";
    case KernelMode::HashOnly:
      return "hash-only";
  }
  return "?";
}

bool use_shuffle_kernel(const graph::Graph& g, vid_t v, const DecideDispatch& d) {
  if (d.mode == KernelMode::ShuffleOnly) return true;
  return d.mode == KernelMode::Auto && g.out_degree(v) < d.shuffle_degree_limit;
}

Decision decide_vertex(const DecideInput& in, vid_t v, const DecideDispatch& d,
                       gpusim::SharedMemoryArena& arena, HashScratch& global_scratch,
                       std::uint64_t salt, MemoryStats& stats) {
  arena.reset();
  if (use_shuffle_kernel(*in.g, v, d)) return shuffle_decide(in, v, arena, stats);
  return hash_decide(in, v, d.hashtable, arena, global_scratch, salt, stats);
}

cid_t apply_move_guard(const Decision& d, cid_t curr, std::span<const vid_t> comm_size) {
  if (d.best == kInvalidCid || d.best == curr) return curr;
  if (d.best_score <= d.curr_score) return curr;  // strict improvement only (Lemma 5)
  // Grappolo's singleton-swap guard: two singleton communities may only
  // merge toward the smaller id, or BSP rounds would swap them forever.
  if (comm_size[curr] == 1 && comm_size[d.best] == 1 && d.best > curr) return curr;
  return d.best;
}

}  // namespace gala::core
