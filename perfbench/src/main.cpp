// Benchmark program: file-to-partition detect on the BSP, BLAS and
// distributed engines, and streaming repair with a concurrent query reader.
//
//   gala_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir> [--keep-inputs]
//
// One run: set up (generate the input, write it as a binary graph file,
// warm up with one detect, publish it), then whole rounds until the time is
// spent. A round is one detect per engine, each from graph::load_binary of
// the file to a complete assignment, then a fixed number of edge batches,
// each repaired with core::update_communities and published to a
// query::CommunityStore while one reader thread queries the store. Every
// output is checked with checks.hpp. The last stdout line is the result
// JSON; --trace 1 drives each engine level by level under spans instead and
// reports per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "gala/core/gala.hpp"
#include "gala/core/incremental.hpp"
#include "gala/core/modularity.hpp"
#include "gala/core/sequential_louvain.hpp"
#include "gala/graph/generators.hpp"
#include "gala/graph/io.hpp"
#include "gala/memtrace/memtrace.hpp"
#include "gala/multigpu/dist_louvain.hpp"
#include "gala/query/executor.hpp"
#include "gala/query/store.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace core = gala::core;
namespace graph = gala::graph;
namespace query = gala::query;
namespace multigpu = gala::multigpu;

// ---------------------------------------------------------------- workloads

enum class Kind { Planted, Rmat, Lfr };

struct Workload {
  const char* name;
  Kind kind;
  int batches_per_round;
  /// NMI floor against the generator's ground truth (0: no ground truth).
  double nmi_floor;
  /// Check detects against the sequential oracle's Q. Only on the fixed
  /// RMAT graph: on planted graphs the gap crosses kOracleGap on some
  /// seeds only, and a check must fail on every seed or on none.
  bool oracle_check;
};

constexpr Workload kWorkloads[] = {
    {"planted-uniform", Kind::Planted, 1, 0.70, false},
    {"rmat-hubs", Kind::Rmat, 1, 0.0, true},
    {"lfr-stream", Kind::Lfr, 4, 0.80, false},
};

// Each batch deletes this many existing edges and inserts this many new
// unit-weight edges between random vertex pairs.
constexpr int kBatchDeletions = 100;
constexpr int kBatchInsertions = 200;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kPointGroup = 64;
constexpr std::size_t kBatchQuery = 1024;  // below the executor grain: runs on the reader
constexpr std::size_t kTopK = 10;
constexpr int kDiffEvery = 256;  // reader cycles per cross-epoch diff
constexpr int kDistDevices = 4;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Input {
  graph::Graph graph;
  std::vector<cid_t> truth;  // empty without ground truth
};

Input generate(const Workload& w, std::uint64_t seed) {
  Input in;
  switch (w.kind) {
    case Kind::Planted: {
      graph::PlantedPartitionParams p;
      p.num_vertices = 100000;
      p.num_communities = 500;
      p.avg_degree = 16;
      p.mixing = 0.3;
      p.degree_exponent = 0;  // uniform degree propensity
      p.seed = mix(seed, 1);
      in.graph = graph::planted_partition(p, &in.truth);
      break;
    }
    case Kind::Rmat: {
      // Fixed seed: the oracle-gap fault this graph shows must fail the
      // same operations in every run, whatever --seed is.
      graph::RmatParams p;
      p.scale = 18;
      p.edge_factor = 8;
      p.seed = 1;
      in.graph = graph::rmat(p);
      break;
    }
    case Kind::Lfr: {
      // Fixed seed: the workload's seeded part is its stream of edge
      // batches and reads. Over seeds the LFR graph's detect cost spread
      // 0.08-0.12 between quartiles, more than the host's noise.
      graph::LfrParams p;
      p.num_vertices = 100000;
      p.mixing = 0.3;
      p.seed = 1;
      in.graph = graph::lfr(p, in.truth);
      break;
    }
  }
  return in;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// --------------------------------------------------------- per-layer sums

/// Per-layer samples (one per detect or batch); reported as medians.
struct Layers {
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> bsp_level_q;  // Q after each level of the first BSP detect
  void add(const std::string& name, double v) { samples[name].push_back(v); }
};

// ------------------------------------------------------------------ detect

enum class Engine { Bsp, Blas, Dist };
const char* engine_name(Engine e) {
  return e == Engine::Bsp ? "bsp" : e == Engine::Blas ? "blas" : "dist";
}

struct Detected {
  std::vector<cid_t> assignment;
  double modularity = 0;
};

multigpu::DistributedConfig dist_config() {
  multigpu::DistributedConfig dc;
  dc.num_gpus = kDistDevices;
  dc.overlap = true;
  dc.compress = true;
  return dc;
}

/// Untraced: one public call per engine, as a user would make it.
Detected detect_plain(Engine e, const graph::Graph& g) {
  if (e == Engine::Dist) {
    multigpu::DistributedFullResult r = multigpu::distributed_louvain(g, dist_config());
    return {std::move(r.assignment), r.modularity};
  }
  core::GalaConfig cfg;
  cfg.backend = e == Engine::Bsp ? core::Backend::Bsp : core::Backend::Blas;
  core::GalaResult r = core::run_louvain(g, cfg);
  return {std::move(r.assignment), r.modularity};
}

/// Traced BSP/BLAS: the run_louvain level loop driven through the engine
/// seam, one span per LouvainBackend::run_level and core::aggregate call.
Detected detect_levels(Engine e, const graph::Graph& g, Trace& trace, Layers& layers) {
  const bool bsp = e == Engine::Bsp;
  const std::string pre = bsp ? "core." : "blas.";
  core::GalaConfig cfg;
  cfg.backend = bsp ? core::Backend::Bsp : core::Backend::Blas;
  gala::exec::ExecutionContext ctx(cfg.bsp.device, cfg.bsp.seed);
  cfg.bsp.context = &ctx;
  gala::exec::Workspace& ws = ctx.workspace();
  const std::unique_ptr<core::LouvainBackend> engine = core::make_backend(cfg.backend, cfg.blas);

  Detected out;
  out.assignment.resize(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v) out.assignment[v] = v;
  const graph::Graph* current = &g;
  graph::Graph owned;
  double prev_q = -1;
  double phase1_s = 0, decide = 0, update = 0, other = 0, aggregate_s = 0, modeled = 0;
  double iterations = 0, active = 0, moved = 0, global = 0, shuffle = 0, flops = 0, nnz = 0;
  int levels = 0;
  std::vector<double> level_q;
  for (int level = 0; level < cfg.max_levels; ++level) {
    core::Phase1Result p;
    {
      Trace::Span span(trace, bsp ? "core.phase1" : "blas.phase1");
      p = engine->run_level(*current, cfg.bsp);
      phase1_s += span.end();
    }
    for (const core::IterationStats& it : p.iterations) {
      decide += it.decide_wall;
      update += it.update_wall;
      other += it.other_wall;
      active += it.active;
      moved += it.moved;
    }
    iterations += static_cast<double>(p.iterations.size());
    modeled += p.modeled_ms();
    global += static_cast<double>(p.total_traffic.global_reads + p.total_traffic.global_writes +
                                  p.total_traffic.global_atomics);
    shuffle += static_cast<double>(p.total_traffic.shuffle_ops);
    ++levels;
    const bool last = level > 0 && p.modularity - prev_q < cfg.level_theta;
    gala::blas::SpgemmStats st;
    core::AggregationResult agg;
    {
      Trace::Span span(trace, "core.aggregate");
      agg = core::aggregate(*current, p.community, &ws, cfg.blas, &st);
      aggregate_s += span.end();
    }
    flops += static_cast<double>(st.flops);
    nnz += static_cast<double>(st.nnz);
    {
      Trace::Span span(trace, "core.compose");
      out.assignment = core::compose_assignment(out.assignment, agg.fine_to_coarse);
    }
    prev_q = p.modularity;
    level_q.push_back(p.modularity);
    if (last || agg.num_communities == current->num_vertices()) break;
    owned = std::move(agg.coarse);
    current = &owned;
    ws.reset_level();
  }
  {
    Trace::Span span(trace, "core.renumber");
    core::renumber_communities(out.assignment);
  }
  out.modularity = prev_q;

  layers.add(pre + "phase1_s", phase1_s);
  layers.add(pre + "decide_s", decide);
  layers.add(pre + "weight_update_s", update);
  layers.add(pre + "modeled_ms", modeled);
  if (bsp) {
    if (layers.bsp_level_q.empty()) layers.bsp_level_q = level_q;
    layers.add("core.other_s", other);
    layers.add("core.aggregate_s", aggregate_s);
    layers.add("core.levels", levels);
    layers.add("core.iterations", iterations);
    layers.add("core.evaluated_vertices", active);
    layers.add("core.move_yield", active > 0 ? moved / active : 0);
    layers.add("gpusim.global_accesses", global);
    layers.add("gpusim.shuffle_ops", shuffle);
    layers.add("exec.ws_heap_allocs", static_cast<double>(ws.stats().heap_allocs));
    layers.add("exec.ws_peak_bytes", static_cast<double>(ws.stats().peak_bytes));
  } else {
    layers.add("blas.spgemm_flops", flops);
    layers.add("blas.spgemm_nnz", nnz);
  }
  return out;
}

/// Traced distributed: the distributed_louvain level loop, one span per
/// multigpu::distributed_phase1 and core::aggregate call.
Detected detect_dist_levels(const graph::Graph& g, Trace& trace, Layers& layers) {
  const multigpu::DistributedConfig dc = dist_config();
  const double level_theta = 1e-6;
  const int max_levels = 30;
  Detected out;
  out.assignment.resize(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v) out.assignment[v] = v;
  const graph::Graph* current = &g;
  graph::Graph owned;
  double prev_q = -1, phase1_s = 0, comm_bytes = 0, comm_wait_ms = 0;
  gala::exec::Workspace level_ws;
  for (int level = 0; level < max_levels; ++level) {
    multigpu::DistributedResult p;
    {
      Trace::Span span(trace, "multigpu.phase1");
      p = multigpu::distributed_phase1(*current, dc);
      phase1_s += span.end();
    }
    for (const multigpu::DeviceTimeline& d : p.devices) comm_bytes += static_cast<double>(d.comm.bytes);
    comm_wait_ms += p.max_comm_modeled_ms();
    core::AggregationResult agg;
    {
      Trace::Span span(trace, "core.aggregate");
      agg = core::aggregate(*current, p.community, &level_ws);
    }
    {
      Trace::Span span(trace, "core.compose");
      out.assignment = core::compose_assignment(out.assignment, agg.fine_to_coarse);
    }
    const bool last = level > 0 && p.modularity - prev_q < level_theta;
    prev_q = p.modularity;
    if (last || agg.num_communities == current->num_vertices()) break;
    owned = std::move(agg.coarse);
    current = &owned;
  }
  {
    Trace::Span span(trace, "core.renumber");
    core::renumber_communities(out.assignment);
  }
  out.modularity = prev_q;
  layers.add("multigpu.phase1_s", phase1_s);
  layers.add("multigpu.comm_bytes", comm_bytes);
  layers.add("multigpu.comm_wait_ms", comm_wait_ms);
  return out;
}

// ------------------------------------------------------------ stream state

/// Epoch references shared by the writer and the reader.
class RefTable {
 public:
  void put(std::uint64_t epoch, std::shared_ptr<const EpochRef> ref) {
    std::lock_guard lock(mu_);
    refs_[epoch] = std::move(ref);
    while (refs_.size() > 16) refs_.erase(refs_.begin());
  }
  std::shared_ptr<const EpochRef> get(std::uint64_t epoch) const {
    std::lock_guard lock(mu_);
    auto it = refs_.find(epoch);
    return it == refs_.end() ? nullptr : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<const EpochRef>> refs_;
};

/// One reader thread in a closed loop of point, batched, top-k and
/// cross-epoch diff queries. It runs only while the writer streams
/// batches, so that it never competes with the timed detects.
class Reader {
 public:
  Reader(const query::CommunityStore& store, const RefTable& refs, vid_t n, std::uint64_t seed,
         Trace& trace)
      : store_(store), refs_(refs), n_(n), rng_(seed), trace_(trace),
        exec_(store, &pool_), thread_([this] { loop(); }) {}

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  ~Reader() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void resume() {
    std::lock_guard lock(mu_);
    active_ = true;
    cv_.notify_all();
  }
  /// Returns once the reader is idle.
  void pause() {
    std::unique_lock lock(mu_);
    active_ = false;
    cv_.wait(lock, [this] { return !busy_; });
  }
  /// Wrong answers since the last call, with the first reason.
  std::uint64_t take_wrong(std::string& why) {
    std::lock_guard lock(mu_);
    const std::uint64_t w = wrong_;
    wrong_ = 0;
    why = first_wrong_;
    first_wrong_.clear();
    return w;
  }
  /// Reads completed per second spent inside QueryExecutor calls; the
  /// reader's own answer checks are left out of the clock.
  double reads_per_second() const {
    return query_seconds_ > 0 ? static_cast<double>(reads_) / query_seconds_ : 0;
  }
  /// Per-call query latencies, for the traced run.
  void export_samples(Layers& layers) const {
    layers.samples["query.point_lookup_ns"] = point_ns_;
    layers.samples["query.batch_lookup_ns"] = batch_ns_;
    layers.samples["query.top_k_s"] = top_s_;
    layers.samples["query.diff_s"] = diff_s_;
  }

 private:
  void loop() {
    for (;;) {
      {
        std::unique_lock lock(mu_);
        busy_ = false;
        cv_.notify_all();
        cv_.wait(lock, [this] { return stop_ || active_; });
        if (stop_) return;
        busy_ = true;
      }
      while (active_flag()) {
        try {
          cycle();
        } catch (const std::exception& e) {
          wrong(std::string("query threw: ") + e.what());
        } catch (...) {
          wrong("query threw a non-standard exception");
        }
      }
    }
  }

  bool active_flag() {
    std::lock_guard lock(mu_);
    return active_ && !stop_;
  }

  void wrong(const std::string& why) {
    std::lock_guard lock(mu_);
    if (wrong_++ == 0) first_wrong_ = why;
  }

  void cycle() {
    // Point lookups go through the store's current epoch; retry the group
    // if a publish lands in between, so that all answers share one epoch.
    std::vector<vid_t> vs(kPointGroup);
    std::vector<cid_t> answers(kPointGroup);
    for (int attempt = 0;; ++attempt) {
      for (vid_t& v : vs) v = static_cast<vid_t>(rng_() % n_);
      const std::uint64_t e0 = store_.latest_epoch();
      {
        Trace::Span span(trace_, "query.point_lookup", Trace::kReader);
        for (std::size_t i = 0; i < vs.size(); ++i) answers[i] = exec_.community_of(vs[i]);
        account(point_ns_, span.end(), 1e9 / static_cast<double>(kPointGroup));
      }
      if (store_.latest_epoch() == e0) {
        check_labels("point", e0, vs, answers);
        break;
      }
      if (attempt > 100) throw std::runtime_error("point lookups never saw a stable epoch");
    }
    reads_ += kPointGroup;

    query::SnapshotRef snap = store_.current();
    const std::uint64_t epoch = snap->epoch();
    const std::shared_ptr<const EpochRef> ref = refs_.get(epoch);
    if (!ref) return wrong("epoch " + std::to_string(epoch) + " has no reference");

    vs.resize(kBatchQuery);
    for (vid_t& v : vs) v = static_cast<vid_t>(rng_() % n_);
    std::vector<cid_t> batch;
    std::vector<vid_t> sizes;
    {
      Trace::Span span(trace_, "query.batch_lookup", Trace::kReader);
      batch = exec_.community_of(*snap, vs);
      sizes = exec_.community_size_of(*snap, vs);
      account(batch_ns_, span.end(), 1e9 / static_cast<double>(2 * kBatchQuery));
    }
    check_labels("batch", epoch, vs, batch);
    report(epoch, check_sizes(*ref, vs, sizes));
    reads_ += 2;

    std::vector<query::TopCommunity> top;
    {
      Trace::Span span(trace_, "query.top_k", Trace::kReader);
      top = exec_.top_k(*snap, kTopK);
      account(top_s_, span.end(), 1);
    }
    std::vector<cid_t> top_ids;
    std::vector<vid_t> top_sizes;
    for (const query::TopCommunity& t : top) {
      top_ids.push_back(t.community);
      top_sizes.push_back(t.size);
    }
    report(epoch, check_top_k(*ref, top_ids, top_sizes));
    ++reads_;

    if (epoch < 2 || ++cycles_ % kDiffEvery != 0) return;
    query::SnapshotRef prev = store_.at(epoch - 1);
    const std::shared_ptr<const EpochRef> prev_ref = refs_.get(epoch - 1);
    if (!prev || !prev_ref) return;  // evicted meanwhile
    query::EpochDiff d;
    {
      Trace::Span span(trace_, "query.diff", Trace::kReader);
      d = exec_.diff(*prev, *snap);
      account(diff_s_, span.end(), 1);
    }
    report(epoch, check_diff(*prev_ref, *ref, d.moved));
    ++reads_;
  }

  /// Adds one query call's time to the throughput clock and, in the traced
  /// run, keeps it (scaled) as a latency sample.
  void account(std::vector<double>& samples, double seconds, double scale) {
    query_seconds_ += seconds;
    if (trace_.enabled()) samples.push_back(seconds * scale);
  }

  void check_labels(const char* kind, std::uint64_t epoch, std::span<const vid_t> vs,
                    std::span<const cid_t> answers) {
    const std::shared_ptr<const EpochRef> ref = refs_.get(epoch);
    if (!ref) return wrong("epoch " + std::to_string(epoch) + " has no reference");
    const std::string why = bijection_.check(vs, answers, ref->labels);
    if (!why.empty()) report(epoch, kind + std::string(" lookup: ") + why);
  }

  /// Counts `why` as a wrong answer unless it is empty.
  void report(std::uint64_t epoch, const std::string& why) {
    if (!why.empty()) wrong("epoch " + std::to_string(epoch) + ": " + why);
  }

  const query::CommunityStore& store_;
  const RefTable& refs_;
  vid_t n_;
  std::mt19937_64 rng_;
  Trace& trace_;
  // A one-worker pool runs the executor's batches inline on this thread,
  // so queries never queue behind the engines' tasks in the global pool.
  gala::ThreadPool pool_{1};
  query::QueryExecutor exec_;
  LabelBijection bijection_;
  std::vector<double> point_ns_, batch_ns_, top_s_, diff_s_;
  std::uint64_t reads_ = 0, cycles_ = 0;
  double query_seconds_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool active_ = false, busy_ = false, stop_ = false;
  std::uint64_t wrong_ = 0;
  std::string first_wrong_;
  std::thread thread_;
};

/// Deletions of existing edges first, then insertions between random
/// vertex pairs; returns the batch and its weight change.
std::vector<core::EdgeUpdate> make_batch(const graph::Graph& g, std::mt19937_64& rng,
                                         double& inserted, double& removed) {
  const vid_t n = g.num_vertices();
  std::vector<core::EdgeUpdate> ups;
  std::set<std::pair<vid_t, vid_t>> taken;
  inserted = removed = 0;
  while (static_cast<int>(ups.size()) < kBatchDeletions) {
    const vid_t v = static_cast<vid_t>(rng() % n);
    const auto nbrs = g.neighbors(v);
    if (nbrs.empty()) continue;
    const std::size_t i = rng() % nbrs.size();
    const vid_t u = nbrs[i];
    if (u == v || !taken.insert({std::min(u, v), std::max(u, v)}).second) continue;
    const wt_t w = g.weights(v)[i];
    ups.push_back({v, u, w, true});
    removed += w;
  }
  for (int k = 0; k < kBatchInsertions;) {
    const vid_t u = static_cast<vid_t>(rng() % n), v = static_cast<vid_t>(rng() % n);
    if (u == v) continue;
    ups.push_back({u, v, 1.0, false});
    inserted += 1.0;
    ++k;
  }
  return ups;
}

// --------------------------------------------------------------------- run

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build";
  bool keep_inputs = false;
};

struct Metric {
  std::string name, unit;
  double value;
};

class Run {
 public:
  explicit Run(const Options& opt, const Workload& w)
      : opt_(opt), w_(w), trace_(opt.trace), rng_(mix(opt.seed, 3)) {
    std::filesystem::create_directories(opt.work_dir + "/inputs");
    path_ = opt.work_dir + "/inputs/" + w.name + "-seed" + std::to_string(opt.seed) + ".bin";
  }
  ~Run() {
    if (!opt_.keep_inputs) std::filesystem::remove(path_);
  }

  int execute() {
    setup();
    rounds();
    return report();
  }

 private:
  void setup() {
    // Set-up, repeated: generate, write the file, and warm up with one
    // untimed BLAS detect from the file (the fastest engine). The last
    // warm-up's partition is the reference every detect must reproduce
    // and the stream's start. Set-up is measured in process CPU time, like
    // the detects (see detect_op).
    std::vector<double> prepare;
    Input in;
    graph::Graph g;
    core::GalaResult ref;
    core::GalaConfig warm_cfg;
    warm_cfg.backend = core::Backend::Blas;
    for (int r = 0; r < kSetupRepeats; ++r) {
      const double t0 = cpu_seconds();
      in = generate(w_, opt_.seed);
      graph::save_binary(in.graph, path_);
      g = graph::load_binary(path_);
      ref = core::run_louvain(g, warm_cfg);
      prepare.push_back(cpu_seconds() - t0);
    }
    csr_ = copy_csr(in.graph);
    truth_ = std::move(in.truth);
    in.graph = graph::Graph();

    const double t1 = cpu_seconds();
    refs_.put(store_.latest_epoch() + 1, make_epoch_ref(ref.assignment, kTopK));
    const std::uint64_t epoch = store_.publish(g, ref);
    setup_s_ = median(prepare) + cpu_seconds() - t1;
    if (epoch != 1) tally_.reference_broken("first publish got epoch " + std::to_string(epoch));

    const Verdict v = check_partition(ref.assignment, ref.modularity, expect());
    if (!v.ok()) tally_.reference_broken(v.check + ": " + v.why);
    reference_ = std::move(ref.assignment);
    modularity_ = ref.modularity;

    // The sequential oracle, outside every timed metric: the reference for
    // the oracle-gap check and for the traced run's oracle metrics.
    {
      Trace::Span span(trace_, "core.sequential_oracle");
      oracle_q_ = core::sequential_louvain(g).modularity;
      layers_.add("core.sequential_oracle_s", span.end());
    }
    layers_.add("core.oracle_modularity", oracle_q_);

    stream_graph_ = std::move(g);
    stream_labels_ = reference_;
    stream_total_ = total_weight(view_of(stream_graph_));
    reader_ = std::make_unique<Reader>(store_, refs_, stream_graph_.num_vertices(),
                                       mix(opt_.seed, 4), trace_);
  }

  /// What a partition of the input graph must satisfy; the reference and
  /// the oracle are known once the warm-up detect has run.
  PartitionExpect expect() const {
    return {csr_.view(), reference_, truth_, w_.nmi_floor, w_.oracle_check ? oracle_q_ : 0};
  }

  /// A detect's cost is the CPU time of the whole process (every engine
  /// thread) from load_binary to the assignment; the reader is paused. Wall
  /// time of the four-thread engines on a shared 4-vCPU host moves with the
  /// host's stolen time (two BSP detects of one run took 1.70 and 1.25 s of
  /// wall time, 3.18 and 3.16 s of CPU time), so wall time is kept for the
  /// traced run's per-layer metrics and the stderr summary only.
  void detect_op(Engine e) {
    const std::string op = std::string("detect-") + engine_name(e);
    Detected d;
    double seconds = 0;
    const double cpu0 = cpu_seconds();
    try {
      Trace::Span span(trace_, e == Engine::Bsp ? "op.detect.bsp"
                               : e == Engine::Blas ? "op.detect.blas" : "op.detect.dist");
      graph::Graph g;
      {
        Trace::Span load(trace_, "graph.load");
        g = graph::load_binary(path_);
        layers_.add("graph.load_s", load.end());
      }
      if (!opt_.trace) d = detect_plain(e, g);
      else if (e == Engine::Dist) d = detect_dist_levels(g, trace_, layers_);
      else d = detect_levels(e, g, trace_, layers_);
      seconds = span.end();
    } catch (const std::exception& ex) {
      return tally_.record(op, {"exception", ex.what()});
    }
    detect_cpu_s_[static_cast<int>(e)].push_back(cpu_seconds() - cpu0);
    detect_wall_s_[static_cast<int>(e)].push_back(seconds);
    if (opt_.trace) layers_.add(std::string("detect.") + engine_name(e) + "_wall_s", seconds);
    tally_.record(op, check_partition(d.assignment, d.modularity, expect()));
  }

  void batch_op() {
    double inserted = 0, removed = 0;
    const std::vector<core::EdgeUpdate> ups = make_batch(stream_graph_, rng_, inserted, removed);
    core::IncrementalResult ir;
    const std::uint64_t expected_epoch = store_.latest_epoch() + 1;
    bool readable = false;
    try {
      if (opt_.trace) {
        Trace::Span span(trace_, "core.apply_updates");
        graph::Graph applied = core::apply_edge_updates(stream_graph_, ups);
        layers_.add("core.apply_updates_s", span.end());
      }
      double repair_s = 0, publish_s = 0;
      {
        Trace::Span span(trace_, "core.repair");
        ir = core::update_communities(stream_graph_, stream_labels_, ups, core::GalaConfig{});
        repair_s = span.end();
      }
      // The reference must be in place before readers can see the epoch;
      // building it is the benchmark's work and stays outside the latency.
      refs_.put(expected_epoch, make_epoch_ref(ir.assignment, kTopK));
      {
        Trace::Span span(trace_, "query.publish");
        const std::uint64_t epoch = store_.publish(ir);
        readable = epoch == expected_epoch && store_.current()->epoch() == epoch;
        publish_s = span.end();
      }
      epoch_s_.push_back(repair_s + publish_s);
      layers_.add("core.repair_s", repair_s);
      layers_.add("query.publish_s", publish_s);
    } catch (const std::exception& ex) {
      tally_.record("batch", {"exception", ex.what()});
      return read_op();
    }
    layers_.add("core.repair_evaluated_vertices", static_cast<double>(ir.evaluated_vertices));
    layers_.add("core.repair_iterations", ir.repair_iterations);

    // The epoch's graph must hold the previous total plus the inserted and
    // minus the removed weight; its partition is checked like a detect's,
    // without the parity and oracle checks (a repair need not match either).
    Verdict v;
    v.require(readable, "publish",
              "epoch " + std::to_string(expected_epoch) + " not current after publish");
    const double total = total_weight(view_of(ir.graph));
    const double expected_total = stream_total_ + inserted - removed;
    v.require(std::abs(total - expected_total) <= 1e-9 * expected_total, "edge-weight",
              "total weight " + std::to_string(total) + ", expected " +
                  std::to_string(expected_total));
    if (v.ok()) {
      v = check_partition(ir.assignment, ir.modularity,
                          {view_of(ir.graph), {}, truth_, w_.nmi_floor, 0});
    }
    tally_.record("batch", v);

    stream_total_ = expected_total;
    stream_q_ = ir.modularity;
    stream_graph_ = std::move(ir.graph);
    stream_labels_ = std::move(ir.assignment);
    read_op();
  }

  /// The reader's answers while one batch was in flight form one operation.
  void read_op() {
    std::string why;
    Verdict v;
    v.require(reader_->take_wrong(why) == 0, "query-answer", why);
    tally_.record("reads", v);
  }

  void rounds() {
    const double t0 = now_seconds();
    int done = 0;
    for (;;) {
      {
        Trace::Span span(trace_, "round");
        for (Engine e : {Engine::Bsp, Engine::Blas, Engine::Dist}) detect_op(e);
        reader_->resume();
        for (int b = 0; b < w_.batches_per_round; ++b) batch_op();
        reader_->pause();
      }
      ++done;
      // Whole rounds only; stop at the round end nearest to the budget.
      const double elapsed = now_seconds() - t0;
      if (elapsed + 0.5 * elapsed / done >= opt_.seconds) break;
    }
    window_s_ = now_seconds() - t0;
  }

  int report() {
    std::vector<Metric> metrics;
    if (!opt_.trace) {
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      metrics = {
          {"setup_s", "s", setup_s_},
          {"detect_bsp_s", "s", median(detect_cpu_s_[0])},
          {"detect_blas_s", "s", median(detect_cpu_s_[1])},
          {"detect_dist_s", "s", median(detect_cpu_s_[2])},
          {"modularity", "Q", w_.kind == Kind::Lfr ? stream_q_ : modularity_},
          {"peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0},
          {"epoch_latency_s", "s", median(epoch_s_)},
          {"read_ops_per_s", "ops/s", reader_->reads_per_second()},
      };
    } else {
      metrics = traced_metrics();
    }
    reader_.reset();
    // Every sample, for judging a run's spread; not part of the result.
    for (int e = 0; e < 3; ++e) {
      std::fprintf(stderr, "detect %s samples (cpu s/wall s):", engine_name(static_cast<Engine>(e)));
      for (std::size_t i = 0; i < detect_cpu_s_[e].size(); ++i) {
        std::fprintf(stderr, " %.4f/%.4f", detect_cpu_s_[e][i], detect_wall_s_[e][i]);
      }
      std::fprintf(stderr, "\n");
    }

    std::string json = "{\"correct\": " + std::string(tally_.correct() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(tally_.attempted()) +
                       ", \"failed\": " + std::to_string(tally_.failed()) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
      json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  }

  std::vector<Metric> traced_metrics() {
    reader_->export_samples(layers_);
    layers_.add("query.snapshot_bytes", static_cast<double>(store_.resident_bytes()));
    layers_.add("memtrace.peak_total_bytes",
                static_cast<double>(gala::memtrace::MemRegistry::global().report().peak_total_bytes()));

    // Coverage: self time of the library calls made during the measured
    // rounds over the rounds' wall time. The rest is the benchmark's own
    // frames ("round", "op.*") and its output checks.
    const std::map<std::string, double> self = trace_.self_seconds(Trace::kMain);
    double layer_total = 0;
    for (const auto& [name, s] : self) {
      if (name != "round" && name.rfind("op.", 0) != 0 && name != "core.sequential_oracle") {
        layer_total += s;
      }
    }
    const double coverage = layer_total / window_s_;
    const double overhead_pct =
        100.0 * static_cast<double>(trace_.span_count()) * span_cost() / window_s_;

    std::printf("%-28s %12s %16s\n", "span (self time)", "seconds", "share of rounds");
    for (int tid : {Trace::kMain, Trace::kReader}) {
      if (tid == Trace::kReader) std::printf("reader thread:\n");
      for (const auto& [name, s] : trace_.self_seconds(tid)) {
        std::printf("%-28s %12.6f %15.1f%%\n", name.c_str(), s, 100.0 * s / window_s_);
      }
    }
    std::printf("coverage (library self time / round wall time): %.4f\n", coverage);
    std::printf("BSP modularity after each level:");
    for (double q : layers_.bsp_level_q) std::printf(" %.6f", q);
    std::printf("\n");
    std::printf("span overhead: %.4f%% of the %.2f s window\n", overhead_pct, window_s_);
    std::filesystem::create_directories(opt_.work_dir + "/traces");
    const std::string trace_path = opt_.work_dir + "/traces/" + w_.name + "-seed" +
                                   std::to_string(opt_.seed) + ".json";
    trace_.write_chrome(trace_path);
    std::printf("trace: %s\n", trace_path.c_str());

    static const std::pair<const char*, const char*> kLayerMetrics[] = {
        {"detect.bsp_wall_s", "s"},
        {"detect.blas_wall_s", "s"},
        {"detect.dist_wall_s", "s"},
        {"graph.load_s", "s"},
        {"core.phase1_s", "s"},
        {"core.decide_s", "s"},
        {"core.weight_update_s", "s"},
        {"core.other_s", "s"},
        {"blas.phase1_s", "s"},
        {"blas.decide_s", "s"},
        {"blas.weight_update_s", "s"},
        {"core.aggregate_s", "s"},
        {"blas.spgemm_flops", "count"},
        {"blas.spgemm_nnz", "count"},
        {"core.levels", "count"},
        {"core.iterations", "count"},
        {"core.evaluated_vertices", "count"},
        {"core.move_yield", "share"},
        {"core.modeled_ms", "ms"},
        {"blas.modeled_ms", "ms"},
        {"gpusim.global_accesses", "count"},
        {"gpusim.shuffle_ops", "count"},
        {"exec.ws_heap_allocs", "count"},
        {"exec.ws_peak_bytes", "B"},
        {"memtrace.peak_total_bytes", "B"},
        {"multigpu.phase1_s", "s"},
        {"multigpu.comm_bytes", "B"},
        {"multigpu.comm_wait_ms", "ms"},
        {"core.apply_updates_s", "s"},
        {"core.repair_s", "s"},
        {"core.repair_evaluated_vertices", "count"},
        {"core.repair_iterations", "count"},
        {"query.publish_s", "s"},
        {"query.snapshot_bytes", "B"},
        {"query.point_lookup_ns", "ns"},
        {"query.batch_lookup_ns", "ns"},
        {"query.top_k_s", "s"},
        {"query.diff_s", "s"},
        {"core.sequential_oracle_s", "s"},
        {"core.oracle_modularity", "Q"},
    };
    std::vector<Metric> out;
    for (const auto& [name, unit] : kLayerMetrics) {
      out.push_back({name, unit, median(layers_.samples[name])});
    }
    out.push_back({"trace.coverage", "share", coverage});
    out.push_back({"trace.overhead_pct", "%", overhead_pct});
    return out;
  }

  /// Cost of one recorded span, from a calibration outside the trace.
  static double span_cost() {
    Trace calibration(true);
    constexpr int kSpans = 20000;
    const double t0 = now_seconds();
    for (int i = 0; i < kSpans; ++i) Trace::Span span(calibration, "calibration");
    return (now_seconds() - t0) / kSpans;
  }

  const Options opt_;
  const Workload& w_;
  Trace trace_;
  Layers layers_;
  Tally tally_;
  std::mt19937_64 rng_;
  std::string path_;
  Csr csr_;
  std::vector<cid_t> truth_, reference_;
  double setup_s_ = 0, modularity_ = 0, oracle_q_ = 0, window_s_ = 0, stream_q_ = 0;
  std::vector<double> detect_cpu_s_[3], detect_wall_s_[3], epoch_s_;
  query::CommunityStore store_;
  RefTable refs_;
  graph::Graph stream_graph_;
  std::vector<cid_t> stream_labels_;
  double stream_total_ = 0;
  std::unique_ptr<Reader> reader_;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: gala_perfbench --workload <planted-uniform|rmat-hubs|lfr-stream> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] [--keep-inputs]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--keep-inputs") {
      opt.keep_inputs = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") opt.trace = std::stoi(v) != 0;
      else if (a == "--work-dir") opt.work_dir = v;
      else return usage(("unknown flag " + a).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (opt.workload == cand.name) w = &cand;
  }
  if (w == nullptr) return usage(("unknown workload '" + opt.workload + "'").c_str());
  try {
    Run run(opt, *w);
    return run.execute();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
