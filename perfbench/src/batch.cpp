// Inputs, set-up and the batch-analytics phase.  Every layer is timed from
// outside, around the public calls: GraphBuilder stages, GraphService start,
// AlgorithmDesc::run_resolved; kernel attribution comes from Engine::stats().
#include <cmath>
#include <map>
#include <tuple>
#include <stdexcept>

#include "algorithms/pagerank.hpp"
#include "algorithms/pagerank_delta.hpp"
#include "algorithms/registry.hpp"
#include "engine/engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "phases.hpp"
#include "sys/parallel.hpp"

namespace perfbench {

using grind::vid_t;
namespace algorithms = grind::algorithms;
namespace engine = grind::engine;
namespace graph = grind::graph;

namespace {

/// `count` distinct vertices with out-degree > 0, in seeded random order.
std::vector<vid_t> pick_sources(const graph::EdgeList& el, std::size_t count,
                                std::uint64_t seed) {
  const auto deg = el.out_degrees();
  std::size_t live = 0;
  for (auto d : deg) live += d > 0 ? 1 : 0;
  count = std::min(count, live);
  Rng rng(seed);
  std::vector<char> taken(deg.size(), 0);
  std::vector<vid_t> out;
  while (out.size() < count) {
    const auto v = static_cast<vid_t>(rng.below(deg.size()));
    if (deg[v] == 0 || taken[v] != 0) continue;
    taken[v] = 1;
    out.push_back(v);
  }
  return out;
}

template <typename Fn>
double timed(Run& run, const char* name, int parent, Fn&& fn) {
  const int span = run.tracer.begin(name, parent);
  const auto t0 = Clock::now();
  fn();
  const double s = seconds_between(t0, Clock::now());
  run.tracer.end(span);
  return s;
}

struct StageTimes {
  double order = 0, assign = 0, partition = 0, layouts = 0;
};

graph::Graph build_graph(Run& run, graph::EdgeList el, int parent,
                         StageTimes& st, bool pcpm_bins = false) {
  graph::GraphBuilder b(std::move(el));
  b.with_pcpm_bins(pcpm_bins);
  st.order += timed(run, "graph.order", parent, [&] { b.order(); });
  st.assign += timed(run, "graph.assign", parent, [&] { b.assign(); });
  st.partition += timed(run, "graph.partition", parent, [&] { b.partition(); });
  st.layouts += timed(run, "graph.layouts", parent, [&] { b.layouts(); });
  graph::Graph g;
  timed(run, "graph.build", parent, [&] { g = std::move(b).build(); });
  return g;
}

grind::service::ServiceConfig service_config(const Config& cfg) {
  grind::service::ServiceConfig sc;
  sc.workers = 3;  // + the load-generator thread = 4 cores
  sc.threads_per_query = 1;
  sc.result_cache_capacity = cfg.cache_entries;
  // Entries that waited twice the latency limit are refused at dequeue, so
  // an overloaded ladder rung drains quickly instead of queueing for ever.
  sc.admission_timeout =
      std::chrono::milliseconds(static_cast<long>(2 * cfg.p99_limit_ms));
  return sc;
}

const algorithms::AlgorithmDesc& desc(const char* code) {
  return algorithms::AlgorithmRegistry::instance().at(code);
}

double kernel_seconds(const engine::TraversalStats& s) {
  double t = 0;
  for (double x : s.seconds) t += x;
  return t;
}

/// Runs registered algorithms through one Engine per paper code (so each
/// code's kernel mix and sweep count stay separable) and records the
/// per-call wall time, sweeps and time outside the traversal kernels.
class AlgoRunner {
 public:
  AlgoRunner(Run& run, const graph::Graph& g) : run_(run), g_(g) {}

  algorithms::AnyResult call(const char* code, const algorithms::Params& p,
                             int parent, std::uint64_t request) {
    auto& eng = engines_[code];
    if (eng == nullptr) eng = std::make_unique<engine::Engine>(g_);
    const auto& d = desc(code);
    const algorithms::Params resolved = d.resolve(p, g_);
    const int sweeps0 = eng->sweeps_done();
    const double kern0 = kernel_seconds(eng->stats());
    ++run_.attempted;
    const int span = run_.tracer.begin(std::string("algo.") + code, parent, request);
    const auto t0 = Clock::now();
    algorithms::AnyResult r;
    try {
      r = d.run_resolved(*eng, resolved);
    } catch (const std::exception& e) {
      run_.fail(std::string(code) + " run: " + e.what());
    }
    const double wall = seconds_between(t0, Clock::now());
    run_.tracer.end(span);
    auto& s = samples_[code];
    s.wall.push_back(wall);
    s.sweeps.push_back(eng->sweeps_done() - sweeps0);
    s.outside.push_back(wall - (kernel_seconds(eng->stats()) - kern0));
    return r;
  }

  struct Samples {
    std::vector<double> wall, sweeps, outside;
  };
  const Samples& samples(const char* code) { return samples_[code]; }

  /// Kernel statistics summed over every engine, or over one code's engine.
  [[nodiscard]] engine::TraversalStats stats(const char* only = nullptr) const {
    engine::TraversalStats sum;
    for (const auto& [code, eng] : engines_) {
      if (only != nullptr && code != only) continue;
      const auto& s = eng->stats();
      for (std::size_t k = 0; k < engine::kNumTraversalKinds; ++k) {
        sum.calls[k] += s.calls[k];
        sum.seconds[k] += s.seconds[k];
        sum.edges_examined[k] += s.edges_examined[k];
      }
      sum.atomic_rounds += s.atomic_rounds;
      sum.nonatomic_rounds += s.nonatomic_rounds;
      sum.pcpm_bin_bytes += s.pcpm_bin_bytes;
    }
    return sum;
  }

 private:
  Run& run_;
  const graph::Graph& g_;
  std::map<std::string, std::unique_ptr<engine::Engine>> engines_;
  std::map<std::string, Samples> samples_;
};

/// Run a registered oracle check; every call is one attempted operation.
void oracle_check(Run& run, const char* code, const graph::EdgeList& el,
                  const graph::Graph& g, const algorithms::Params& p,
                  const algorithms::AnyResult& r) {
  ++run.attempted;
  const int span = run.tracer.begin(std::string("check.") + code);
  try {
    if (r.empty()) throw std::runtime_error("no result");
    algorithms::CheckContext cx;
    cx.el = &el;
    cx.identity_ordering = true;
    const auto& d = desc(code);
    if (!d.check(cx, d.resolve(p, g), r))
      throw std::runtime_error("oracle check skipped");
  } catch (const std::exception& e) {
    run.fail(std::string("check ") + code + ": " + e.what());
  }
  run.tracer.end(span);
}

// PRDelta at its default epsilon (0.05) lets a vertex stop once its pending
// delta is under 5 % of 1/|V|, so it stops short of the PageRank fixpoint,
// and its registered check (1e-5 per vertex against a 200-round power
// iteration) holds only at epsilon 1e-9 — even at 1 thread.  The benchmark
// times the default and checks it two ways with its own stated tolerances:
//   * rank·(1-damping) is within kPrDeltaFixpointTol of the fixpoint in
//     relative L1 norm.  The fixpoint is the engine's PageRank at
//     kPrFixpointIterations (the kernel the PR oracle check covers at 10
//     iterations; 0.85^60 ≈ 6e-5).  Measured at the default epsilon:
//     0.07–0.11 on the benchmark's graphs;
//   * the 4-thread result is within kPrDeltaThreadsTol (relative L1) of a
//     1-thread run at the same epsilon, which catches a lost frontier bit:
//     a vertex that never re-enters the frontier keeps its rank at 1/|V|.
constexpr int kPrFixpointIterations = 60;
constexpr double kPrDeltaFixpointTol = 0.15;
constexpr double kPrDeltaThreadsTol = 1e-6;

double rel_l1(const std::vector<double>& got, const std::vector<double>& want,
              double scale) {
  if (got.size() != want.size()) throw std::runtime_error("size mismatch");
  double diff = 0, norm = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    diff += std::fabs(got[i] * scale - want[i]);
    norm += std::fabs(want[i]);
  }
  return diff / norm;
}

void check_prdelta(Run& run, const graph::Graph& g,
                   const algorithms::AnyResult& r) {
  run.attempted += 2;
  const int span = run.tracer.begin("check.PRDelta");
  try {
    if (r.empty()) throw std::runtime_error("no result");
    const auto& got = r.as<algorithms::PageRankDeltaResult>().rank;
    algorithms::PageRankOptions po;
    po.iterations = kPrFixpointIterations;
    engine::Engine eng(g);
    const double fix_err =
        rel_l1(got, algorithms::pagerank(eng, po).rank, 1.0 - po.damping);
    run.metrics.set("check.prdelta_fixpoint_l1", fix_err, "ratio");
    if (!(fix_err <= kPrDeltaFixpointTol))
      run.fail("check PRDelta: relative L1 distance to the fixpoint " +
               std::to_string(fix_err) + " > " + std::to_string(kPrDeltaFixpointTol));
    std::vector<double> one;
    {
      grind::ThreadCountGuard serial(1);
      engine::Engine e1(g);
      one = algorithms::pagerank_delta(e1, algorithms::PageRankDeltaOptions{}).rank;
    }
    const double thr_err = rel_l1(got, one, 1.0);
    run.metrics.set("check.prdelta_threads_l1", thr_err, "ratio");
    if (!(thr_err <= kPrDeltaThreadsTol))
      run.fail("check PRDelta: relative L1 distance to the 1-thread run " +
               std::to_string(thr_err) + " > " + std::to_string(kPrDeltaThreadsTol));
  } catch (const std::exception& e) {
    run.fail(std::string("check PRDelta: ") + e.what());
  }
  run.tracer.end(span);
}

algorithms::Params with_source(vid_t s) {
  algorithms::Params p;
  p.set("source", static_cast<std::int64_t>(s));
  return p;
}

}  // namespace

// The batch inputs are part of a workload's definition, like a fixed data
// set: the graphs and the batch phase's BFS/BC source sample come from
// constant seeds.  The run seed draws the serve side — the source pools and
// the request stream.  Drawn per seed, the batch inputs added input variance
// that hides code changes: CC's sweep count varied (5 or 6 on rmat(21, 4)),
// and BFS p50 over different 128-source samples spread by 20 %.
constexpr std::uint64_t kGraphSeed = 1;

Inputs make_inputs(const Config& cfg, std::uint64_t seed) {
  Inputs in;
  in.batch = graph::rmat(cfg.rmat_scale, cfg.rmat_edge_factor, kGraphSeed);
  in.social = graph::rmat(cfg.social_scale, cfg.social_edge_factor, kGraphSeed + 1);
  in.road = graph::road_lattice(cfg.road_side, cfg.road_side, 0.05, kGraphSeed + 2);
  in.road.symmetrize();
  in.batch_sources = pick_sources(
      in.batch, cfg.bfs_sources + 64 * cfg.bc_sources_per_round, kGraphSeed + 3);
  in.social_sources = pick_sources(in.social, cfg.source_pool, seed + 4);
  in.road_sources = pick_sources(in.road, cfg.source_pool, seed + 5);
  return in;
}

Built setup(Run& run, const Inputs& in) {
  std::vector<double> total;
  std::vector<StageTimes> stages;
  Built out;
  for (int rep = 0; rep < run.cfg.setup_reps; ++rep) {
    out = Built{};  // drop the previous rep's graphs before timing the next
    graph::EdgeList batch = in.batch;
    graph::EdgeList social = in.social;
    graph::EdgeList road = in.road;
    StageTimes st;
    const int span = run.tracer.begin("setup", -1, rep);
    const auto t0 = Clock::now();
    out.batch = build_graph(run, std::move(batch), span, st);
    graph::Graph gs = build_graph(run, std::move(social), span, st);
    graph::Graph gr = build_graph(run, std::move(road), span, st);
    timed(run, "service.start", span, [&] {
      out.svc = std::make_unique<grind::service::GraphService>(service_config(run.cfg));
      out.svc->load_graph("social", std::move(gs));
      out.svc->load_graph("road", std::move(gr));
    });
    total.push_back(seconds_between(t0, Clock::now()));
    run.tracer.end(span);
    stages.push_back(st);
  }
  auto med = [&](double StageTimes::*f) {
    std::vector<double> v;
    for (const auto& s : stages) v.push_back(s.*f);
    return median(v);
  };
  run.metrics.set("setup_s", median(total), "s");
  run.metrics.set("graph.order_s", med(&StageTimes::order), "s");
  run.metrics.set("graph.assign_s", med(&StageTimes::assign), "s");
  run.metrics.set("graph.partition_s", med(&StageTimes::partition), "s");
  run.metrics.set("graph.layouts_s", med(&StageTimes::layouts), "s");
  return out;
}

void batch_phase(Run& run, const graph::Graph& g, const Inputs& in,
                 double budget_s) {
  const auto& cfg = run.cfg;
  const std::vector<vid_t> bfs_src(in.batch_sources.begin(),
                                   in.batch_sources.begin() + cfg.bfs_sources);
  AlgoRunner algo(run, g);
  std::vector<double> bfs_ms, traced_rounds, untraced_rounds;
  algorithms::AnyResult pr, prdelta, cc, bc, bfs;
  vid_t bc_src = 0, bfs_checked_src = 0;

  const auto start = Clock::now();
  int round = 0;
  // At least one pass over the whole BFS source set.
  const int min_rounds = (cfg.bfs_sources + cfg.bfs_per_round - 1) / cfg.bfs_per_round;
  for (; round < min_rounds || seconds_between(start, Clock::now()) < budget_s;
       ++round) {
    // The traced run alternates recording on and off, so the difference of
    // the two round medians is the tracing overhead.
    if (run.trace) run.tracer.set_enabled(round % 2 == 0);
    const bool traced = run.tracer.enabled();
    const auto r0 = Clock::now();
    const int span = run.tracer.begin("batch.round", -1, round);
    // The short algorithms run several times a round, so their medians
    // rest on as many samples as the round budget allows.
    for (int i = 0; i < 2; ++i) pr = algo.call("PR", {}, span, round);
    prdelta = algo.call("PRDelta", {}, span, round);
    for (int i = 0; i < 5; ++i) cc = algo.call("CC", {}, span, round);
    for (int i = 0; i < cfg.bc_sources_per_round; ++i) {
      bc_src = in.batch_sources[cfg.bfs_sources +
                                 (round * cfg.bc_sources_per_round + i) %
                                     (64 * cfg.bc_sources_per_round)];
      bc = algo.call("BC", with_source(bc_src), span, round);
    }
    // A slice of the BFS source set per round, so rounds stay short and
    // every algorithm gets many samples; the slices cycle over the set.
    for (int i = 0; i < cfg.bfs_per_round; ++i) {
      const std::size_t k = (std::size_t(round) * cfg.bfs_per_round + i) % bfs_src.size();
      auto r = algo.call("BFS", with_source(bfs_src[k]), span, round);
      if (i == 0) std::tie(bfs, bfs_checked_src) = std::pair{std::move(r), bfs_src[k]};
    }
    run.tracer.end(span);
    (traced ? traced_rounds : untraced_rounds)
        .push_back(seconds_between(r0, Clock::now()));
  }
  if (run.trace) run.tracer.set_enabled(true);
  for (double s : algo.samples("BFS").wall) bfs_ms.push_back(s * 1e3);

  auto& m = run.metrics;
  m.set("pr_s", median(algo.samples("PR").wall), "s");
  m.set("prdelta_s", median(algo.samples("PRDelta").wall), "s");
  m.set("cc_s", median(algo.samples("CC").wall), "s");
  m.set("bc_s", median(algo.samples("BC").wall), "s");
  m.set("bfs_p50_ms", percentile(bfs_ms, 0.5), "ms");
  m.set("bfs_p90_ms", percentile(bfs_ms, 0.9), "ms");
  m.set("batch.rounds", round, "count");

  for (const char* code : {"PR", "PRDelta", "CC", "BC", "BFS"}) {
    const auto& s = algo.samples(code);
    m.set(std::string("algo.") + code + ".sweeps", median(s.sweeps), "count");
    m.set(std::string("algo.") + code + ".outside_kernel_s", median(s.outside), "s");
  }
  const auto st = algo.stats();
  const struct {
    const char* name;
    engine::TraversalKind kind;
  } kinds[] = {{"sparse_csr", engine::TraversalKind::kSparseCsr},
               {"backward_csc", engine::TraversalKind::kBackwardCsc},
               {"dense_coo", engine::TraversalKind::kDenseCoo}};
  const double rounds = round;
  for (const auto& k : kinds) {
    const std::string p = std::string("engine.") + k.name;
    const double secs = st.seconds_for(k.kind);
    const auto edges = static_cast<double>(st.edges_for(k.kind));
    m.set(p + ".calls", st.calls_for(k.kind) / rounds, "count/round");
    m.set(p + ".s", secs / rounds, "s/round");
    m.set(p + ".edges", edges / rounds, "count/round");
    m.set(p + ".meps", secs > 0 ? edges / secs / 1e6 : 0.0, "Medges/s");
  }
  m.set("engine.atomic_rounds", st.atomic_rounds / rounds, "count/round");
  m.set("engine.nonatomic_rounds", st.nonatomic_rounds / rounds, "count/round");
  // Computed, not measured (no PMU): PageRank's dense-COO sweep moves a
  // 12-byte edge record, an 8-byte source value and a 16-byte destination
  // read-modify-write per edge.
  const auto prs = algo.stats("PR");
  const double coo_s = prs.seconds_for(engine::TraversalKind::kDenseCoo);
  m.set("engine.dense_coo.gbps_computed",
        coo_s > 0 ? 36.0 * prs.edges_for(engine::TraversalKind::kDenseCoo) /
                        coo_s / 1e9
                  : 0.0,
        "GB/s");
  if (run.trace)
    m.set("trace.overhead_s", median(traced_rounds) - median(untraced_rounds),
          "s/round");

  // Correctness: every result checked came from a run at the benchmark's
  // thread count; oracles run on a sample of sources.
  run.deferred_checks.push_back([&run, &g, &in, pr, cc, bc, bc_src, bfs,
                                 bfs_checked_src, prdelta] {
    oracle_check(run, "PR", in.batch, g, {}, pr);
    oracle_check(run, "CC", in.batch, g, {}, cc);
    oracle_check(run, "BC", in.batch, g, with_source(bc_src), bc);
    oracle_check(run, "BFS", in.batch, g, with_source(bfs_checked_src), bfs);
    check_prdelta(run, g, prdelta);
  });
}

void trace_extras(Run& run, const graph::Graph& g, const Inputs& in) {
  auto& m = run.metrics;
  // The 1-thread and forced-PCPM results come from paths the batch phase
  // does not run, so they get the PR oracle check too.
  auto pr_runs = [&](engine::Engine& eng, int reps, const char* name, bool check) {
    std::vector<double> wall;
    algorithms::AnyResult r;
    for (int i = 0; i < reps; ++i) {
      ++run.attempted;
      wall.push_back(timed(run, name, -1, [&] {
        r = algorithms::pagerank(eng, algorithms::PageRankOptions{});
      }));
    }
    if (check) oracle_check(run, "PR", in.batch, eng.graph(), {}, r);
    return median(wall);
  };

  // Strong scaling of PageRank: 1 thread against the run's thread count.
  const int threads = grind::num_threads();
  engine::Engine e4(g);
  const double t4 = pr_runs(e4, 3, "extra.pr_threads", false);
  double t1 = 0;
  {
    grind::ThreadCountGuard one(1);
    engine::Engine e1(g);
    t1 = pr_runs(e1, 3, "extra.pr_1thread", true);
  }
  m.set("engine.pr_scaling_eff", t1 / (threads * t4), "ratio");

  // Forced dense COO against forced PCPM on a second build with bins.
  StageTimes st;
  const int span = run.tracer.begin("extra.pcpm_build");
  const graph::Graph gp = build_graph(run, in.batch, span, st, true);
  run.tracer.end(span);
  auto forced = [&](engine::Layout layout, engine::TraversalKind kind,
                    const char* name) {
    engine::Options o;
    o.layout = layout;
    engine::Engine eng(gp, o);
    pr_runs(eng, 3, name, layout == engine::Layout::kPcpm);
    const auto& s = eng.stats();
    const double secs = s.seconds_for(kind);
    return std::pair{secs > 0 ? s.edges_for(kind) / secs / 1e6 : 0.0,
                     static_cast<double>(s.pcpm_bin_bytes) / 3};
  };
  const auto coo = forced(engine::Layout::kDenseCoo,
                          engine::TraversalKind::kDenseCoo, "extra.pr_forced_coo");
  const auto pcpm = forced(engine::Layout::kPcpm, engine::TraversalKind::kPcpm,
                           "extra.pr_forced_pcpm");
  m.set("engine.forced_coo.meps", coo.first, "Medges/s");
  m.set("engine.pcpm.meps", pcpm.first, "Medges/s");
  m.set("engine.pcpm.bin_bytes", pcpm.second, "B/run");
}

}  // namespace perfbench
