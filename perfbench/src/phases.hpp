// The phases of one perfbench run and the state they share.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "graph/edge_list.hpp"
#include "service/graph_service.hpp"

namespace perfbench {

/// Sizes and rates of one workload.  Every value is a fixed constant of the
/// workload, never derived from what a run measures, so a parent commit and
/// a change are driven by identical inputs and identical offered load.
struct Config {
  std::string workload;
  // Batch graph: R-MAT (Graph500 parameters), timed through engine::Engine.
  int rmat_scale = 19;
  int rmat_edge_factor = 16;
  // Serve catalog: "social" = R-MAT, "road" = road_side² lattice, symmetrised.
  int social_scale = 16;
  int social_edge_factor = 16;
  grind::vid_t road_side = 300;
  int setup_reps = 3;
  int bfs_sources = 128;
  int bfs_per_round = 32;
  int bc_sources_per_round = 2;
  double batch_share = 0.5;  // of --seconds; the serve phase gets the rest

  // Serve phase: open loop, fixed rates.  The nominal rate is rung 0 of the
  // ladder; a rung passes when its p99 stays under the limit, nothing fails
  // or is refused, and the backlog does not grow.  Each workload places its
  // rungs well away from its capacity knee (measured on the 4-core test
  // host: ~600 requests/s on batch-rmat19, ~320 on locality-rmat21, and up
  // to 40 % lower when neighbours load the host), so a pass or a fail does
  // not flip between runs of the same code.
  std::vector<double> ladder_qps;
  double p99_limit_ms = 400;
  int rung_min_requests = 1000;  // ≥ 10 samples beyond p99
  double epoch_bump_every_s = 2.0;
  double late_limit_ms = 20;  // generator lateness p99 above this ⇒ invalid
  std::size_t source_pool = 1024;
  std::size_t cache_entries = 64;
};

/// The seeded inputs of a run (original-ID space).  Source lists hold
/// distinct non-isolated vertices in seeded order.
struct Inputs {
  grind::graph::EdgeList batch;
  grind::graph::EdgeList social;
  grind::graph::EdgeList road;
  std::vector<grind::vid_t> batch_sources;
  std::vector<grind::vid_t> social_sources;
  std::vector<grind::vid_t> road_sources;
};

/// What set-up produces: the batch graph, and the service whose catalog
/// holds "social" and "road".
struct Built {
  grind::graph::Graph batch;
  std::unique_ptr<grind::service::GraphService> svc;
};

/// Shared run state: the trace, the metric table and the failure ledger.
struct Run {
  Config cfg;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  Tracer tracer{false};
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Correctness checks run after the timed phases and after peak memory
  /// is read, so oracle work is neither timed nor counted as the program's.
  std::vector<std::function<void()>> deferred_checks;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 32) failures.push_back(why);
  }
};

Inputs make_inputs(const Config& cfg, std::uint64_t seed);

/// Build the three graphs and start the service cfg.setup_reps times;
/// reports setup_s (median) and the per-stage graph.* times (summed over the
/// three builds).  Returns the last repetition's products.
Built setup(Run& run, const Inputs& in);

/// Timed batch analytics on the batch graph through engine::Engine; queues
/// the oracle checks on run.deferred_checks.  Reports pr_s, prdelta_s, cc_s, bc_s, bfs_p*_ms and
/// the engine.* / algo.* layer metrics.
void batch_phase(Run& run, const grind::graph::Graph& g, const Inputs& in,
                 double budget_s);

/// Traced-run extras: forced dense-COO vs forced PCPM PageRank on a second
/// build with message bins, and a 1-thread PageRank for scaling efficiency.
void trace_extras(Run& run, const grind::graph::Graph& g, const Inputs& in);

/// Open-loop multi-graph serve phase over the service's catalog.  Reports
/// serve_p50_ms, serve_p99_ms, serve_max_qps and the service.* / loadgen.*
/// layer metrics, and queues checks of a sample of results.
void serve_phase(Run& run, grind::service::GraphService& svc,
                 const Inputs& in, double budget_s);

}  // namespace perfbench
