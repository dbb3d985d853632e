// Deterministic synthetic graph generators.
//
// These stand in for the paper's data sets (Table I) at laptop scale — see
// bench/suite.hpp.  All generators take an explicit seed and produce identical
// output regardless of thread count.
//
//  * rmat         — recursive-matrix (Graph500) generator; with the standard
//                   (a,b,c) = (0.57, 0.19, 0.19) parameters it yields the
//                   heavy-tailed degree distributions of Twitter/Friendster/
//                   RMAT27.
//  * powerlaw     — Chung–Lu model with degree exponent alpha; alpha = 2.0
//                   matches the paper's "Powerlaw (α = 2.0)" graph.
//  * erdos_renyi  — uniform random graph (test workloads).
//  * road_lattice — 2-D grid with occasional shortcut edges: low uniform
//                   degree, huge diameter — the structural regime of USAroad.
//  * path/cycle/star/complete/paper_example — exact small graphs for tests.
#pragma once

#include <cstdint>

#include "graph/edge_list.hpp"

namespace grind::graph {

/// Parameters for the RMAT generator.
struct RmatParams {
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;  // d = 1 - a - b - c
  bool remove_self_loops = true;
  bool deduplicate = false;  // paper graphs are multigraph-free after dedup,
                             // but dedup is O(E log E); off by default.
};

/// RMAT graph with 2^scale vertices and ~edge_factor * 2^scale edges.
EdgeList rmat(int scale, eid_t edge_factor, std::uint64_t seed,
              const RmatParams& params = {});

/// Chung–Lu power-law graph: expected degree of vertex i ∝ (i+1)^(-1/(alpha-1)).
/// `avg_degree` controls |E| ≈ avg_degree * n.
EdgeList powerlaw(vid_t n, double alpha, double avg_degree,
                  std::uint64_t seed);

/// Erdős–Rényi G(n, m): m edges sampled uniformly with replacement,
/// self-loops removed.
EdgeList erdos_renyi(vid_t n, eid_t m, std::uint64_t seed);

/// Road-network-like graph: rows×cols 4-neighbor lattice (symmetrized) with
/// `shortcut_fraction`·|lattice edges| extra random short-range edges.
/// Weights are uniform in [1, 10) to give Bellman-Ford non-trivial work.
EdgeList road_lattice(vid_t rows, vid_t cols, double shortcut_fraction,
                      std::uint64_t seed);

/// Directed path 0→1→…→n-1.
EdgeList path(vid_t n);

/// Directed cycle 0→1→…→n-1→0.
EdgeList cycle(vid_t n);

/// Star: hub 0 with out-edges to all other vertices.
EdgeList star(vid_t n);

/// Complete directed graph without self-loops (n ≤ a few thousand).
EdgeList complete(vid_t n);

/// The 6-vertex, 14-edge worked example of the paper's Fig 1.  Its CSR and
/// CSC arrays are asserted verbatim in tests/test_paper_example.cpp.
EdgeList paper_example();

}  // namespace grind::graph
