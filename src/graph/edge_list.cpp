#include "graph/edge_list.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sys/parallel.hpp"

namespace grind::graph {

namespace {

// Rows per dynamic-schedule claim of the row sort (as in Csr::build).
constexpr std::size_t kRowSortChunk = 256;

/// Stably sort `edges` by (row, col): a stable bucketing by the row
/// endpoint, then a stable sort of each row by the other one.  Equal
/// (row, col) pairs keep their input order at every thread count.
/// Endpoints must lie in [0, n).
void stable_sort_edges(std::vector<Edge>& edges, vid_t n,
                       const vid_t Edge::*row, const vid_t Edge::*col) {
  std::vector<Edge> sorted(edges.size());
  std::vector<eid_t> offsets(static_cast<std::size_t>(n) + 1);
  stable_bucket(
      edges.size(), n, [&](std::size_t i) { return edges[i].*row; },
      offsets.data(), [&](eid_t slot, std::size_t i) { sorted[slot] = edges[i]; });
  parallel_for_dynamic(
      0, n,
      [&](std::size_t v) {
        std::stable_sort(sorted.begin() + offsets[v],
                         sorted.begin() + offsets[v + 1],
                         [col](const Edge& a, const Edge& b) {
                           return a.*col < b.*col;
                         });
      },
      kRowSortChunk);
  edges = std::move(sorted);
}

/// How many edges have each vertex as their `end` endpoint (parallel_count:
/// the same counts at every thread count).
std::vector<eid_t> count_endpoints(const std::vector<Edge>& edges, vid_t n,
                                   const vid_t Edge::*end) {
  std::vector<eid_t> deg(n);
  parallel_count(
      edges.size(), n, [&](std::size_t i) { return edges[i].*end; },
      deg.data());
  return deg;
}

}  // namespace

void EdgeList::add(vid_t src, vid_t dst, weight_t w) {
  edges_.push_back(Edge{src, dst, w});
  if (src >= num_vertices_) num_vertices_ = src + 1;
  if (dst >= num_vertices_) num_vertices_ = dst + 1;
}

eid_t EdgeList::remove_self_loops() {
  const std::size_t before = edges_.size();
  std::erase_if(edges_, [](const Edge& e) { return e.src == e.dst; });
  return before - edges_.size();
}

eid_t EdgeList::deduplicate() {
  const std::size_t before = edges_.size();
  sort_by_source();  // stable, so each pair's first occurrence leads its run
  auto last = std::unique(edges_.begin(), edges_.end(),
                          [](const Edge& a, const Edge& b) {
                            return a.src == b.src && a.dst == b.dst;
                          });
  edges_.erase(last, edges_.end());
  return before - edges_.size();
}

void EdgeList::symmetrize() {
  const std::size_t n = edges_.size();
  edges_.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const Edge& e = edges_[i];
    if (e.src != e.dst) edges_.push_back(Edge{e.dst, e.src, e.weight});
  }
  deduplicate();
}

std::vector<eid_t> EdgeList::out_degrees() const {
  return count_endpoints(edges_, num_vertices_, &Edge::src);
}

std::vector<eid_t> EdgeList::in_degrees() const {
  return count_endpoints(edges_, num_vertices_, &Edge::dst);
}

eid_t EdgeList::max_degree() const {
  const auto deg = out_degrees();
  eid_t best = 0;
  for (eid_t d : deg) best = std::max(best, d);
  return best;
}

void EdgeList::sort_by_source() {
  check_endpoints(edges_, num_vertices_, Endpoints::kBoth,
                  "EdgeList::sort_by_source");
  stable_sort_edges(edges_, num_vertices_, &Edge::src, &Edge::dst);
}

void EdgeList::sort_by_destination() {
  check_endpoints(edges_, num_vertices_, Endpoints::kBoth,
                  "EdgeList::sort_by_destination");
  stable_sort_edges(edges_, num_vertices_, &Edge::dst, &Edge::src);
}

void check_endpoints(std::span<const Edge> es, vid_t bound, Endpoints which,
                     const char* who) {
  const auto checked = [which](const Edge& e) {
    switch (which) {
      case Endpoints::kSource:
        return e.src;
      case Endpoints::kDestination:
        return e.dst;
      case Endpoints::kBoth:
        break;
    }
    return std::max(e.src, e.dst);
  };
  const vid_t top = parallel_reduce_max<vid_t>(
      0, es.size(), 0, [&](std::size_t i) { return checked(es[i]); });
  if (es.empty() || top < bound) return;
  const auto bad = std::find_if(es.begin(), es.end(), [&](const Edge& e) {
    return checked(e) >= bound;
  });
  throw std::out_of_range(
      std::string(who) + ": edge " + std::to_string(bad - es.begin()) + " (" +
      std::to_string(bad->src) + " -> " + std::to_string(bad->dst) +
      ") has an endpoint outside [0, " + std::to_string(bound) + ")");
}

}  // namespace grind::graph
