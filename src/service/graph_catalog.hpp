// GraphCatalog: named, refcounted, epoch-versioned graphs for one service.
//
// The paper's serving regime amortises one partitioned read-only structure
// over many traversals; a real tier holds *several* such structures — per
// tenant, per snapshot — and queries address {graph, algorithm, params}.
// The catalog supplies that addressing layer:
//
//   * every resident graph is one immutable CatalogEntry reached through a
//     shared_ptr Handle.  A query pins the Handle for its whole lifetime,
//     so eviction can never yield use-after-evict: evict() unlinks the name
//     immediately (new lookups miss) and the entry's memory is freed when
//     the last in-flight query drops its pin — "refuse or defer", never
//     invalidate;
//   * entries carry an epoch drawn from one catalog-global monotone
//     counter.  Replacing a name (reload) or bump_epoch() installs a new
//     entry with a strictly larger epoch; an epoch value is never reused,
//     even across evict + reload, which is what lets the result cache key
//     on (name, epoch) and treat every stale entry as unreachable garbage
//     instead of a correctness hazard;
//   * the per-graph default source (max-out-degree vertex, original-ID
//     space) is resolved once at load — the service must never consult a
//     single shared default across graphs, and queries must never be the
//     first to compute state reachable from a shared structure;
//   * residency is tracked against an optional byte budget, in the
//     bounded-budget spirit of the trillion-edge partitioning line of work
//     (PAPERS.md): load() refuses (throws) when the estimate would exceed
//     the budget.  Deferred evictions keep their bytes accounted until the
//     last pin drops — the memory genuinely is still resident.
//
// All methods are thread-safe; Handles are freely shareable across threads
// (the underlying Graph is strictly read-only).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sys/thread_safety.hpp"
#include "sys/types.hpp"

namespace grind::service {

class GraphCatalog {
 public:
  struct Config {
    /// Upper bound on resident graph bytes (estimate); 0 = unbounded.
    std::size_t byte_budget = 0;
  };

  /// One immutable resident graph.  Reached only through Handles; destroyed
  /// when the catalog has unlinked it AND the last query pin dropped.
  class Entry {
   public:
    [[nodiscard]] const graph::Graph& graph() const { return *graph_; }
    [[nodiscard]] const std::string& name() const { return name_; }
    /// Catalog-global monotone version; never reused across reloads.
    [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
    /// Estimated resident bytes of the layouts (approx_graph_bytes).
    [[nodiscard]] std::size_t bytes() const { return bytes_; }
    /// Per-graph default for source-taking algorithms (original-ID space);
    /// kInvalidVertex for an empty graph.
    [[nodiscard]] vid_t default_source() const { return default_source_; }

   private:
    friend class GraphCatalog;
    Entry(std::string name, std::uint64_t epoch,
          std::shared_ptr<const graph::Graph> g, std::size_t bytes,
          vid_t default_source)
        : name_(std::move(name)),
          epoch_(epoch),
          graph_(std::move(g)),
          bytes_(bytes),
          default_source_(default_source) {}

    std::string name_;
    std::uint64_t epoch_;
    std::shared_ptr<const graph::Graph> graph_;
    std::size_t bytes_;
    vid_t default_source_;
  };

  using Handle = std::shared_ptr<const Entry>;

  enum class EvictOutcome {
    kEvicted,   ///< unlinked and freed (no query held a pin)
    kDeferred,  ///< unlinked; memory freed when the last in-flight pin drops
    kNotFound,
  };

  /// One row of list(): a snapshot, not a live view.
  struct Info {
    std::string name;
    std::uint64_t epoch = 0;
    std::size_t bytes = 0;
    /// Query pins outstanding right now (excludes the catalog's own).
    std::size_t pins = 0;
    vid_t num_vertices = 0;
    eid_t num_edges = 0;
  };

  GraphCatalog() = default;
  explicit GraphCatalog(Config cfg) : cfg_(cfg) {}

  GraphCatalog(const GraphCatalog&) = delete;
  GraphCatalog& operator=(const GraphCatalog&) = delete;

  /// Insert or replace `name` (replacement = new entry, strictly larger
  /// epoch; in-flight queries keep the old entry pinned).  Throws
  /// std::invalid_argument on an empty name, std::runtime_error when the
  /// byte budget would be exceeded.  Returns the new entry's handle.
  Handle load(const std::string& name, graph::Graph g);

  /// Unlink `name`.  Never invalidates outstanding Handles — see
  /// EvictOutcome.
  EvictOutcome evict(const std::string& name);

  /// nullptr when no graph has this name.
  [[nodiscard]] Handle find(const std::string& name) const;

  /// Install a new entry for `name` sharing the same Graph but a strictly
  /// larger epoch — the "underlying data changed, invalidate cached
  /// results" signal (result-cache entries keyed on the old epoch become
  /// unreachable).  Returns the new epoch, or 0 when the name is unknown.
  std::uint64_t bump_epoch(const std::string& name);

  /// Snapshot of all resident entries, sorted by name.
  [[nodiscard]] std::vector<Info> list() const;

  /// Estimated bytes of every live graph, including deferred evictions
  /// whose last pin has not dropped yet.
  [[nodiscard]] std::size_t resident_bytes() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t byte_budget() const { return cfg_.byte_budget; }

 private:
  /// Byte accounting shared with the graph deleters so a deferred
  /// eviction's bytes are released whenever the last pin drops — which may
  /// be after the catalog itself is gone.
  struct Ledger {
    sys::Mutex m;
    std::size_t bytes GRIND_GUARDED_BY(m) = 0;
  };

  Config cfg_{};
  std::shared_ptr<Ledger> ledger_ = std::make_shared<Ledger>();
  mutable sys::Mutex m_;
  std::uint64_t next_epoch_ GRIND_GUARDED_BY(m_) = 0;
  // Small; linear scan by name.
  std::vector<Handle> entries_ GRIND_GUARDED_BY(m_);
};

}  // namespace grind::service
