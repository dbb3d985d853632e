// The open-loop serve phase: one generator thread submits requests to a
// GraphService at fixed offered rates (the ladder), polls their futures, and
// times each request from the moment it was due.  Service-side layers are
// read from QueryResult::{queue_seconds,seconds} and GraphService::stats().
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <set>
#include <thread>

#include "algorithms/bc.hpp"
#include "algorithms/bellman_ford.hpp"
#include "algorithms/bfs.hpp"
#include "algorithms/cc.hpp"
#include "algorithms/pagerank.hpp"
#include "engine/engine.hpp"
#include "phases.hpp"

namespace perfbench {

using grind::vid_t;
namespace algorithms = grind::algorithms;
namespace service = grind::service;

namespace {

// The request mix.  Graph: 3 of 4 requests address "social".  Algorithm:
// Zipf-like BFS ≫ BC > CC > BF > PR.  BF is left out on "road", where one
// Bellman-Ford query runs for seconds and would set the p99 on its own.
// PR (no source, so one cache key per graph and epoch) is the slowest
// query; its misses — one after each epoch bump, more when cold keys evict
// it — stay well under 1 % of requests, so the p99 falls inside the BF/BC
// tail instead of on the edge of the PR-miss count, where it jumped by 40 %
// between seeds.
constexpr double kSocialShare = 0.75;
const char* const kAlgos[] = {"BFS", "BC", "CC", "BF", "PR"};
constexpr double kAlgoWeights[] = {0.58, 0.20, 0.12, 0.08, 0.02};
constexpr double kRoadAlgoWeights[] = {0.58, 0.20, 0.12, 0.0, 0.02};
constexpr double kSourceZipf = 1.0;  // over each graph's source pool

struct Request {
  bool social = true;
  const char* algo = "BFS";
  vid_t source = 0;
  bool has_source = false;
};

struct Outcome {
  service::QueryResult result;
  double e2e_ms = 0;   // due → completion observed
  double late_ms = 0;  // due → submit
};

struct Rung {
  double rate = 0;
  std::vector<Request> reqs;
  std::vector<Outcome> out;
  std::size_t backlog_at_last_due = 0;
  double wall_s = 0;  // first due → last completion
  service::ServiceStats before, after;
};

/// The check-sample class of a served result: graph, algorithm, and whether
/// it came from the cache.
std::string sample_key(const Request& r, const service::QueryResult& res) {
  return std::string(r.social ? "social/" : "road/") + r.algo +
         (res.cached ? "/hit" : "/run");
}

bool needs_source(const char* algo) {
  return std::string(algo) != "CC" && std::string(algo) != "PR";
}

std::vector<Request> make_requests(const Inputs& in, std::size_t n, Rng& rng) {
  const Weighted social_algo({std::begin(kAlgoWeights), std::end(kAlgoWeights)});
  const Weighted road_algo({std::begin(kRoadAlgoWeights), std::end(kRoadAlgoWeights)});
  const Weighted social_src = Weighted::zipf(in.social_sources.size(), kSourceZipf);
  const Weighted road_src = Weighted::zipf(in.road_sources.size(), kSourceZipf);
  std::vector<Request> reqs(n);
  for (auto& r : reqs) {
    r.social = rng.uniform() < kSocialShare;
    r.algo = kAlgos[(r.social ? social_algo : road_algo).sample(rng)];
    r.has_source = needs_source(r.algo);
    if (r.has_source)
      r.source = r.social ? in.social_sources[social_src.sample(rng)]
                          : in.road_sources[road_src.sample(rng)];
  }
  return reqs;
}

service::QueryRequest to_query(const Request& r) {
  service::QueryRequest q(r.algo);
  q.graph = r.social ? "social" : "road";
  if (r.has_source) q.params.set("source", static_cast<std::int64_t>(r.source));
  return q;
}

/// Drive one rung open loop: request i is due at i / rate seconds after the
/// start, whatever happened to earlier requests.  Epoch bumps (the write
/// side) run on the same fixed schedule.
void drive(Run& run, service::GraphService& svc, Rung& rung, int rung_index) {
  struct Pending {
    std::size_t i;
    std::future<service::QueryResult> f;
  };
  const std::size_t n = rung.reqs.size();
  rung.out.resize(n);
  std::vector<Pending> pending;
  const int span = run.tracer.begin("serve.rung", -1, rung_index);
  rung.before = svc.stats();
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(i / rung.rate));
  };
  const auto bump_every = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(run.cfg.epoch_bump_every_s));
  auto next_bump = t0 + bump_every;
  int bumps = 0;
  std::set<std::string> kept;
  auto finish = [&](std::size_t i, service::QueryResult r, Clock::time_point at) {
    auto& o = rung.out[i];
    o.e2e_ms = seconds_between(due(i), at) * 1e3;
    o.result = std::move(r);
    // Keep only the values queue_checks() reads, so |V|-sized results do
    // not pile up over a rung.
    if (!kept.insert(sample_key(rung.reqs[i], o.result)).second)
      o.result.value = {};
    run.tracer.add("serve.request", run.tracer.at(due(i)), run.tracer.at(at),
                   span, (std::uint64_t(rung_index) << 32) | i);
  };
  std::size_t next = 0;
  Clock::time_point last_done = t0;
  while (next < n || !pending.empty()) {
    auto now = Clock::now();
    if (now >= next_bump) {
      svc.bump_epoch(bumps++ % 2 == 0 ? "social" : "road");
      next_bump += bump_every;
    }
    while (next < n && due(next) <= now) {
      const auto submit = Clock::now();
      rung.out[next].late_ms = seconds_between(due(next), submit) * 1e3;
      auto f = svc.submit(to_query(rung.reqs[next]));
      if (next + 1 == n) rung.backlog_at_last_due = pending.size();
      // Cache hits resolve inside submit().
      if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        last_done = Clock::now();
        finish(next, f.get(), last_done);
      } else {
        pending.push_back({next, std::move(f)});
      }
      ++next;
      now = Clock::now();
    }
    for (std::size_t k = 0; k < pending.size();) {
      if (pending[k].f.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        last_done = Clock::now();
        finish(pending[k].i, pending[k].f.get(), last_done);
        pending[k] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++k;
      }
    }
    auto wake = Clock::now() + std::chrono::microseconds(200);
    if (next < n && due(next) < wake) wake = due(next);
    std::this_thread::sleep_until(wake);
  }
  rung.wall_s = seconds_between(t0, last_done);
  rung.after = svc.stats();
  run.tracer.end(span);
}

struct RungSummary {
  double p50_ms = 0, p99_ms = 0, late_p99_ms = 0, achieved_qps = 0;
  std::uint64_t not_ok = 0;
  bool pass = false;
};

RungSummary summarize(const Run& run, const Rung& rung) {
  RungSummary s;
  std::vector<double> e2e, late;
  std::size_t ok = 0;
  for (const auto& o : rung.out) {
    e2e.push_back(o.e2e_ms);
    late.push_back(o.late_ms);
    if (o.result.ok()) ++ok; else ++s.not_ok;
  }
  s.p50_ms = percentile(e2e, 0.5);
  s.p99_ms = percentile(e2e, 0.99);
  s.late_p99_ms = percentile(late, 0.99);
  s.achieved_qps = rung.wall_s > 0 ? ok / rung.wall_s : 0;
  // A stable queue stays within what the latency limit allows by Little's
  // law; a growing one ends the rung far above it.
  const double backlog_limit = rung.rate * run.cfg.p99_limit_ms / 1e3;
  s.pass = s.not_ok == 0 && s.p99_ms <= run.cfg.p99_limit_ms &&
           static_cast<double>(rung.backlog_at_last_due) <= backlog_limit &&
           s.late_p99_ms <= run.cfg.late_limit_ms;
  return s;
}

template <typename T>
std::string compare_exact(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return "size differs";
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return "differs at vertex " + std::to_string(i);
  return {};
}

std::string compare_near(const std::vector<double>& a,
                         const std::vector<double>& b, double rel) {
  if (a.size() != b.size()) return "size differs";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isinf(a[i]) && std::isinf(b[i])) continue;
    if (!(std::fabs(a[i] - b[i]) <= rel * std::max(1.0, std::fabs(b[i]))))
      return "differs at vertex " + std::to_string(i);
  }
  return {};
}

/// Compare a served result with the same query run directly on an Engine
/// at the benchmark's thread count (whose kernels the batch phase
/// oracle-checks); "" when they agree.
std::string compare_with_engine(const service::GraphService& svc,
                                const Request& r,
                                const algorithms::AnyResult& got) {
  const auto entry = svc.catalog().find(r.social ? "social" : "road");
  const auto& g = entry->graph();
  grind::engine::Engine eng(g);
  const auto& d = algorithms::AlgorithmRegistry::instance().at(r.algo);
  const auto q = to_query(r);
  const auto want = d.run_resolved(eng, d.resolve(q.params, g));
  const std::string code = r.algo;
  if (code == "BFS")
    return compare_exact(got.as<algorithms::BfsResult>().level,
                         want.as<algorithms::BfsResult>().level);
  if (code == "CC")
    return compare_exact(got.as<algorithms::CcResult>().labels,
                         want.as<algorithms::CcResult>().labels);
  if (code == "BC")
    return compare_near(got.as<algorithms::BcResult>().dependency,
                        want.as<algorithms::BcResult>().dependency, 1e-6);
  if (code == "BF")
    return compare_near(got.as<algorithms::BellmanFordResult>().dist,
                        want.as<algorithms::BellmanFordResult>().dist, 1e-9);
  return compare_near(got.as<algorithms::PageRankResult>().rank,
                      want.as<algorithms::PageRankResult>().rank, 1e-9);
}

/// Queue checks of a sample of the nominal rung's results: the first
/// executed and the first cached result of every (graph, algorithm) pair
/// against a direct engine run, and road BFS/BC/BF results against the
/// registered oracles (cheap on the road graph; the batch phase runs the
/// oracles on a larger graph).
void queue_checks(Run& run, const service::GraphService& svc, const Rung& rung,
                  const Inputs& in) {
  std::map<std::string, std::pair<Request, service::QueryResult>> sample;
  for (std::size_t i = 0; i < rung.out.size(); ++i) {
    const auto& res = rung.out[i].result;
    if (res.ok() && !res.value.empty())
      sample.emplace(sample_key(rung.reqs[i], res), std::pair{rung.reqs[i], res});
  }
  run.deferred_checks.push_back([&run, &svc, &in, sample] {
    for (const auto& [key, item] : sample) {
      const auto& [req, res] = item;
      ++run.attempted;
      const int span = run.tracer.begin("check.serve." + key);
      try {
        const std::string why = compare_with_engine(svc, req, res.value);
        if (!why.empty()) run.fail("serve " + key + ": " + why);
        if (!req.social && req.has_source && !res.cached) {
          ++run.attempted;
          algorithms::CheckContext cx;
          cx.el = &in.road;
          const auto& d = algorithms::AlgorithmRegistry::instance().at(req.algo);
          const auto& g = svc.catalog().find("road")->graph();
          d.check(cx, d.resolve(to_query(req).params, g), res.value);
        }
      } catch (const std::exception& e) {
        run.fail("serve " + key + ": " + e.what());
      }
      run.tracer.end(span);
    }
  });
}

/// Per-class counts and execution times of a rung, on stderr: the record
/// behind the mix weights and rates chosen above.
void report_mix(const Rung& rung) {
  std::map<std::string, std::vector<double>> exec;
  std::map<std::string, int> hits;
  for (std::size_t i = 0; i < rung.out.size(); ++i) {
    const auto& r = rung.reqs[i];
    const auto& res = rung.out[i].result;
    const std::string key = std::string(r.social ? "social/" : "road/") + r.algo;
    if (res.cached) ++hits[key]; else exec[key].push_back(res.seconds * 1e3);
  }
  for (const auto& [key, v] : exec)
    std::fprintf(stderr, "serve mix %-12s run %5zu hit %5d exec_ms p50 %8.2f p99 %8.2f\n",
                 key.c_str(), v.size(), hits[key], percentile(v, 0.5),
                 percentile(v, 0.99));
}

}  // namespace

void serve_phase(Run& run, service::GraphService& svc, const Inputs& in,
                 double budget_s) {
  const auto& cfg = run.cfg;
  Rng rng(run.seed * 0x9e3779b97f4a7c15ULL + 7);
  std::vector<Rung> rungs;
  std::vector<RungSummary> sums;
  const double per_rung_s = budget_s / static_cast<double>(cfg.ladder_qps.size());
  for (std::size_t k = 0; k < cfg.ladder_qps.size(); ++k) {
    Rung rung;
    rung.rate = cfg.ladder_qps[k];
    const auto n = static_cast<std::size_t>(std::max<double>(
        cfg.rung_min_requests, std::ceil(rung.rate * per_rung_s)));
    rung.reqs = make_requests(in, n, rng);
    drive(run, svc, rung, static_cast<int>(k));
    sums.push_back(summarize(run, rung));
    const auto& r = sums.back();
    std::fprintf(stderr,
                 "serve rung %6.1f/s: p50 %7.2f ms p99 %7.2f ms backlog %zu "
                 "achieved %6.1f/s late p99 %.2f ms -> %s\n",
                 rung.rate, r.p50_ms, r.p99_ms, rung.backlog_at_last_due,
                 r.achieved_qps, r.late_p99_ms, r.pass ? "pass" : "fail");
    rungs.push_back(std::move(rung));
    if (!r.pass) break;  // higher rates cannot pass either
  }

  // Nominal rung: end-to-end latency, correctness and the layer split.
  const Rung& nom = rungs.front();
  const RungSummary& ns = sums.front();
  for (const auto& r : rungs) run.attempted += r.out.size();
  for (const auto& o : nom.out)
    if (!o.result.ok())
      run.fail(std::string("serve ") + o.result.algorithm + ": " +
               service::to_string(o.result.status) + " " + o.result.error);
  for (std::size_t k = 1; k < rungs.size(); ++k)
    for (const auto& o : rungs[k].out)
      if (o.result.status == service::QueryStatus::kError)
        run.fail(std::string("serve ") + o.result.algorithm + ": " + o.result.error);
  if (ns.late_p99_ms > cfg.late_limit_ms)
    run.fail("load generator late: p99 " + std::to_string(ns.late_p99_ms) +
             " ms > " + std::to_string(cfg.late_limit_ms) + " ms; run invalid");
  queue_checks(run, svc, nom, in);
  report_mix(nom);

  double max_qps = 0;
  for (const auto& s : sums)
    if (s.pass) max_qps = s.achieved_qps;

  std::vector<double> queue_ms, exec_ms, resid_ms, late_ms;
  for (const auto& o : nom.out) {
    late_ms.push_back(o.late_ms);
    if (!o.result.ok() || o.result.cached) continue;
    queue_ms.push_back(o.result.queue_seconds * 1e3);
    exec_ms.push_back(o.result.seconds * 1e3);
    resid_ms.push_back(o.e2e_ms - queue_ms.back() - exec_ms.back());
  }
  const auto& b = nom.before;
  const auto& a = nom.after;
  const double hits = static_cast<double>(a.cache_hits - b.cache_hits);
  const double lookups = hits + static_cast<double>(a.cache_misses - b.cache_misses);

  auto& m = run.metrics;
  m.set("serve_p50_ms", ns.p50_ms, "ms");
  m.set("serve_p99_ms", ns.p99_ms, "ms");
  m.set("serve_max_qps", max_qps, "1/s");
  m.set("serve.requests", static_cast<double>(nom.out.size()), "count");
  m.set("serve.rungs_passed", static_cast<double>(std::count_if(
                                  sums.begin(), sums.end(),
                                  [](const RungSummary& s) { return s.pass; })),
        "count");
  m.set("service.queue_ms_p50", percentile(queue_ms, 0.5), "ms");
  m.set("service.queue_ms_p99", percentile(queue_ms, 0.99), "ms");
  m.set("service.exec_ms_p50", percentile(exec_ms, 0.5), "ms");
  m.set("service.exec_ms_p99", percentile(exec_ms, 0.99), "ms");
  m.set("service.residual_ms_p99", percentile(resid_ms, 0.99), "ms");
  m.set("service.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  m.set("service.cache_lookups", lookups, "count");
  m.set("service.busy_frac",
        (a.busy_seconds - b.busy_seconds) /
            (static_cast<double>(svc.num_workers()) * nom.wall_s),
        "ratio");
  m.set("service.shed", static_cast<double>(a.queries_shed - b.queries_shed), "count");
  m.set("service.deadline",
        static_cast<double>(a.queries_deadline_exceeded - b.queries_deadline_exceeded),
        "count");
  m.set("loadgen.late_ms_p99", percentile(late_ms, 0.99), "ms");
}

}  // namespace perfbench
