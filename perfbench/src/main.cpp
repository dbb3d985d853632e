// perfbench: one run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--spans FILE]
//
// Prints a host/config record line, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"} holding every metric
// the run measured (perfbench/run.py selects the end-to-end or per-layer set).
// Exit code 0 when the run completed, whether or not a check failed; 2 on
// usage errors.
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <linux/perf_event.h>
#include <omp.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "phases.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

Config workload_config(const std::string& name, bool smoke) {
  Config c;
  c.workload = name;
  if (name == "batch-rmat19") {
    c.rmat_scale = 19;
    c.rmat_edge_factor = 16;
    c.social_scale = 16;
    c.social_edge_factor = 16;
    c.ladder_qps = {100, 250, 800};
  } else if (name == "locality-rmat21") {
    // Same edge counts as batch-rmat19, four times the vertices.
    c.rmat_scale = 21;
    c.rmat_edge_factor = 4;
    c.social_scale = 18;
    c.social_edge_factor = 4;
    c.ladder_qps = {100, 150, 500};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (smoke) {  // reduced sizes: every phase and metric, a few seconds
    c.rmat_scale -= 7;
    c.social_scale -= 5;
    c.road_side = 60;
    c.bfs_sources = 16;
    c.bfs_per_round = 8;
    c.ladder_qps = {50, 100};
    c.rung_min_requests = 100;
    c.source_pool = 256;
  }
  return c;
}

std::string pmu_status() {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof attr;
  attr.config = PERF_COUNT_HW_CPU_CYCLES;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0)
    return std::string("unavailable (perf_event_open: ") + std::strerror(errno) + ")";
  close(static_cast<int>(fd));
  return "available (not used)";
}

int numa_nodes() {
  int n = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator("/sys/devices/system/node", ec)) {
    const auto name = e.path().filename().string();
    if (name.rfind("node", 0) == 0 && name.size() > 4 &&
        std::isdigit(static_cast<unsigned char>(name[4])))
      ++n;
  }
  return n > 0 ? n : 1;
}

std::string host_record(const Run& run) {
  const char* omp = std::getenv("OMP_NUM_THREADS");
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const double ram = static_cast<double>(sysconf(_SC_PHYS_PAGES)) *
                     static_cast<double>(sysconf(_SC_PAGESIZE));
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::string s = "{\"host\": {";
  s += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"llc_bytes\": " + std::to_string(llc);
  s += ", \"numa_nodes\": " + std::to_string(numa_nodes());
  s += ", \"ram_bytes\": " + std::to_string(static_cast<long long>(ram));
  s += ", \"compiler\": \"" + json_escape(compiler) + "\"";
  s += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  s += ", \"omp_num_threads\": \"" + json_escape(omp != nullptr ? omp : "") + "\"";
  s += ", \"omp_max_threads\": " + std::to_string(omp_get_max_threads());
  s += ", \"pmu\": \"" + json_escape(pmu_status()) + "\"";
  s += "}, \"config\": {\"workload\": \"" + run.cfg.workload + "\"";
  s += ", \"seed\": " + std::to_string(run.seed);
  s += ", \"seconds\": " + std::to_string(run.seconds);
  s += ", \"trace\": " + std::string(run.trace ? "1" : "0");
  s += ", \"rmat\": [" + std::to_string(run.cfg.rmat_scale) + ", " +
       std::to_string(run.cfg.rmat_edge_factor) + "]";
  s += ", \"social_rmat\": [" + std::to_string(run.cfg.social_scale) + ", " +
       std::to_string(run.cfg.social_edge_factor) + "]";
  s += ", \"road_side\": " + std::to_string(run.cfg.road_side) + "}}";
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--spans FILE]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, spans;
  Run run;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") smoke = true;
    else if (a == "--workload" && has_value) workload = argv[++i];
    else if (a == "--seed" && has_value) run.seed = std::stoull(argv[++i]);
    else if (a == "--seconds" && has_value) run.seconds = std::stod(argv[++i]);
    else if (a == "--trace" && has_value) run.trace = std::string(argv[++i]) == "1";
    else if (a == "--spans" && has_value) spans = argv[++i];
    else return usage();
  }
  try {
    run.cfg = workload_config(workload, smoke);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage();
  }
  run.tracer.set_enabled(run.trace);
  std::cout << host_record(run) << std::endl;

  const auto start = Clock::now();
  auto phase_done = [&](const char* what) {
    std::fprintf(stderr, "[%6.1f s] %s done\n", seconds_between(start, Clock::now()), what);
  };
  const Inputs in = make_inputs(run.cfg, run.seed);
  phase_done("inputs");
  Built built = setup(run, in);
  phase_done("setup");
  batch_phase(run, built.batch, in, run.seconds * run.cfg.batch_share);
  phase_done("batch");
  if (run.trace) {
    trace_extras(run, built.batch, in);
    phase_done("trace extras");
  }
  serve_phase(run, *built.svc, in, run.seconds * (1.0 - run.cfg.batch_share));
  phase_done("serve");
  run.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  for (const auto& check : run.deferred_checks) check();
  phase_done("checks");
  run.metrics.set("fail_frac",
                  static_cast<double>(run.failed) / static_cast<double>(run.attempted),
                  "ratio");
  if (run.trace) run.metrics.set("trace.spans", static_cast<double>(run.tracer.size()), "count");
  built.svc->shutdown();

  for (const auto& f : run.failures) std::cerr << "FAILED: " << f << "\n";
  if (!spans.empty() && !run.tracer.write(spans))
    std::cerr << "could not write spans to " << spans << "\n";
  std::cout << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
            << ", \"metrics\": " << run.metrics.json() << "}" << std::endl;
  return 0;
}
