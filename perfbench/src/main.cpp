// coyote_perfbench: the repository's end-to-end benchmark program.
//
//   coyote_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--reference <file>] [--trace-out <file>]
//
// Prints a human-readable report, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics of a traced replay with --trace 1.
// Exits 1 without a result when the run cannot complete. See
// perfbench/README.md for the workloads, metrics and trace format.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

namespace json = coyote::util::json;

constexpr unsigned kMaxThreads = 4;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--reference <file>] [--trace-out <file>]\n"
               "workloads:",
               argv0);
  for (const std::string& w : perfbench::workloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Pins the library's thread pool to min(available CPUs, kMaxThreads)
/// before anything builds it; returns the count.
unsigned pinThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  unsigned cpus = 1;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    cpus = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  const unsigned threads = std::min(cpus, kMaxThreads);
  setenv("COYOTE_THREADS", std::to_string(threads).c_str(), 1);
  return threads;
}

void printMetrics(const char* title,
                  const std::vector<perfbench::Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const perfbench::Metric& m : metrics) {
    std::printf("  %-30s %-14s %s\n", m.name.c_str(),
                json::formatNumber(m.value).c_str(), m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        have_seconds = opt.seconds >= 0.0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage(argv[0]);
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--reference") {
        opt.reference_path = v;
      } else if (a == "--trace-out") {
        opt.trace_out = v;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage(argv[0]);
  }

  const unsigned threads = pinThreads();
  perfbench::RunResult res;
  try {
    res = perfbench::runWorkload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coyote_perfbench: %s\n", e.what());
    return 1;
  }
  const unsigned pool_threads =
      coyote::util::ThreadPool::global().threadCount();
  if (pool_threads != threads) {
    std::fprintf(stderr, "coyote_perfbench: thread pool has %u threads, "
                 "expected %u\n", pool_threads, threads);
    return 1;
  }

  std::printf("# perfbench %s: seed %llu, %s s, trace %d, %u threads\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              json::formatNumber(opt.seconds).c_str(), opt.trace ? 1 : 0,
              threads);
  for (const std::string& n : res.notes) std::printf("# %s\n", n.c_str());
  printMetrics("end-to-end (untraced)", res.end_to_end);
  if (opt.trace) printMetrics("per-layer (traced replay)", res.per_layer);
  const std::vector<perfbench::Metric>& reported =
      opt.trace ? res.per_layer : res.end_to_end;
  res.checks.expect(std::all_of(reported.begin(), reported.end(),
                                [](const perfbench::Metric& m) {
                                  return std::isfinite(m.value);
                                }),
                    "a reported metric is not finite");
  const perfbench::Checks& ck = res.checks;
  const double error_rate = static_cast<double>(ck.failed) /
                            static_cast<double>(std::max(1LL, ck.attempted));
  std::printf("# error_rate %s (%lld failed of %lld operations and checks)\n",
              json::formatNumber(error_rate).c_str(), ck.failed,
              ck.attempted);
  for (const std::string& f : ck.failures) {
    std::printf("# FAILED: %s\n", f.c_str());
  }
  std::printf("# reference entry: %s\n", res.reference_entry.dump(0).c_str());

  json::Value metrics = json::Value::object();
  for (const perfbench::Metric& m : reported) {
    json::Value v = json::Value::object();
    // JSON has no NaN or infinity; the failed check above flags them.
    v["value"] = std::isfinite(m.value) ? m.value : -1.0;
    v["unit"] = m.unit;
    metrics[m.name] = std::move(v);
  }
  json::Value out = json::Value::object();
  out["correct"] = ck.failed == 0;
  out["attempted"] = static_cast<double>(ck.attempted);
  out["failed"] = static_cast<double>(ck.failed);
  out["metrics"] = std::move(metrics);
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}
