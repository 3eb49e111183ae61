// swdnn_bench: the end-to-end benchmark driver. One workload per
// process:
//
//   swdnn_bench --workload train_mesh --seed 1 --seconds 25 --trace 0
//
// prints the workload's metrics and replay table on stderr and one JSON
// object on stdout (run.py turns it into the benchmark's result line and
// BENCH_e2e.json).
// --trace 1 runs the per-layer pass instead: half the time untraced,
// half with the driver's spans on, then the layer replays, and writes
// trace_<workload>.json to --out-dir. --smoke runs every workload for a
// few operations with every correctness gate, for ctest.
//
// Exit status: 0 when every correctness gate held and no operation
// failed, 1 otherwise, 2 on a usage error.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "src/runtime/task_pool.h"

#ifndef SWDNN_BENCH_BUILD_TYPE
#define SWDNN_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using swdnn::e2e::Options;
using swdnn::e2e::Result;

const char* const kWorkloads[] = {"train_hier", "train_mesh", "conv_sweep",
                                  "serve"};

Result run_workload(const Options& o) {
  namespace e2e = swdnn::e2e;
  if (o.workload == "train_hier") return e2e::run_train_hier(o);
  if (o.workload == "train_mesh") return e2e::run_train_mesh(o);
  if (o.workload == "conv_sweep") return e2e::run_conv_sweep(o);
  return e2e::run_serve(o);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_numbers(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    char number[64] = "null";
    if (std::isfinite(value)) {
      std::snprintf(number, sizeof(number), "%.17g", value);
    }
    out += json_string(name) + ": " + number;
  }
  return out + "}";
}

/// Prints the human-readable report and the JSON result line.
void print_result(const Options& o, Result& r, int host_threads) {
  r.info["peak_rss_mb"] = swdnn::e2e::peak_rss_mb();
  if (!o.trace) {
    r.metrics["peak_rss_mb"] = r.info["peak_rss_mb"];
  } else {
    r.metrics["runtime.host_threads"] = host_threads;
  }
  for (auto& [name, value] : r.metrics) {
    r.gate(std::isfinite(value), "metric " + name + " is finite");
    if (!std::isfinite(value)) value = 0;  // keeps the JSON valid
  }
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "GATE FAILED [%s]: %s\n", o.workload.c_str(),
                 f.c_str());
  }
  for (const auto& [name, value] : r.metrics) {
    std::fprintf(stderr, "  %-36s %.6g\n", name.c_str(), value);
  }
  std::string failures = "[";
  for (const std::string& f : r.failures) {
    if (failures.size() > 1) failures += ", ";
    failures += json_string(f);
  }
  failures += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"machine\": {\"nproc\": %u, \"host_threads\": %d, "
      "\"build_type\": %s}, \"metrics\": %s, \"info\": %s, "
      "\"failures\": %s}\n",
      json_string(o.workload).c_str(),
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
      r.failures.empty() ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      std::thread::hardware_concurrency(), host_threads,
      json_string(SWDNN_BENCH_BUILD_TYPE).c_str(),
      json_numbers(r.metrics).c_str(), json_numbers(r.info).c_str(),
      failures.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: swdnn_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--out-dir DIR]\n"
               "       swdnn_bench --smoke [--workload NAME]\n"
               "workloads: train_hier train_mesh conv_sweep serve\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  const auto* known = std::find(std::begin(kWorkloads), std::end(kWorkloads),
                                options.workload);
  if (!(options.seconds > 0) ||
      (known == std::end(kWorkloads) &&
       !(options.smoke && options.workload.empty()))) {
    return usage();
  }

  // Host parallelism is fixed per run so runs compare: one lane per CPU
  // the process may run on (run.py gives it one), at most 4.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int allowed =
      sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  const int host_threads = std::clamp(allowed, 1, 4);
  swdnn::runtime::set_host_threads(host_threads);

  bool ok = true;
  if (options.smoke) {
    // Both passes of every workload (or the named one), a few ops each.
    options.trace = true;
    for (const char* name : kWorkloads) {
      if (!options.workload.empty() && options.workload != name) continue;
      Options o = options;
      o.workload = name;
      Result r = run_workload(o);
      print_result(o, r, host_threads);
      ok = ok && r.failures.empty() && r.failed == 0;
    }
  } else {
    Result r = run_workload(options);
    print_result(options, r, host_threads);
    ok = r.failures.empty() && r.failed == 0;
  }
  return ok ? 0 : 1;
}
