// wavebench: the wavemig benchmark. One run measures one workload for a
// fixed number of seconds and prints, as its last line, one JSON object with
// the run's correctness, operation counts and metric values by name
// (wavebench/run.py turns it into the result line, with units).
//
//   wavebench --workload <flow_suite|bool_batch|plane_bulk|wire_serve>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// measures the same work untraced and then traced, and reports the
// per-layer metrics, the ledger and the tracing overhead. Inputs are made
// from --seed only; the library sees nothing but the generated inputs.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace wavebench;

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void print_context(const config& cfg) {
  __builtin_cpu_init();
  std::printf("context: nproc=%u avx2=%d avx512f=%d avx512bw=%d avx512vl=%d compiler=\"%s\" "
              "build=%s fault_sites=%s\n",
              cfg.nproc, __builtin_cpu_supports("avx2") ? 1 : 0,
              __builtin_cpu_supports("avx512f") ? 1 : 0,
              __builtin_cpu_supports("avx512bw") ? 1 : 0,
              __builtin_cpu_supports("avx512vl") ? 1 : 0, __VERSION__, WAVEBENCH_BUILD_TYPE,
#if defined(WAVEMIG_FAULT_INJECTION)
              "compiled-in"
#else
              "compiled-out"
#endif
  );
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "wavebench: %s\nusage: wavebench --workload <flow_suite|bool_batch|plane_bulk|"
               "wire_serve> --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  config cfg;
  cfg.nproc = available_cpus();
  std::string trace_file;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (arg == "--trace") {
        cfg.trace = std::stoi(value) != 0;
      } else if (arg == "--trace-file") {
        trace_file = value;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload || !(cfg.seconds > 0.0)) {
    usage("--workload and a positive --seconds are required");
  }

  print_context(cfg);
  result res;
  try {
    if (cfg.workload == "flow_suite") {
      res = run_flow_suite(cfg);
    } else if (cfg.workload == "bool_batch") {
      res = run_bool_batch(cfg);
    } else if (cfg.workload == "plane_bulk") {
      res = run_plane_bulk(cfg);
    } else if (cfg.workload == "wire_serve") {
      res = run_wire_serve(cfg);
    } else {
      usage(("unknown workload " + cfg.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wavebench: %s failed: %s\n", cfg.workload.c_str(), e.what());
    return 2;
  }
  if (!cfg.trace && res.values.count("peak_rss_mb") == 0) {
    res.set("peak_rss_mb", peak_rss_mb());
  }

  for (const auto& line : res.notes) {
    std::printf("%s\n", line.c_str());
  }
  if (res.attempted == 0) {
    std::fprintf(stderr, "wavebench: no operation was attempted\n");
    return 2;
  }
  std::printf("failed_ratio = %.6g (%llu failed or refused of %llu attempted)\n",
              static_cast<double>(res.failed) / static_cast<double>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));

  // Metric values by name; run.py checks them against BENCHMARK.json (the
  // one list of metric names and units) and attaches the units.
  std::string values;
  for (const auto& [name, value] : res.values) {
    std::printf("%-44s %.6g\n", name.c_str(), value);
    char buffer[256];
    if (std::isfinite(value)) {
      std::snprintf(buffer, sizeof buffer, "%s\"%s\": %.17g", values.empty() ? "" : ", ",
                    name.c_str(), value);
    } else {
      std::snprintf(buffer, sizeof buffer, "%s\"%s\": null", values.empty() ? "" : ", ",
                    name.c_str());
    }
    values += buffer;
  }
  if (cfg.trace && !trace_file.empty() && !trace::write_jsonl(res.spans, trace_file)) {
    std::fprintf(stderr, "wavebench: cannot write %s\n", trace_file.c_str());
    return 2;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"values\": {%s}}\n",
              res.correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), values.c_str());
  return res.correct ? 0 : 1;
}
