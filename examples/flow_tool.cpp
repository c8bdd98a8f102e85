// wavemig flow tool: a complete command-line front end for the library —
// read or generate a netlist, optionally optimize it, run the wave-pipelining
// flow, verify, report metrics, and export the result.
//
// Usage:
//   flow_tool (--in FILE | --gen BENCHMARK) [options]
//
// Input:
//   --in FILE             read netlist (.mig or .blif, by extension)
//   --gen NAME            build a suite benchmark (see --list)
//   --list                print the 37 benchmark names and exit
//
// Optimization:
//   --optimize            MIG depth rewriting before the flow
//   --wave-aware          wave-aware (balance) rewriting before the flow
//   --reduce              cut-based functional reduction before the flow
//
// Wave-pipelining flow:
//   --fanout-limit K      fan-out restriction to K (default 3; 0 = skip)
//   --no-buffers          skip the balancing pass
//   --schedule P          asap | alap | mid  (default asap)
//   --tolerance T         coherence tolerance (default 0; needs T+2 phases)
//   --phases P            clock phases for reports/simulation (default 3)
//
// Outputs:
//   --out FILE            write result (.mig, .blif, .v, .dot by extension)
//   --report              print metrics for SWD/QCA/NML
//   --phase-report        print the clock-phase assignment
//   --simulate N          stream N random waves and check them
//   --quiet               suppress the summary
//
// Exit status: 0 on success, 1 on a usage error or an error raised while
// reading or processing the netlist (printed as "flow_tool: <message>"),
// 2 when the result is not equivalent or not wave-ready.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <random>
#include <string>
#include <vector>

#include "wavemig/balance_rewriting.hpp"
#include "wavemig/depth_rewriting.hpp"
#include "wavemig/functional_reduction.hpp"
#include "wavemig/gen/suite.hpp"
#include "wavemig/io/blif.hpp"
#include "wavemig/io/dot.hpp"
#include "wavemig/io/mig_format.hpp"
#include "wavemig/io/verilog.hpp"
#include "wavemig/metrics.hpp"
#include "wavemig/phase_assignment.hpp"
#include "wavemig/pipeline.hpp"
#include "wavemig/simulation.hpp"
#include "wavemig/wave_schedule.hpp"
#include "wavemig/wave_simulator.hpp"

#include <iostream>

using namespace wavemig;

namespace {

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "flow_tool: %s (try --help)\n", message.c_str());
  std::exit(1);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

struct arguments {
  std::string in_file;
  std::string gen_name;
  bool list{false};
  bool optimize{false};
  bool wave_aware{false};
  bool reduce{false};
  unsigned fanout_limit{3};
  bool buffers{true};
  schedule_policy schedule{schedule_policy::asap};
  unsigned tolerance{0};
  unsigned phases{3};
  std::string out_file;
  bool report{false};
  bool phase_report{false};
  unsigned simulate{0};
  bool quiet{false};
};

arguments parse(int argc, char** argv) {
  arguments args;
  auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      fail(std::string{"missing value after "} + argv[i]);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--in") {
      args.in_file = next_value(i);
    } else if (flag == "--gen") {
      args.gen_name = next_value(i);
    } else if (flag == "--list") {
      args.list = true;
    } else if (flag == "--optimize") {
      args.optimize = true;
    } else if (flag == "--wave-aware") {
      args.wave_aware = true;
    } else if (flag == "--reduce") {
      args.reduce = true;
    } else if (flag == "--fanout-limit") {
      args.fanout_limit = static_cast<unsigned>(std::stoul(next_value(i)));
    } else if (flag == "--no-buffers") {
      args.buffers = false;
    } else if (flag == "--schedule") {
      const std::string v = next_value(i);
      if (v == "asap") {
        args.schedule = schedule_policy::asap;
      } else if (v == "alap") {
        args.schedule = schedule_policy::alap;
      } else if (v == "mid") {
        args.schedule = schedule_policy::mid_slack;
      } else {
        fail("unknown schedule '" + v + "'");
      }
    } else if (flag == "--tolerance") {
      args.tolerance = static_cast<unsigned>(std::stoul(next_value(i)));
    } else if (flag == "--phases") {
      args.phases = static_cast<unsigned>(std::stoul(next_value(i)));
    } else if (flag == "--out") {
      args.out_file = next_value(i);
    } else if (flag == "--report") {
      args.report = true;
    } else if (flag == "--phase-report") {
      args.phase_report = true;
    } else if (flag == "--simulate") {
      args.simulate = static_cast<unsigned>(std::stoul(next_value(i)));
    } else if (flag == "--quiet") {
      args.quiet = true;
    } else if (flag == "--help") {
      std::printf("see the header comment of examples/flow_tool.cpp for usage\n");
      std::exit(0);
    } else {
      fail("unknown flag '" + flag + "'");
    }
  }
  return args;
}

mig_network load_input(const arguments& args) {
  if (!args.in_file.empty()) {
    if (ends_with(args.in_file, ".blif")) {
      return io::read_blif_file(args.in_file);
    }
    return io::read_mig_file(args.in_file);
  }
  if (!args.gen_name.empty()) {
    return gen::build_benchmark(args.gen_name);
  }
  fail("no input: use --in FILE or --gen NAME");
}

void write_output(const mig_network& net, const std::string& path) {
  if (ends_with(path, ".blif")) {
    io::write_blif_file(net, path);
  } else if (ends_with(path, ".v")) {
    io::write_verilog_file(net, path);
  } else if (ends_with(path, ".dot")) {
    io::write_dot_file(net, path);
  } else {
    io::write_mig_file(net, path);
  }
}

int run(const arguments& args) {
  if (args.list) {
    for (const auto& name : gen::benchmark_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (args.tolerance + 2 > args.phases) {
    fail("tolerance " + std::to_string(args.tolerance) + " needs at least " +
         std::to_string(args.tolerance + 2) + " clock phases");
  }

  mig_network net = load_input(args);
  const auto original = net;  // for equivalence checking and gain reports

  if (args.reduce) {
    net = reduce_functionally(net).net;
  }
  if (args.optimize) {
    net = depth_rewrite(net);
  }
  if (args.wave_aware) {
    net = balance_rewrite(net);
  }

  pipeline_options opts;
  if (args.fanout_limit == 0) {
    opts.fanout_limit.reset();
  } else {
    opts.fanout_limit = args.fanout_limit;
  }
  opts.insert_buffers = false;  // run restriction via the pipeline, buffers manually
  auto piped = wave_pipeline(net, opts);

  buffer_insertion_result balanced;
  if (args.buffers) {
    buffer_insertion_options bi;
    bi.schedule = args.schedule;
    bi.tolerance = args.tolerance;
    if (opts.fanout_limit) {
      bi.strategy = buffer_strategy::tree;
      bi.fanout_limit = *opts.fanout_limit;
    }
    balanced = insert_buffers(piped.net, bi);
  } else {
    balanced.net = piped.net;
    balanced.schedule = compute_levels(piped.net);
  }
  const mig_network& result = balanced.net;

  const bool equivalent = functionally_equivalent(original, result);
  const auto readiness = check_wave_readiness(result, balanced.schedule, args.tolerance);

  if (!args.quiet) {
    const auto stats = compute_stats(result);
    std::printf("components: %zu (MAJ %zu, BUF %zu, FOG %zu), depth %u\n", stats.components,
                stats.majorities, stats.buffers, stats.fanout_gates, stats.depth);
    std::printf("wave-ready (tolerance %u): %s\n", args.tolerance, readiness.ready ? "yes" : "NO");
    std::printf("functionally equivalent to input: %s\n", equivalent ? "yes" : "NO");
  }

  if (args.report) {
    for (const auto& tech : {technology::swd(), technology::qca(), technology::nml()}) {
      const auto cmp = compare_metrics(original, result, tech, args.phases);
      std::printf("[%s] T %.2f MOPS -> %.2f MOPS | area %.4f -> %.4f um^2 | "
                  "T/A %.2fx T/P %.2fx\n",
                  tech.name.c_str(), cmp.original.throughput_mops, cmp.pipelined.throughput_mops,
                  cmp.original.area_um2, cmp.pipelined.area_um2, cmp.ta_gain, cmp.tp_gain);
    }
  }

  if (args.phase_report) {
    const auto assignment = assign_phases(result, balanced.schedule, args.phases);
    write_phase_report(result, balanced.schedule, assignment, std::cout);
  }

  if (args.simulate > 0) {
    std::mt19937_64 rng{12345};
    std::vector<std::vector<bool>> waves(args.simulate, std::vector<bool>(result.num_pis()));
    for (auto& wave : waves) {
      for (std::size_t i = 0; i < wave.size(); ++i) {
        wave[i] = (rng() & 1u) != 0;
      }
    }
    const auto run = run_waves(result, waves, args.phases, balanced.schedule);
    std::size_t correct = 0;
    for (std::size_t w = 0; w < waves.size(); ++w) {
      if (run.outputs[w] == simulate_pattern(result, waves[w])) {
        ++correct;
      }
    }
    std::printf("simulated %u waves at %u phases: %zu/%u correct, %llu ticks, %u in flight\n",
                args.simulate, args.phases, correct, args.simulate,
                static_cast<unsigned long long>(run.ticks), run.waves_in_flight);
  }

  if (!args.out_file.empty()) {
    write_output(result, args.out_file);
    if (!args.quiet) {
      std::printf("wrote %s\n", args.out_file.c_str());
    }
  }

  return equivalent && (readiness.ready || !args.buffers) ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const arguments args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flow_tool: %s\n", e.what());
    return 1;
  }
}
