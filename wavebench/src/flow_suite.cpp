// flow_suite: the paper's own job. Every suite circuit goes through the
// wave-pipelining flow under SWD, and the seven Table II circuits again
// under FDM-SWD (the only built-in scenario with an attenuation budget, so
// the loss-budget pass runs). Each result is compiled and checked on
// sampled waves against the pre-flow netlist. mig/core/engine.compile do
// nearly all the work; the kernel and the bool boundary almost none.

#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/suite.hpp"
#include "wavemig/pipeline.hpp"
#include "workloads.hpp"

namespace wavebench {

using namespace wavemig;

namespace {

constexpr unsigned phases = 3;
constexpr std::size_t check_waves = 64;
// Cases below this many pre-flow components take under ~20 ms each and
// together a few percent of a pass; an untraced run runs them several
// times per pass, so their figures rest on more samples.
constexpr std::size_t small_case_components = 5000;
constexpr int small_case_runs = 5;

struct flow_case {
  std::string name;
  tech_scenario scenario;
  mig_network net;
  std::vector<std::uint64_t> planes;  ///< check_waves input waves, plane-major
};

std::vector<flow_case> build_cases(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::vector<flow_case> cases;
  const auto add = [&](const std::string& name, const tech_scenario& scenario) {
    mig_network net;
    {
      trace::scope s{"gen/build"};
      net = gen::build_benchmark(name);
    }
    auto planes = random_planes(net.num_pis(), check_waves, rng);
    cases.push_back({name, scenario, std::move(net), std::move(planes)});
  };
  for (const auto& name : gen::benchmark_names()) {
    add(name, tech_scenario::swd());
  }
  for (const auto& name : gen::table2_names()) {
    add(name, tech_scenario::fdm_swd());
  }
  return cases;
}

/// Packs the case's check waves, runs the compiled program and compares
/// every wave against the reference evaluation of the pre-flow netlist.
void check_case(const flow_case& c, const engine::compiled_netlist& program, result& out) {
  engine::wave_batch batch{0};
  {
    trace::scope s{"engine.wave_engine/from_plane_words"};
    batch = engine::wave_batch::from_plane_words(c.planes, c.net.num_pis(), check_waves);
  }
  engine::packed_wave_result packed;
  {
    trace::scope s{"engine.kernel/run_waves_packed"};
    packed = engine::run_waves_packed(program, batch, phases);
  }
  trace::scope s{"bench/check"};
  std::vector<std::size_t> all(check_waves);
  for (std::size_t w = 0; w < check_waves; ++w) {
    all[w] = w;
  }
  constexpr std::size_t chunks = check_waves / 64;
  if (const std::size_t bad = check_sampled_waves(c.name, c.net, c.planes.data(), chunks,
                                                  packed.words.data(), chunks, all);
      bad != 0) {
    out.mismatch(c.name + " under " + c.scenario.name + ": " + std::to_string(bad) +
                 " waves differ from the pre-flow netlist");
  }
}

struct pass_totals {
  std::size_t components_out{0};
  std::size_t fogs_added{0};
  std::size_t repeaters_added{0};
  std::size_t buffers_added{0};
  std::size_t comb_ops{0};
  std::size_t comb_slots{0};

  friend bool operator==(const pass_totals& a, const pass_totals& b) {
    return a.components_out == b.components_out && a.fogs_added == b.fogs_added &&
           a.repeaters_added == b.repeaters_added && a.buffers_added == b.buffers_added &&
           a.comb_ops == b.comb_ops && a.comb_slots == b.comb_slots;
  }
};

/// One untraced run of a case through the shipped entry points:
/// wave_pipeline, the compiled_netlist constructor, the packed run. Returns
/// its seconds and records the final stats the traced run must reproduce.
double plain_run(const flow_case& c, network_stats& final_stats, result& out) {
  const auto start = clock_type::now();
  pipeline_options opts;
  opts.scenario = c.scenario;
  auto flow = wave_pipeline(c.net, opts);
  const engine::compiled_netlist program{flow.net};
  check_case(c, program, out);
  const double s = seconds_since(start);
  ++out.attempted;
  if (!flow.wave_ready) {
    out.mismatch(c.name + ": flow result is not wave-ready");
  }
  final_stats = flow.final_stats;
  return s;
}

/// The same run with the flow called stage by stage, every call under a
/// span nested in the case's root span.
void traced_run(const flow_case& c, std::size_t index, const network_stats& expected_stats,
                pass_totals& t, result& out) {
  trace::request_scope request{index + 1};
  trace::scope root{"bench/flow_case"};
  auto flow = run_flow_stages(c.net, c.scenario);
  level_map levels;
  {
    trace::scope s{"mig/compute_levels"};
    levels = compute_levels(flow.net);
  }
  engine::compiled_netlist program = [&] {
    trace::scope s{"engine.compile/compiled_netlist"};
    return engine::compiled_netlist{flow.net, levels};
  }();
  check_case(c, program, out);
  ++out.attempted;
  if (!same_stats(flow.final_stats, expected_stats) || !flow.wave_ready) {
    out.mismatch(c.name + " under " + c.scenario.name +
                 ": pass-by-pass flow differs from wave_pipeline's final_stats");
  }
  t.components_out += flow.final_stats.components;
  t.fogs_added += flow.fogs_added;
  t.repeaters_added += flow.repeaters_added;
  t.buffers_added += flow.buffers_added;
  t.comb_ops += program.num_comb_ops();
  t.comb_slots += program.comb_slot_count();
}

/// Seconds of one pass for the ledger reconciliation: the sum over cases
/// of each case's median over its paired runs.
double pass_seconds(const std::vector<std::vector<double>>& case_seconds) {
  double s = 0.0;
  for (const auto& samples : case_seconds) {
    s += median(samples);
  }
  return s;
}

}  // namespace

result run_flow_suite(const config& cfg) {
  result out;
  auto& recorder = trace::recorder::global();
  std::vector<flow_case> cases;
  recorder.enable(cfg.trace);
  const cpu_rotation cpus;
  const double setup_s = cfg.trace ? median_setup_seconds(1, [&] { cases = build_cases(cfg.seed); })
                                   : setup_seconds_on_fastest_cpu(
                                         3, cpus, [&] { cases = build_cases(cfg.seed); });
  recorder.enable(false);
  std::vector<trace::span> spans = recorder.take();

  // Per case: untraced seconds, and in a traced run the self-time sum of
  // each traced run's spans.
  std::vector<std::vector<double>> plain_s(cases.size());
  std::vector<std::vector<double>> ledger_s(cases.size());
  std::vector<network_stats> final_stats(cases.size());
  std::vector<pass_totals> traced;
  std::vector<trace::span> traced_spans;
  std::size_t passes = 0;
  // Whole passes only, so every circuit weighs the same in the rate. A
  // traced run pairs each untraced run of a case with a traced one, so the
  // two see the same state of the host; which goes first alternates by
  // pass. Every traced run checks against final stats of an earlier
  // untraced run. Case i runs on CPU i + pass of the rotation, so over as
  // many passes as there are CPUs each case runs on every CPU.
  const auto start = clock_type::now();
  do {
    pass_totals t;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      (void)cpus.pin_thread(i + passes);
      const bool small = cases[i].net.num_components() < small_case_components;
      const int runs = small && !cfg.trace ? small_case_runs : 1;
      const bool traced_first = cfg.trace && passes % 2 == 1;
      const auto traced_case = [&] {
        recorder.enable(true);
        traced_run(cases[i], i, final_stats[i], t, out);
        recorder.enable(false);
        auto case_spans = recorder.take();
        ledger_s[i].push_back(trace::self_seconds(case_spans));
        traced_spans.insert(traced_spans.end(), case_spans.begin(), case_spans.end());
      };
      if (traced_first) {
        traced_case();
      }
      for (int r = 0; r < runs; ++r) {
        plain_s[i].push_back(plain_run(cases[i], final_stats[i], out));
      }
      if (cfg.trace && !traced_first) {
        traced_case();
      }
    }
    if (cfg.trace) {
      traced.push_back(t);
    }
    ++passes;
  } while (seconds_since(start) < cfg.seconds);

  if (!cfg.trace) {
    // A case's latency is its fast decile over the run's samples of it
    // (rates and times per case are the windows of fast_decile); the
    // figures are taken over the cases. The tail is a tail over circuits:
    // the slow end of the suite, not of time.
    std::vector<double> case_ms;
    double components_per_pass = 0.0;
    double pass_ms = 0.0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      case_ms.push_back(fast_decile(plain_s[i], false) * 1e3);
      pass_ms += case_ms.back();
      components_per_pass += static_cast<double>(final_stats[i].components);
    }
    const double rate = components_per_pass / (pass_ms / 1e3);
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", rate);
    out.set("latency_p50_ms", percentile(case_ms, 50));
    out.note("flow_components_per_s = %.1f 1/s (final-netlist components per second of "
             "pipeline + compile + check over %zu passes of %zu cases)",
             rate, passes, cases.size());
    out.note("per-case flow latency over %zu cases: p50 %.3f ms, p75 %.3f ms (p75 is the "
             "highest percentile with 10 cases beyond it)",
             case_ms.size(), percentile(case_ms, 50), percentile(case_ms, 75));
    return out;
  }

  for (const auto& p : traced) {
    if (!(p == traced.front())) {
      out.mismatch("flow counts differ between traced passes");
    }
  }

  const auto& first = traced.front();
  set_stage_means(out, spans, traced_spans);
  out.set("core.fanout_restriction.fogs_added", static_cast<double>(first.fogs_added));
  out.set("core.loss_budget.repeaters_added", static_cast<double>(first.repeaters_added));
  out.set("core.buffer_insertion.buffers_added", static_cast<double>(first.buffers_added));
  out.set("flow.components_out", static_cast<double>(first.components_out));
  out.set("engine.compile.comb_ops", static_cast<double>(first.comb_ops));
  out.set("engine.compile.comb_slots", static_cast<double>(first.comb_slots));
  report_ledger(out, traced_spans);
  report_overhead(out, pass_seconds(ledger_s), pass_seconds(plain_s), true);
  out.note("per pass (%zu cases): %zu components out, %zu FOGs, %zu repeaters, %zu balance "
           "buffers, %zu comb ops",
           cases.size(), first.components_out, first.fogs_added, first.repeaters_added,
           first.buffers_added, first.comb_ops);
  spans.insert(spans.end(), traced_spans.begin(), traced_spans.end());
  out.spans = std::move(spans);
  return out;
}

}  // namespace wavebench
