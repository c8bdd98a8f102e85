// Technology scenario engine: the scenario registry, the semantic
// fingerprint, the loss-budget repeater pass, the scenario-derived fan-out
// precedence of the pipeline, scenario metrics/timing, FDM clock metadata,
// and the scenario-tagged program cache of batch_session. The differential
// per-scenario pins live in test_differential.cpp.

#include "wavemig/tech_scenario.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/arith.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/loss_budget.hpp"
#include "wavemig/metrics.hpp"
#include "wavemig/pipeline.hpp"
#include "wavemig/simulation.hpp"
#include "wavemig/timing.hpp"

namespace wavemig {
namespace {

// ----------------------------------------------------------- registry ---

TEST(scenario_registry, by_name_finds_every_builtin_case_insensitively) {
  EXPECT_EQ(tech_scenario::by_name("SWD").name, "SWD");
  EXPECT_EQ(tech_scenario::by_name("swd").name, "SWD");
  EXPECT_EQ(tech_scenario::by_name("qCa").name, "QCA");
  EXPECT_EQ(tech_scenario::by_name("nml").name, "NML");
  EXPECT_EQ(tech_scenario::by_name("fdm-swd").name, "FDM-SWD");
  for (const auto& name : tech_scenario::names()) {
    EXPECT_EQ(tech_scenario::by_name(name).name, name);
  }
}

TEST(scenario_registry, unknown_name_is_a_typed_error_listing_the_known_names) {
  try {
    (void)tech_scenario::by_name("CMOS");
    FAIL() << "expected unknown_technology_error";
  } catch (const unknown_technology_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CMOS"), std::string::npos);
    EXPECT_NE(what.find("FDM-SWD"), std::string::npos);
  }
  // The typed error is also an invalid_argument, so generic handlers work.
  EXPECT_THROW((void)tech_scenario::by_name(""), std::invalid_argument);
}

TEST(scenario_registry, technology_by_name_mirrors_the_scenario_registry) {
  EXPECT_EQ(technology::by_name("swd").name, "SWD");
  EXPECT_EQ(technology::by_name("QCA").name, "QCA");
  EXPECT_EQ(technology::by_name("Nml").name, "NML");
  EXPECT_THROW((void)technology::by_name("FDM-SWD"), unknown_technology_error);
  EXPECT_EQ(technology::names().size(), 3u);
}

TEST(scenario_registry, builtin_axes) {
  const auto swd = tech_scenario::swd();
  EXPECT_EQ(swd.fanout_limit, std::optional<unsigned>{3});
  EXPECT_EQ(swd.fdm_lanes, 1u);
  EXPECT_FALSE(swd.max_unregenerated_levels());  // lossless

  EXPECT_EQ(tech_scenario::qca().fanout_limit, std::optional<unsigned>{4});
  EXPECT_EQ(tech_scenario::nml().fanout_limit, std::optional<unsigned>{2});

  const auto fdm = tech_scenario::fdm_swd();
  EXPECT_EQ(fdm.fanout_limit, std::optional<unsigned>{2});
  EXPECT_EQ(fdm.fdm_lanes, 4u);
  ASSERT_TRUE(fdm.max_unregenerated_levels());
  EXPECT_EQ(*fdm.max_unregenerated_levels(), 10u);  // floor(2.5 / 0.25)
}

TEST(scenario_registry, budget_is_clamped_to_one_level) {
  tech_scenario s = tech_scenario::swd();
  s.attenuation_db_per_level = 5.0;
  s.regeneration_db = 2.0;  // floor(0.4) = 0 -> clamped
  ASSERT_TRUE(s.max_unregenerated_levels());
  EXPECT_EQ(*s.max_unregenerated_levels(), 1u);
}

// --------------------------------------------------------- fingerprint ---

TEST(scenario_fingerprint, builtins_are_distinct_nonzero_and_stable) {
  std::vector<std::uint64_t> prints;
  for (const auto& name : tech_scenario::names()) {
    const auto s = tech_scenario::by_name(name);
    EXPECT_NE(s.fingerprint(), 0u) << name;       // 0 is the "no scenario" tag
    EXPECT_EQ(s.fingerprint(), s.fingerprint());  // deterministic
    prints.push_back(s.fingerprint());
  }
  for (std::size_t i = 0; i < prints.size(); ++i) {
    for (std::size_t j = i + 1; j < prints.size(); ++j) {
      EXPECT_NE(prints[i], prints[j]);
    }
  }
}

TEST(scenario_fingerprint, every_semantic_axis_changes_the_fingerprint) {
  const auto base = tech_scenario::swd();
  const auto h = base.fingerprint();

  tech_scenario s = base;
  s.fanout_limit = 4;
  EXPECT_NE(s.fingerprint(), h);

  s = base;
  s.fanout_limit.reset();
  EXPECT_NE(s.fingerprint(), h);

  s = base;
  s.fdm_lanes = 2;
  EXPECT_NE(s.fingerprint(), h);

  s = base;
  s.attenuation_db_per_level = 0.1;
  EXPECT_NE(s.fingerprint(), h);

  s = base;
  s.repeater.energy += 1.0;
  EXPECT_NE(s.fingerprint(), h);

  s = base;
  s.tech.phase_delay_ns *= 2.0;
  EXPECT_NE(s.fingerprint(), h);
}

// ---------------------------------------------------------- loss budget ---

std::uint32_t worst_run(const mig_network& net) {
  // Independent reimplementation of the unregenerated-run metric.
  std::vector<std::uint32_t> run(net.num_nodes(), 0);
  std::uint32_t worst = 0;
  net.foreach_node([&](node_index n) {
    if (!net.is_majority(n) && !net.is_fanout_gate(n)) {
      return;
    }
    for (const signal f : net.fanins(n)) {
      if (!net.is_constant(f.index())) {
        run[n] = std::max(run[n], run[f.index()]);
      }
    }
    run[n] += 1;
    worst = std::max(worst, run[n]);
  });
  return worst;
}

TEST(loss_budget, enforces_the_budget_and_preserves_the_function) {
  const auto net = gen::random_mig({10, 150, 0.5, 8, 4242});
  for (const unsigned budget : {1u, 2u, 5u}) {
    const auto result = enforce_loss_budget(net, {budget});
    EXPECT_LE(result.max_run_after, budget) << "budget " << budget;
    EXPECT_LE(worst_run(result.net), budget) << "budget " << budget;
    EXPECT_TRUE(functionally_equivalent(net, result.net)) << "budget " << budget;
    if (result.max_run_before > budget) {
      EXPECT_GT(result.repeaters_added, 0u) << "budget " << budget;
    }
  }
}

TEST(loss_budget, pass_is_idempotent) {
  const auto net = gen::random_mig({9, 120, 0.6, 6, 99});
  const loss_budget_options options{2u};
  const auto once = enforce_loss_budget(net, options);
  ASSERT_GT(once.repeaters_added, 0u);
  const auto twice = enforce_loss_budget(once.net, options);
  EXPECT_EQ(twice.repeaters_added, 0u);
  EXPECT_EQ(twice.net.num_nodes(), once.net.num_nodes());
}

TEST(loss_budget, nullopt_budget_copies_through_reporting_the_run) {
  const auto net = gen::random_mig({8, 80, 0.5, 6, 7});
  const auto result = enforce_loss_budget(net, {});
  EXPECT_EQ(result.repeaters_added, 0u);
  EXPECT_EQ(result.net.num_nodes(), net.num_nodes());
  EXPECT_EQ(result.max_run_before, worst_run(net));
  EXPECT_EQ(result.max_run_after, result.max_run_before);
}

TEST(loss_budget, zero_budget_throws) {
  const auto net = gen::ripple_adder_circuit(2);
  EXPECT_THROW((void)enforce_loss_budget(net, {0u}), std::invalid_argument);
}

TEST(loss_budget, per_edge_repeaters_preserve_fanout_degrees) {
  // Restrict first, then enforce a tight budget: the combined net must
  // still respect the fan-out limit (repeaters are per edge, never shared).
  const auto net = gen::random_mig({10, 140, 0.4, 8, 555});
  const auto restricted = restrict_fanout(net, {3, true});
  const std::size_t degree_before = max_fanout_degree(restricted.net);
  const auto result = enforce_loss_budget(restricted.net, {1u});
  ASSERT_GT(result.repeaters_added, 0u);
  EXPECT_LE(max_fanout_degree(result.net), degree_before);
}

// -------------------------------------------- pipeline scenario threading ---

TEST(pipeline_scenario, default_derives_the_limit_from_the_swd_scenario) {
  // The default pipeline_options must behave exactly like the historical
  // explicit fanout_limit = 3 (the SWD scenario's capability).
  const auto net = gen::random_mig({10, 120, 0.5, 8, 31});
  const auto derived = wave_pipeline(net);
  pipeline_options explicit_three;
  explicit_three.fanout_limit = 3;
  const auto exact = wave_pipeline(net, explicit_three);
  EXPECT_EQ(derived.fogs_added, exact.fogs_added);
  EXPECT_EQ(derived.final_stats.components, exact.final_stats.components);
  EXPECT_EQ(derived.repeater_buffers_added, 0u);  // SWD is lossless
  EXPECT_LE(max_fanout_degree(derived.net), 3u);
}

TEST(pipeline_scenario, explicit_limit_overrides_the_scenario) {
  const auto net = gen::random_mig({10, 120, 0.5, 8, 31});
  pipeline_options opts;
  opts.scenario = tech_scenario::nml();  // capability 2
  opts.fanout_limit = 5;                 // explicit wins
  const auto result = wave_pipeline(net, opts);
  EXPECT_LE(max_fanout_degree(result.net), 5u);
  // Against the scenario-derived flow the looser limit needs fewer FOGs.
  pipeline_options derived;
  derived.scenario = tech_scenario::nml();
  EXPECT_LT(result.fogs_added, wave_pipeline(net, derived).fogs_added);
}

TEST(pipeline_scenario, reset_disables_restriction_regardless_of_scenario) {
  const auto net = gen::random_mig({10, 120, 0.5, 8, 31});
  pipeline_options opts;
  opts.scenario = tech_scenario::nml();
  opts.fanout_limit.reset();
  const auto result = wave_pipeline(net, opts);
  EXPECT_EQ(result.fogs_added, 0u);
  EXPECT_EQ(result.restriction_buffers_added, 0u);
}

TEST(pipeline_scenario, scenario_capability_drives_the_derived_limit) {
  const auto net = gen::random_mig({12, 160, 0.5, 8, 77});
  for (const auto& name : tech_scenario::names()) {
    pipeline_options opts;
    opts.scenario = tech_scenario::by_name(name);
    const auto result = wave_pipeline(net, opts);
    ASSERT_TRUE(opts.scenario.fanout_limit);
    EXPECT_LE(max_fanout_degree(result.net), *opts.scenario.fanout_limit) << name;
    EXPECT_TRUE(result.wave_ready) << name;
    EXPECT_TRUE(functionally_equivalent(net, result.net)) << name;
  }
}

TEST(pipeline_scenario, lossy_scenario_inserts_repeaters_and_accounts_them) {
  const auto net = gen::random_mig({12, 400, 0.5, 10, 2024});
  pipeline_options opts;
  opts.scenario = tech_scenario::fdm_swd();
  const auto result = wave_pipeline(net, opts);
  // Deep random MIG at fan-out 2: the restricted depth far exceeds the
  // 10-level budget, so repeaters must appear and be accounted for.
  ASSERT_GT(result.max_attenuation_run, 10u);
  EXPECT_GT(result.repeater_buffers_added, 0u);
  EXPECT_EQ(result.final_stats.buffers, result.restriction_buffers_added +
                                            result.repeater_buffers_added +
                                            result.balance_buffers_added);
  EXPECT_TRUE(result.wave_ready);
  EXPECT_TRUE(functionally_equivalent(net, result.net));
  EXPECT_LE(worst_run(result.net), 10u);

  // enforce_loss = false studies the raw flow: no repeaters, run reported 0.
  opts.enforce_loss = false;
  const auto raw = wave_pipeline(net, opts);
  EXPECT_EQ(raw.repeater_buffers_added, 0u);
  EXPECT_EQ(raw.max_attenuation_run, 0u);
}

// ---------------------------------------------------- metrics and timing ---

TEST(scenario_metrics, lanes_one_and_no_repeaters_match_the_base_model) {
  const auto net = wave_pipeline(gen::ripple_adder_circuit(8)).net;
  const auto sm = compute_scenario_metrics(net, tech_scenario::swd(), true);
  const auto base = compute_metrics(net, technology::swd(), true);
  EXPECT_DOUBLE_EQ(sm.metrics.area_um2, base.area_um2);
  EXPECT_DOUBLE_EQ(sm.metrics.energy_per_op_fj, base.energy_per_op_fj);
  EXPECT_DOUBLE_EQ(sm.metrics.throughput_mops, base.throughput_mops);
  EXPECT_EQ(sm.metrics.waves_in_flight, base.waves_in_flight);
  EXPECT_DOUBLE_EQ(sm.repeater_area_delta_um2, 0.0);
}

TEST(scenario_metrics, repeaters_are_recosted_at_the_premium) {
  pipeline_options opts;
  opts.scenario = tech_scenario::fdm_swd();
  const auto piped = wave_pipeline(gen::random_mig({12, 400, 0.5, 10, 2024}), opts);
  ASSERT_GT(piped.repeater_buffers_added, 0u);

  const auto sm = compute_scenario_metrics(piped.net, opts.scenario, true,
                                           piped.repeater_buffers_added);
  const auto base = compute_metrics(piped.net, opts.scenario.tech, true);
  const auto reps = static_cast<double>(piped.repeater_buffers_added);
  // FDM-SWD repeater premium over a plain buffer: area 2-2=0, energy 3-1=2.
  EXPECT_DOUBLE_EQ(sm.repeater_area_delta_um2, 0.0);
  EXPECT_DOUBLE_EQ(sm.repeater_energy_delta_fj,
                   opts.scenario.tech.cell_energy_fj * reps * 2.0);
  EXPECT_DOUBLE_EQ(sm.metrics.energy_per_op_fj,
                   base.energy_per_op_fj + sm.repeater_energy_delta_fj);
}

TEST(scenario_metrics, fdm_lanes_multiply_throughput_and_waves_in_flight) {
  pipeline_options opts;
  opts.scenario = tech_scenario::fdm_swd();
  const auto piped = wave_pipeline(gen::ripple_adder_circuit(8), opts);
  const auto sm = compute_scenario_metrics(piped.net, opts.scenario, true,
                                           piped.repeater_buffers_added);
  const auto base = compute_metrics(piped.net, opts.scenario.tech, true);
  EXPECT_DOUBLE_EQ(sm.metrics.throughput_mops, 4.0 * base.throughput_mops);
  EXPECT_EQ(sm.metrics.waves_in_flight, 4u * base.waves_in_flight);
  // Steady-state power recomputed against the multiplied throughput.
  EXPECT_DOUBLE_EQ(sm.metrics.power_steady_state_uw,
                   sm.metrics.energy_per_op_fj * sm.metrics.throughput_mops * 1e-3);
  // Non-pipelined metrics ignore lanes (one op at a time either way).
  const auto np = compute_scenario_metrics(piped.net, opts.scenario, false);
  EXPECT_DOUBLE_EQ(np.metrics.throughput_mops,
                   compute_metrics(piped.net, opts.scenario.tech, false).throughput_mops);
}

TEST(scenario_timing, overload_scales_effective_throughput_by_lanes) {
  const auto net = wave_pipeline(gen::ripple_adder_circuit(6)).net;
  const auto base = analyze_stage_timing(net, technology::swd());
  const auto swd = analyze_stage_timing(net, tech_scenario::swd());
  EXPECT_DOUBLE_EQ(swd.effective_wp_throughput_mops, base.effective_wp_throughput_mops);
  EXPECT_DOUBLE_EQ(swd.required_phase_delay_ns, base.required_phase_delay_ns);
  const auto fdm = analyze_stage_timing(net, tech_scenario::fdm_swd());
  EXPECT_DOUBLE_EQ(fdm.effective_wp_throughput_mops,
                   4.0 * base.effective_wp_throughput_mops);
  EXPECT_DOUBLE_EQ(fdm.required_phase_delay_ns, base.required_phase_delay_ns);
}

// ------------------------------------------------------ FDM clock metadata ---

TEST(fdm_metadata, lanes_compress_ticks_and_multiply_waves_in_flight) {
  pipeline_options opts;
  opts.scenario = tech_scenario::fdm_swd();
  const auto prepared = wave_pipeline(gen::random_mig({10, 150, 0.5, 8, 808}), opts).net;

  const engine::compiled_netlist plain{prepared};
  const engine::compiled_netlist fdm{prepared, 4};

  std::mt19937_64 rng{505};
  std::vector<std::vector<bool>> waves(130, std::vector<bool>(prepared.num_pis()));
  for (auto& wave : waves) {
    for (std::size_t i = 0; i < wave.size(); ++i) {
      wave[i] = (rng() & 1u) != 0;
    }
  }
  const auto batch = engine::wave_batch::from_waves(waves, prepared.num_pis());

  const auto base = engine::run_waves_packed(plain, batch, 3);
  const auto lanes = engine::run_waves_packed(fdm, batch, 3);

  // Outputs are lane-independent; only the clock metadata changes.
  EXPECT_EQ(lanes.words, base.words);
  EXPECT_EQ(lanes.waves_in_flight, 4u * base.waves_in_flight);
  EXPECT_EQ(lanes.latency_ticks, base.latency_ticks);
  EXPECT_LT(lanes.ticks, base.ticks);  // 130 waves in ceil(130/4) = 33 slots

  // The cycle-accurate simulator must still inject and sample every wave —
  // the FDM tag compresses metadata, never the simulated tick span.
  const auto scalar = engine::run_waves(prepared, compute_levels(prepared), waves, 3, 4);
  EXPECT_EQ(base.unpack(), scalar.outputs);
  EXPECT_EQ(scalar.waves_in_flight, lanes.waves_in_flight);
}

// -------------------------------------------------- scenario program cache ---

TEST(scenario_cache, same_netlist_different_scenarios_are_distinct_programs) {
  engine::parallel_executor executor{2};
  engine::batch_session session{executor};
  const auto net = gen::ripple_adder_circuit(6);

  const auto swd_scenario = tech_scenario::swd();
  const auto qca_scenario = tech_scenario::qca();
  const auto fdm_scenario = tech_scenario::fdm_swd();
  const auto untagged = session.compile(net, 3);
  const auto swd = session.compile(net, 3, &swd_scenario);
  const auto qca = session.compile(net, 3, &qca_scenario);
  const auto fdm = session.compile(net, 3, &fdm_scenario);

  EXPECT_NE(untagged.get(), swd.get());
  EXPECT_NE(swd.get(), qca.get());
  EXPECT_NE(qca.get(), fdm.get());
  EXPECT_EQ(session.stats().entries, 4u);
  EXPECT_EQ(session.stats().misses, 4u);

  // Resubmission under the same scenario is a cache hit on the same program.
  EXPECT_EQ(session.compile(net, 3, &qca_scenario).get(), qca.get());
  EXPECT_EQ(session.stats().hits, 1u);
  EXPECT_EQ(session.stats().entries, 4u);

  // Each program carries its scenario's FDM lane count.
  EXPECT_EQ(untagged->fdm_lanes(), 1u);
  EXPECT_EQ(swd->fdm_lanes(), 1u);
  EXPECT_EQ(qca->fdm_lanes(), 1u);
  EXPECT_EQ(fdm->fdm_lanes(), 4u);
}

TEST(scenario_cache, scenario_runs_are_bit_identical_to_their_prepared_reference) {
  engine::parallel_executor executor{2};
  engine::batch_session session{executor};
  const auto net = gen::random_mig({11, 130, 0.5, 8, 606});
  std::mt19937_64 rng{909};
  std::vector<std::vector<bool>> waves(100, std::vector<bool>(net.num_pis()));
  for (auto& wave : waves) {
    for (std::size_t i = 0; i < wave.size(); ++i) {
      wave[i] = (rng() & 1u) != 0;
    }
  }
  const auto batch = engine::wave_batch::from_waves(waves, net.num_pis());

  for (const auto& name : tech_scenario::names()) {
    const auto scenario = tech_scenario::by_name(name);
    pipeline_options opts;
    opts.scenario = scenario;
    const engine::compiled_netlist reference{wave_pipeline(net, opts).net};
    const auto expected = engine::run_waves_packed(reference, batch, 3);
    const auto got = session.run(net, batch, 3, &scenario);
    EXPECT_EQ(got.words, expected.words) << name;
  }
}

}  // namespace
}  // namespace wavemig
