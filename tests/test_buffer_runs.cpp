// Buffer runs: a buffer node of length k stands for k unit buffers in
// series. Every consumer of a run netlist is held here to the unit-buffer
// chain the runs stand for (expand_buffer_runs), and insert_buffers is
// pinned on where it may and may not collapse a chain into one run.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "wavemig/balance_rewriting.hpp"
#include "wavemig/buffer_insertion.hpp"
#include "wavemig/cleanup.hpp"
#include "wavemig/depth_rewriting.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/fanout_restriction.hpp"
#include "wavemig/functional_reduction.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/gen/suite.hpp"
#include "wavemig/inverter_optimization.hpp"
#include "wavemig/io/blif.hpp"
#include "wavemig/io/mig_format.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/loss_budget.hpp"
#include "wavemig/phase_assignment.hpp"
#include "wavemig/pipeline.hpp"
#include "wavemig/scheduling.hpp"
#include "wavemig/simulation.hpp"
#include "wavemig/timing.hpp"
#include "wavemig/wave_schedule.hpp"
#include "wavemig/wave_simulator.hpp"

namespace wavemig {
namespace {

std::vector<std::vector<bool>> random_waves(std::size_t count, std::size_t pis,
                                            std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::vector<std::vector<bool>> waves(count, std::vector<bool>(pis));
  for (auto& wave : waves) {
    for (std::size_t i = 0; i < pis; ++i) {
      wave[i] = (rng() & 1u) != 0;
    }
  }
  return waves;
}

void expect_same_stats(const network_stats& a, const network_stats& b, const std::string& what) {
  EXPECT_EQ(a.pis, b.pis) << what;
  EXPECT_EQ(a.pos, b.pos) << what;
  EXPECT_EQ(a.majorities, b.majorities) << what;
  EXPECT_EQ(a.buffers, b.buffers) << what;
  EXPECT_EQ(a.fanout_gates, b.fanout_gates) << what;
  EXPECT_EQ(a.components, b.components) << what;
  EXPECT_EQ(a.depth, b.depth) << what;
  EXPECT_EQ(a.max_fanout, b.max_fanout) << what;
}

/// The buffer nodes of `net` fed by node `driver`.
std::vector<node_index> buffers_fed_by(const mig_network& net, node_index driver) {
  std::vector<node_index> out;
  net.foreach_node([&](node_index n) {
    if (net.is_buffer(n) && net.fanins(n)[0].index() == driver) {
      out.push_back(n);
    }
  });
  return out;
}

/// A fresh chain of `level` gates, each fed by fresh PIs: its last gate
/// sits at `level`, so a gate it feeds sits at level + 1.
signal gate_at(mig_network& net, unsigned level) {
  signal g = net.create_maj(net.create_pi(), net.create_pi(), net.create_pi());
  for (unsigned k = 2; k <= level; ++k) {
    g = net.create_maj(g, net.create_pi(), net.create_pi());
  }
  return g;
}

/// The node of `out` that rebuilds primary input `pi` of `in` (the passes
/// keep PI positions).
node_index pi_node(const mig_network& out, const mig_network& in, signal pi) {
  return out.pis()[in.pi_position(pi.index())];
}

TEST(buffer_runs, a_run_counts_and_levels_as_its_chain) {
  mig_network net;
  const signal a = net.create_pi("a");
  const signal run = net.create_buffer(a, 5);
  const signal tail = net.create_buffer(run);
  net.create_po(tail);
  EXPECT_THROW((void)net.create_buffer(a, 0), std::invalid_argument);

  EXPECT_EQ(net.length(run.index()), 5u);
  EXPECT_EQ(net.num_buffers(), 6u);
  EXPECT_EQ(net.num_buffer_nodes(), 2u);
  EXPECT_EQ(net.num_components(), 6u);
  EXPECT_TRUE(has_buffer_runs(net));

  const auto levels = compute_levels(net);
  EXPECT_EQ(levels[run.index()], 5u);
  EXPECT_EQ(levels[tail.index()], 6u);
  EXPECT_EQ(levels.depth, 6u);
  EXPECT_EQ(max_exclusive_base_distance(net, levels, run.index()), 0u);
  EXPECT_EQ(max_exclusive_base_distance(net, levels, tail.index()), 5u);

  const auto expanded = expand_buffer_runs(net);
  EXPECT_EQ(expanded.num_nodes(), 8u);
  EXPECT_EQ(expanded.num_buffer_nodes(), 6u);
  EXPECT_FALSE(has_buffer_runs(expanded));
  expect_same_stats(compute_stats(net), compute_stats(expanded), "hand run");
  EXPECT_EQ(expand_schedule(net, levels).level, compute_levels(expanded).level);
  EXPECT_THROW((void)expand_schedule(net, level_map{}), std::invalid_argument);

  // A lone run still has inner stages driving one stage each.
  mig_network dangling;
  (void)dangling.create_buffer(dangling.create_pi(), 3);
  EXPECT_EQ(max_fanout_degree(dangling), 1u);
  EXPECT_EQ(max_fanout_degree(expand_buffer_runs(dangling)), 1u);
}

TEST(buffer_runs, levels_reject_overflow) {
  mig_network net;
  const signal a = net.create_pi();
  const signal deep = net.create_buffer(a, 0xFFFFFFFFu);
  EXPECT_EQ(compute_levels(net)[deep.index()], 0xFFFFFFFFu);
  (void)net.create_buffer(deep);
  EXPECT_THROW((void)compute_levels(net), std::overflow_error);
}

// ------------------------------------------------------------ flow cases ---

struct flow_case {
  std::string name;
  mig_network net;
};

/// The 44 flow cases of the benchmark's flow_suite: the suite under SWD and
/// the Table II circuits under FDM-SWD, through wave_pipeline.
const std::vector<flow_case>& flow_cases() {
  static const std::vector<flow_case> cases = [] {
    std::vector<flow_case> out;
    const auto add = [&](const std::string& circuit, const tech_scenario& scenario) {
      pipeline_options opts;
      opts.scenario = scenario;
      out.push_back({circuit + " under " + scenario.name,
                     wave_pipeline(gen::build_benchmark(circuit), opts).net});
    };
    for (const auto& name : gen::benchmark_names()) {
      add(name, tech_scenario::swd());
    }
    for (const auto& name : gen::table2_names()) {
      add(name, tech_scenario::fdm_swd());
    }
    return out;
  }();
  return cases;
}

TEST(buffer_runs, flow_outputs_hold_far_fewer_nodes_than_their_chains) {
  std::size_t nodes = 0;
  std::size_t unit_nodes = 0;
  for (const auto& c : flow_cases()) {
    nodes += c.net.num_nodes();
    unit_nodes += c.net.num_nodes() + (c.net.num_buffers() - c.net.num_buffer_nodes());
  }
  EXPECT_EQ(flow_cases().size(), 44u);
  EXPECT_GT(unit_nodes, 8 * nodes);
}

TEST(buffer_runs, flow_outputs_round_trip_through_mig_with_their_fingerprint) {
  // A wire client registers .mig text and then runs against the
  // fingerprint it computed in process, so the read-back network must be
  // the same network node for node.
  for (const auto& c : flow_cases()) {
    std::stringstream text;
    io::write_mig(c.net, text);
    const auto back = io::read_mig(text);
    EXPECT_EQ(engine::network_fingerprint(back), engine::network_fingerprint(c.net)) << c.name;
  }
}

TEST(buffer_runs, flow_outputs_measure_as_their_unit_chains) {
  for (const auto& c : flow_cases()) {
    const auto expanded = expand_buffer_runs(c.net);
    const auto levels = compute_levels(c.net);
    const auto unit_levels = compute_levels(expanded);
    expect_same_stats(compute_stats(c.net), compute_stats(expanded), c.name);
    EXPECT_EQ(expand_schedule(c.net, levels).level, unit_levels.level) << c.name;
    EXPECT_TRUE(check_wave_readiness(c.net, levels, 0).ready) << c.name;
    EXPECT_EQ(slack_sum(c.net, levels), slack_sum(expanded, unit_levels)) << c.name;
    EXPECT_TRUE(is_valid_schedule(c.net, levels)) << c.name;
    EXPECT_EQ(assign_phases(c.net, levels, 3).load, assign_phases(expanded, unit_levels, 3).load)
        << c.name;
    // A balanced netlist has no slack, whichever policy schedules it.
    EXPECT_EQ(compute_schedule(c.net, schedule_policy::alap).level, levels.level) << c.name;
    EXPECT_EQ(compute_schedule(c.net, schedule_policy::mid_slack).level, levels.level) << c.name;

    const engine::compiled_netlist program{c.net};
    const engine::compiled_netlist unit_program{expanded};
    EXPECT_EQ(program.num_comb_ops(), unit_program.num_comb_ops()) << c.name;
    EXPECT_EQ(program.comb_slot_count(), unit_program.comb_slot_count()) << c.name;
    EXPECT_EQ(program.depth(), unit_program.depth()) << c.name;
    EXPECT_EQ(program.min_edge_span(), unit_program.min_edge_span()) << c.name;
    EXPECT_EQ(program.max_edge_span(), unit_program.max_edge_span()) << c.name;
    EXPECT_EQ(program.po_levels(), unit_program.po_levels()) << c.name;
  }
}

TEST(buffer_runs, inverters_and_stage_timing_match_the_unit_chains) {
  for (const auto& c : flow_cases()) {
    const auto expanded = expand_buffer_runs(c.net);
    EXPECT_EQ(count_inverters(c.net), count_inverters(expanded)) << c.name;
    EXPECT_EQ(optimize_inverters(c.net).inverter_count,
              optimize_inverters(expanded).inverter_count)
        << c.name;
    for (const bool polarity : {false, true}) {
      const auto runs = analyze_stage_timing(c.net, technology::swd(), 3, polarity);
      const auto units = analyze_stage_timing(expanded, technology::swd(), 3, polarity);
      EXPECT_EQ(runs.required_phase_delay_ns, units.required_phase_delay_ns) << c.name;
      EXPECT_EQ(runs.critical_has_inverter, units.critical_has_inverter) << c.name;
    }
  }
}

// ------------------------------------------------------ run boundaries ---

TEST(buffer_runs, a_run_ends_at_every_tap) {
  // Input a feeds gates at levels 3 and 6: one run of 2 up to the first
  // tap, a second run of 3 from its end to the other.
  mig_network net;
  const signal a = net.create_pi("a");
  net.create_po(net.create_maj(a, gate_at(net, 2), net.create_pi()));
  net.create_po(net.create_maj(a, gate_at(net, 5), net.create_pi()));

  const auto out = insert_buffers(net).net;
  const auto first = buffers_fed_by(out, pi_node(out, net, a));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(out.length(first[0]), 2u);
  const auto second = buffers_fed_by(out, first[0]);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(out.length(second[0]), 3u);
  const auto fanouts = compute_fanouts(out);
  EXPECT_EQ(fanouts.degree(first[0]), 2u);  // the near gate and the second run
  EXPECT_EQ(fanouts.degree(second[0]), 1u);
  EXPECT_TRUE(check_wave_readiness(out).ready);
}

TEST(buffer_runs, repeaters_and_fogs_stay_separate_nodes) {
  // A unit buffer (a repeater) and a FOG already in the netlist keep their
  // own nodes; the balance runs hang off them, never through them.
  mig_network net;
  const signal a = net.create_pi("a");
  const signal repeater = net.create_buffer(a);
  const signal fog = net.create_fanout(net.create_pi("b"));
  net.create_po(net.create_maj(repeater, fog, gate_at(net, 4)));

  const auto out = insert_buffers(net).net;
  const auto kept = buffers_fed_by(out, pi_node(out, net, a));
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(out.length(kept[0]), 1u);
  const auto behind_repeater = buffers_fed_by(out, kept[0]);
  ASSERT_EQ(behind_repeater.size(), 1u);
  EXPECT_EQ(out.length(behind_repeater[0]), 3u);
  node_index fog_node = 0;
  out.foreach_node([&](node_index n) { fog_node = out.is_fanout_gate(n) ? n : fog_node; });
  ASSERT_NE(fog_node, 0u);
  EXPECT_TRUE(out.is_pi(out.fanins(fog_node)[0].index()));
  const auto behind_fog = buffers_fed_by(out, fog_node);
  ASSERT_EQ(behind_fog.size(), 1u);
  EXPECT_EQ(out.length(behind_fog[0]), 3u);
  EXPECT_TRUE(check_wave_readiness(out).ready);
}

TEST(buffer_runs, a_run_ends_at_a_branching_tree_vertex) {
  // Three consumers four levels below a, buffer-tree capacity 2: the
  // deepest depth needs two vertices, each depth above needs one.
  mig_network net;
  const signal a = net.create_pi("a");
  for (int i = 0; i < 3; ++i) {
    net.create_po(net.create_maj(a, gate_at(net, 4), net.create_pi()));
  }
  buffer_insertion_options opts;
  opts.strategy = buffer_strategy::tree;
  opts.fanout_limit = 2;
  const auto result = insert_buffers(net, opts);
  const auto& out = result.net;

  const auto trunk = buffers_fed_by(out, pi_node(out, net, a));
  ASSERT_EQ(trunk.size(), 1u);
  EXPECT_EQ(out.length(trunk[0]), 3u);
  const auto branches = buffers_fed_by(out, trunk[0]);
  ASSERT_EQ(branches.size(), 2u);
  const auto fanouts = compute_fanouts(out);
  for (const node_index b : branches) {
    EXPECT_EQ(out.length(b), 1u);
    EXPECT_LE(fanouts.degree(b), 2u);
  }
  EXPECT_EQ(fanouts.degree(branches[0]) + fanouts.degree(branches[1]), 3u);
  EXPECT_TRUE(check_wave_readiness(out, result.schedule, 0).ready);
  EXPECT_LE(max_fanout_degree(out), 2u);
}

TEST(buffer_runs, chains_collapse_into_maximal_runs) {
  // On circuits with no buffers of their own, a balance buffer whose only
  // consumer is another buffer would mean two runs that should be one.
  for (const auto* name : {"mul8", "i2c", "revx", "adder64"}) {
    for (const auto strategy : {buffer_strategy::naive, buffer_strategy::chain}) {
      const auto out = insert_buffers(gen::build_benchmark(name), {.strategy = strategy}).net;
      const auto fanouts = compute_fanouts(out);
      std::size_t mergeable = 0;
      out.foreach_node([&](node_index n) {
        if (out.is_buffer(n) && fanouts.degree(n) == 1) {
          const auto e = fanouts.edges[n][0];
          mergeable += e.consumer != fanout_map::po_consumer && out.is_buffer(e.consumer);
        }
      });
      EXPECT_EQ(mergeable, 0u) << name << ", strategy " << static_cast<int>(strategy);
    }
  }
}

TEST(buffer_runs, rebuilding_passes_keep_run_lengths) {
  // Every pass that rebuilds a network copies a buffer with its length.
  const auto net = wave_pipeline(gen::build_benchmark("mul8")).net;
  ASSERT_TRUE(has_buffer_runs(net));
  const auto same_buffers = [&](const mig_network& out, std::size_t added_units,
                                const char* pass) {
    EXPECT_EQ(out.num_buffers(), net.num_buffers() + added_units) << pass;
    EXPECT_EQ(out.num_buffer_nodes(), net.num_buffer_nodes() + added_units) << pass;
    EXPECT_TRUE(functionally_equivalent(net, out)) << pass;
  };
  same_buffers(cleanup_dangling(net), 0, "cleanup");
  const auto reduced = reduce_functionally(net);
  same_buffers(reduced.net, 0, "functional reduction");
  const auto restricted = restrict_fanout(net, {3, true});
  same_buffers(restricted.net, restricted.buffers_added, "fan-out restriction");
  loss_budget_options lb;
  lb.max_unregenerated_levels = 2;
  const auto regenerated = enforce_loss_budget(net, lb);
  same_buffers(regenerated.net, regenerated.repeaters_added, "loss budget");
  // The rewrites restructure gates; the runs between them survive.
  for (const auto& rewritten : {depth_rewrite(net), balance_rewrite(net)}) {
    EXPECT_TRUE(has_buffer_runs(rewritten));
    EXPECT_TRUE(functionally_equivalent(net, rewritten));
  }
}

// -------------------------------------------------------------- oracle ---

TEST(buffer_runs, oracle_and_packed_paths_match_the_unit_chain) {
  std::size_t runs_seen = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto net = gen::random_mig({10, 120 + 20 * static_cast<unsigned>(seed), 0.5, 8,
                                      3300 + seed});
    const auto waves = random_waves(37, net.num_pis(), seed);
    for (const auto strategy : {buffer_strategy::naive, buffer_strategy::chain}) {
      for (const unsigned tolerance : {0u, 1u}) {
        buffer_insertion_options opts;
        opts.strategy = strategy;
        opts.tolerance = tolerance;
        opts.schedule = static_cast<schedule_policy>(seed % 3);
        const auto balanced = insert_buffers(net, opts);
        runs_seen += balanced.net.num_buffers() - balanced.net.num_buffer_nodes();
        const auto unit = expand_buffer_runs(balanced.net);
        const auto unit_schedule = expand_schedule(balanced.net, balanced.schedule);
        const std::string what = "seed " + std::to_string(seed) + ", strategy " +
                                 std::to_string(static_cast<int>(strategy)) + ", tolerance " +
                                 std::to_string(tolerance);
        // phases 2 with tolerance 1 is incoherent: the oracle models the
        // interference, and must model it exactly as on the unit chain.
        for (const unsigned phases : {2u, 3u}) {
          const auto runs = run_waves(balanced.net, waves, phases, balanced.schedule);
          const auto units = run_waves(unit, waves, phases, unit_schedule);
          EXPECT_EQ(runs.outputs, units.outputs) << what << ", phases " << phases;
          EXPECT_EQ(runs.ticks, units.ticks) << what;
          EXPECT_EQ(runs.latency_ticks, units.latency_ticks) << what;
          EXPECT_EQ(runs.waves_in_flight, units.waves_in_flight) << what;
          if (tolerance + 2 <= phases) {
            const auto packed = run_waves_packed(balanced.net, waves, phases, balanced.schedule);
            EXPECT_EQ(packed.outputs, runs.outputs) << what << ", phases " << phases;
            EXPECT_EQ(packed.ticks, runs.ticks) << what;
          }
        }
      }
    }
  }
  EXPECT_GT(runs_seen, 0u);
}

TEST(buffer_runs, oracle_models_interference_through_an_unbalanced_run) {
  // a reaches the gate through a run of 3 while b arrives directly: with
  // two phases the wave on b is one initiation ahead of a's, exactly as
  // through three unit buffers.
  mig_network net;
  const signal a = net.create_pi("a");
  const signal b = net.create_pi("b");
  const signal c = net.create_pi("c");
  net.create_po(net.create_maj(net.create_buffer(a, 3), b, c));
  const auto unit = expand_buffer_runs(net);
  const auto waves = random_waves(24, 3, 5);
  const auto runs = run_waves(net, waves, 2);
  EXPECT_EQ(runs.outputs, run_waves(unit, waves, 2).outputs);
  EXPECT_THROW((void)run_waves_packed(net, waves, 2), std::invalid_argument);
  EXPECT_EQ(engine::compiled_netlist{net}.max_edge_span(), 4u);  // b -> gate
}

TEST(buffer_runs, nothing_expands_a_hostile_run) {
  // The longest run a .mig file may hold: its unit-buffer form just fits
  // the 31-bit node index space (40 GB of nodes). The oracle and the
  // writers refuse it before allocating; the level passes never expand it.
  std::stringstream text{".inputs a\nn1 = BUF(a, 2147483645)\n.output f = n1\n"};
  const auto net = io::read_mig(text);
  EXPECT_EQ(expanded_num_nodes(net), 2147483647u);
  const auto levels = compute_levels(net);
  EXPECT_EQ(levels.depth, 2147483645u);
  EXPECT_THROW((void)engine::run_waves(net, levels, {{true}}, 3), std::length_error);
  EXPECT_THROW((void)run_waves(net, {{true}}, 3), std::length_error);
  EXPECT_THROW((void)expand_buffer_runs(net), std::length_error);
  EXPECT_THROW((void)expand_schedule(net, levels), std::length_error);
  std::ostringstream blif;
  EXPECT_THROW(io::write_blif(net, blif), std::length_error);
  EXPECT_TRUE(blif.str().empty());
}

// --------------------------------------------------------- cache keys ---

TEST(buffer_runs, run_lengths_key_distinct_programs) {
  const auto make = [](std::uint32_t length) {
    mig_network net;
    net.create_po(net.create_buffer(net.create_pi("a"), length));
    return net;
  };
  const auto two = make(2);
  const auto three = make(3);
  EXPECT_NE(engine::network_fingerprint(two), engine::network_fingerprint(three));
  EXPECT_NE(engine::network_fingerprint(two), engine::network_fingerprint(make(1)));
  EXPECT_EQ(engine::network_fingerprint(two), engine::network_fingerprint(make(2)));

  engine::parallel_executor executor{1};
  engine::batch_session session{executor};
  const auto p2 = session.compile(two, 3);
  const auto p3 = session.compile(three, 3);
  EXPECT_NE(p2.get(), p3.get());
  EXPECT_EQ(p2->depth(), 2u);
  EXPECT_EQ(p3->depth(), 3u);
  EXPECT_EQ(session.stats().misses, 2u);
  EXPECT_EQ(session.stats().entries, 2u);
}

TEST(buffer_runs, a_served_program_carries_no_tick_program) {
  // The serving cache charges memory_bytes(); with no tick program a
  // scheduled program costs what the comb-only lowering does.
  const auto net = wave_pipeline(gen::build_benchmark("mul32")).net;
  const engine::compiled_netlist program{net};
  EXPECT_EQ(program.memory_bytes(), engine::compiled_netlist::comb_only(net).memory_bytes());
  EXPECT_TRUE(program.wave_coherent(3));
}

}  // namespace
}  // namespace wavemig
