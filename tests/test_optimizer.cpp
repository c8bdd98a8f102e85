// Unit and property tests of the compiled-program optimizer
// (engine/optimizer.hpp): targeted constructions for each pass — constant
// /functional folding of majority gates, structural hashing (CSE) under
// self-duality, dead-cone removal, liveness-based slot recycling — plus the
// acceptance property that randomized MIGs evaluate bit-identically at
// every opt level through every execution path (scalar, packed, parallel,
// async serving).
//
// The network builder already hashes and folds plain majority gates, so
// the constructions route operands through buffers (never hashed): after
// lowering folds the buffers away by reference forwarding, the redundancy
// becomes visible to the optimizer exactly as it does on balanced netlists.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/serving.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/mig.hpp"

namespace wavemig {
namespace {

using engine::compile_options;
using engine::compiled_netlist;

/// Random PI words for cross-checking two compiled programs combinationally.
std::vector<std::uint64_t> random_words(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::vector<std::uint64_t> words(count);
  for (auto& w : words) {
    w = rng();
  }
  return words;
}

void expect_same_function(const compiled_netlist& a, const compiled_netlist& b,
                          std::size_t num_pis, std::uint64_t seed) {
  for (int round = 0; round < 4; ++round) {
    const auto words = random_words(num_pis, seed + round);
    EXPECT_EQ(a.eval_words(words), b.eval_words(words)) << "round " << round;
  }
}

TEST(optimizer, folds_duplicate_operand_majorities) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  // maj(a, a, b) hidden behind two distinct buffers.
  const signal m = net.create_maj(net.create_buffer(a), net.create_buffer(a), b);
  net.create_po(m);

  const auto raw = compiled_netlist::comb_only(net);
  const auto opt = compiled_netlist::comb_only(net, {.opt_level = 1});
  EXPECT_EQ(raw.num_comb_ops(), 1u);
  EXPECT_EQ(opt.num_comb_ops(), 0u);
  EXPECT_GE(opt.opt_stats().constants_folded, 1u);
  expect_same_function(raw, opt, net.num_pis(), 101);
}

TEST(optimizer, folds_complement_pair_and_constant_majorities) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  // maj(a, !a, b) = b — complement pair via buffers.
  net.create_po(net.create_maj(net.create_buffer(a), !net.create_buffer(a), b));
  // maj(0, 1, a) = a — both constants via buffers.
  net.create_po(net.create_maj(net.create_buffer(net.get_constant(false)),
                               net.create_buffer(net.get_constant(true)), a));
  // maj(1, 1, b) = 1 — a constant-valued output.
  net.create_po(net.create_maj(net.create_buffer(net.get_constant(true)),
                               net.create_buffer(net.get_constant(true)), b));

  const auto raw = compiled_netlist::comb_only(net);
  const auto opt = compiled_netlist::comb_only(net, {.opt_level = 1});
  EXPECT_EQ(raw.num_comb_ops(), 3u);
  EXPECT_EQ(opt.num_comb_ops(), 0u);
  EXPECT_EQ(opt.opt_stats().constants_folded, 3u);
  expect_same_function(raw, opt, net.num_pis(), 202);
}

TEST(optimizer, cse_merges_structurally_identical_gates) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  // Two copies of maj(a, b, c), distinct at build time thanks to buffers.
  const signal g1 = net.create_maj(net.create_buffer(a), b, c);
  const signal g2 = net.create_maj(net.create_buffer(a), b, c);
  net.create_po(g1);
  net.create_po(g2);

  const auto raw = compiled_netlist::comb_only(net);
  const auto opt = compiled_netlist::comb_only(net, {.opt_level = 1});
  EXPECT_EQ(raw.num_comb_ops(), 2u);
  EXPECT_EQ(opt.num_comb_ops(), 1u);
  EXPECT_EQ(opt.opt_stats().cse_hits, 1u);
  expect_same_function(raw, opt, net.num_pis(), 303);
}

TEST(optimizer, cse_canonicalizes_under_self_duality) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal g1 = net.create_maj(net.create_buffer(a), b, c);
  // maj(!a, !b, !c) = !maj(a, b, c): same gate modulo output polarity.
  const signal g2 = net.create_maj(!net.create_buffer(a), !b, !c);
  net.create_po(g1);
  net.create_po(g2);

  const auto raw = compiled_netlist::comb_only(net);
  const auto opt = compiled_netlist::comb_only(net, {.opt_level = 1});
  EXPECT_EQ(opt.num_comb_ops(), 1u);
  EXPECT_EQ(opt.opt_stats().cse_hits, raw.num_comb_ops() - 1);
  expect_same_function(raw, opt, net.num_pis(), 404);
}

TEST(optimizer, removes_cones_dead_from_the_outputs) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal live = net.create_maj(a, b, c);
  // A two-gate cone no PO reaches (buffers keep it distinct from `live`).
  const signal d1 = net.create_maj(net.create_buffer(a), b, !c);
  (void)net.create_maj(d1, net.create_buffer(b), c);
  net.create_po(live);

  const auto raw = compiled_netlist::comb_only(net);
  const auto opt = compiled_netlist::comb_only(net, {.opt_level = 1});
  EXPECT_EQ(raw.num_comb_ops(), 3u);
  EXPECT_EQ(opt.num_comb_ops(), 1u);
  EXPECT_EQ(opt.opt_stats().dead_ops_removed, 2u);
  expect_same_function(raw, opt, net.num_pis(), 505);
}

TEST(optimizer, slot_recycling_shrinks_scratch_to_peak_liveness) {
  // A 50-gate chain: each gate's single gate-operand dies at its consumer,
  // so peak liveness is exactly one gate slot regardless of chain length.
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  signal t = net.create_maj(a, b, c);
  constexpr std::size_t chain = 50;
  for (std::size_t i = 1; i < chain; ++i) {
    t = net.create_maj(t, b, i % 2 == 0 ? c : !c);
  }
  net.create_po(t);

  const std::size_t fixed = 1 + net.num_pis();
  const auto raw = compiled_netlist::comb_only(net);
  const auto opt1 = compiled_netlist::comb_only(net, {.opt_level = 1});
  const auto opt2 = compiled_netlist::comb_only(net, {.opt_level = 2});

  EXPECT_EQ(raw.comb_slot_count(), fixed + chain);
  EXPECT_EQ(opt1.comb_slot_count(), fixed + chain);  // no recycling below level 2
  EXPECT_EQ(opt2.comb_slot_count(), fixed + 1);
  EXPECT_EQ(opt2.opt_stats().peak_live_slots, 1u);
  EXPECT_EQ(opt2.opt_stats().slots_before, fixed + chain);
  EXPECT_EQ(opt2.opt_stats().slots_after, fixed + 1);
  EXPECT_EQ(opt2.num_comb_ops(), chain);  // recycling removes slots, not ops
  expect_same_function(raw, opt2, net.num_pis(), 606);
}

TEST(optimizer, peak_liveness_accounts_for_fan_out_lifetimes) {
  // Balanced binary reduction over 8 leaves: the widest live front is the
  // leaf layer, and recycling cannot beat it. slots_after - fixed must
  // equal peak_live_slots exactly (the accounting identity).
  mig_network net;
  std::vector<signal> layer;
  const signal x = net.create_pi();
  const signal y = net.create_pi();
  for (int i = 0; i < 8; ++i) {
    layer.push_back(net.create_maj(net.create_buffer(x), net.create_buffer(y),
                                   i % 2 == 0 ? x : !y));
  }
  while (layer.size() > 1) {
    std::vector<signal> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(net.create_maj(layer[i], layer[i + 1], x));
    }
    layer = std::move(next);
  }
  net.create_po(layer[0]);

  const std::size_t fixed = 1 + net.num_pis();
  const auto opt2 = compiled_netlist::comb_only(net, {.opt_level = 2});
  EXPECT_EQ(opt2.comb_slot_count() - fixed, opt2.opt_stats().peak_live_slots);
  EXPECT_LE(opt2.comb_slot_count(), compiled_netlist::comb_only(net).comb_slot_count());
  expect_same_function(compiled_netlist::comb_only(net), opt2, net.num_pis(), 707);
}

TEST(optimizer, opt_levels_are_bit_identical_across_all_execution_paths) {
  engine::parallel_executor executor{2};
  const unsigned phases = 3;

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    gen::random_mig_profile profile;
    profile.inputs = 8 + 2 * static_cast<unsigned>(seed);
    profile.gates = 100 + 30 * static_cast<unsigned>(seed);
    profile.outputs = 6 + static_cast<unsigned>(seed);
    profile.locality = 0.3 + 0.1 * static_cast<double>(seed);
    profile.seed = seed * 1337;
    const auto net = gen::random_mig(profile);
    const auto balanced = insert_buffers(net);

    std::mt19937_64 rng{seed ^ 0xBEEF};
    std::vector<std::vector<bool>> waves(700, std::vector<bool>(net.num_pis()));
    for (auto& wave : waves) {  // > 1 multi-chunk block
      for (std::size_t i = 0; i < wave.size(); ++i) {
        wave[i] = (rng() & 1u) != 0;
      }
    }
    const auto batch = engine::wave_batch::from_waves(waves, net.num_pis());

    const compiled_netlist baseline{balanced.net, balanced.schedule};
    const auto reference = engine::run_waves_packed(baseline, batch, phases);

    for (const unsigned level : {0u, 1u, 2u}) {
      const compile_options copts{.opt_level = level};
      const compiled_netlist compiled{balanced.net, balanced.schedule, copts};
      EXPECT_LE(compiled.num_comb_ops(), baseline.num_comb_ops()) << "level " << level;

      const auto packed = engine::run_waves_packed(compiled, batch, phases);
      EXPECT_EQ(packed.words, reference.words) << "packed, level " << level;

      const auto parallel = engine::run_waves_parallel(compiled, batch, phases, executor);
      EXPECT_EQ(parallel.words, reference.words) << "parallel, level " << level;

      engine::serving_session serving{executor, {}, {}, 0, copts};
      const auto async =
          serving.submit(std::make_shared<const mig_network>(net), batch, phases).get();
      EXPECT_EQ(async.words, reference.words) << "async, level " << level;

      // Scalar cycle-accurate path: the oracle lowers its own tick program
      // from the network and schedule, never optimized, and must agree.
      const auto scalar = engine::run_waves(balanced.net, balanced.schedule, waves, phases);
      EXPECT_EQ(scalar.outputs, packed.unpack()) << "scalar vs packed, level " << level;
    }
  }
}

TEST(optimizer, options_fingerprint_separates_every_knob) {
  const compile_options base{};
  const auto fp = [](const compile_options& o) { return engine::options_fingerprint(o); };
  EXPECT_NE(fp(base), fp({.opt_level = 2}));
  EXPECT_NE(fp({.opt_level = 1}), fp({.opt_level = 2}));
  EXPECT_NE(fp(base), fp({.scenario_fingerprint = 7}));
  EXPECT_NE(fp(base), fp({.fdm_lanes = 4}));
  // Same options, same fingerprint — it keys a cache.
  EXPECT_EQ(fp({.opt_level = 2, .fdm_lanes = 4}), fp({.opt_level = 2, .fdm_lanes = 4}));
}

TEST(optimizer, session_stats_report_resident_op_and_slot_counts) {
  engine::parallel_executor executor{2};
  const auto net = gen::random_mig({10, 120, 0.5, 8, 42});
  engine::wave_batch batch{net.num_pis()};
  batch.append(std::vector<bool>(net.num_pis(), true));

  engine::batch_session raw_session{executor};
  engine::batch_session opt_session{executor, {}, {}, {.opt_level = 2}};
  const auto raw_run = raw_session.run(net, batch, 3);
  const auto opt_run = opt_session.run(net, batch, 3);
  EXPECT_EQ(raw_run.words, opt_run.words);

  const auto raw_stats = raw_session.stats();
  const auto opt_stats = opt_session.stats();
  ASSERT_EQ(raw_stats.entries, 1u);
  ASSERT_EQ(opt_stats.entries, 1u);
  EXPECT_GT(raw_stats.comb_ops, 0u);
  EXPECT_GT(raw_stats.comb_slots, 0u);
  EXPECT_LE(opt_stats.comb_ops, raw_stats.comb_ops);
  EXPECT_LT(opt_stats.comb_slots, raw_stats.comb_slots);

  // The compiled program exposes its own options and stats.
  const auto program = opt_session.compile(net, 3);
  EXPECT_EQ(program->options().opt_level, 2u);
  EXPECT_EQ(program->opt_stats().slots_after, program->comb_slot_count());
}

TEST(optimizer, opt_levels_occupy_distinct_cache_entries) {
  engine::parallel_executor executor{2};
  engine::batch_session session{executor};
  const auto net = gen::random_mig({12, 200, 0.5, 8, 99});
  const std::uint64_t fp = engine::network_fingerprint(net);
  const compile_options level1{.opt_level = 1};
  const compile_options level2{.opt_level = 2};

  const auto plain = session.compile(net, 3, fp, nullptr, &level1);
  const auto recycled = session.compile(net, 3, fp, nullptr, &level2);
  // Distinct entries, distinct programs — an opt level can never be served
  // a program compiled at another.
  EXPECT_EQ(session.stats().entries, 2u);
  EXPECT_NE(plain.get(), recycled.get());
  EXPECT_EQ(plain->options().opt_level, 1u);
  EXPECT_EQ(recycled->options().opt_level, 2u);

  // Re-requesting either level hits its own entry, never the other's.
  EXPECT_EQ(session.compile(net, 3, fp, nullptr, &level1).get(), plain.get());
  EXPECT_EQ(session.compile(net, 3, fp, nullptr, &level2).get(), recycled.get());
  EXPECT_EQ(session.stats().entries, 2u);

  // Same function either way; the session surfaces the programs' liveness.
  expect_same_function(*plain, *recycled, net.num_pis(), 909);
  EXPECT_GT(session.stats().comb_peak_live, 0u);
}

TEST(optimizer, serving_requests_pin_their_compile_options) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor};
  const auto net = std::make_shared<mig_network>(gen::random_mig({12, 200, 0.5, 8, 99}));

  engine::wave_batch batch{net->num_pis()};
  std::mt19937_64 rng{777};
  for (int w = 0; w < 70; ++w) {
    std::vector<bool> wave(net->num_pis());
    for (auto&& bit : wave) {
      bit = (rng() & 1u) != 0;
    }
    batch.append(wave);
  }

  engine::submit_options plain_opts;
  plain_opts.compile = compile_options{.opt_level = 1};
  engine::submit_options recycled_opts;
  recycled_opts.compile = compile_options{.opt_level = 2};

  auto plain_future = serving.submit(net, batch, 3, plain_opts);
  auto recycled_future = serving.submit(net, batch, 3, recycled_opts);
  const auto plain_result = plain_future.get();
  const auto recycled_result = recycled_future.get();
  EXPECT_EQ(plain_result.words, recycled_result.words);
  // Two resident programs: the per-request overrides never cross-served.
  EXPECT_EQ(serving.stats().entries, 2u);
}

}  // namespace
}  // namespace wavemig
