// Randomized differential harness: seeded random MIGs are pushed through
// every execution path the engine offers — the cycle-accurate scalar
// simulator, the packed 64-wave engine, the sharded parallel executor, and
// the async serving session — and the results must be bit-identical,
// sweeping clock phases, buffer strategies, balancing tolerance and wave
// counts. Silent divergence between paths is exactly the failure mode
// serving-grade concurrency breeds, so this suite is the acceptance gate of
// the serving PR and runs under the ASan and TSan CI jobs.
//
// The same generator also drives BLIF round-trip fuzzing: write_blif →
// read_blif must preserve the function, and corrupted inputs (truncation,
// stray '\' continuations) must surface as parse_error, never as a silently
// different circuit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <future>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/serving.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/io/blif.hpp"
#include "wavemig/io/mig_format.hpp"
#include "wavemig/pipeline.hpp"
#include "wavemig/simulation.hpp"
#include "wavemig/tech_scenario.hpp"
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

struct diff_case {
  gen::random_mig_profile profile;
  buffer_insertion_options options;
  unsigned phases;
  std::size_t num_waves;
};

/// Runs one configuration through all four paths — and, on the packed
/// path, every kernel width against the generic evaluator — and
/// cross-checks them. The serving path receives the *raw* network (it
/// balances with the same options itself), so the check also covers the
/// session's balance+compile.
void expect_paths_agree(const diff_case& c, engine::parallel_executor& executor,
                        const std::string& what) {
  const auto net = gen::random_mig(c.profile);
  const auto balanced = insert_buffers(net, c.options);
  const auto waves = random_waves(c.num_waves, net.num_pis(), c.profile.seed ^ 0xD1FF);
  const auto batch = engine::wave_batch::from_waves(waves, net.num_pis());
  const engine::compiled_netlist compiled{balanced.net, balanced.schedule};

  // Path 1 — cycle-accurate scalar simulation under the balanced schedule.
  const auto scalar = run_waves(balanced.net, waves, c.phases, balanced.schedule);
  // Path 2 — packed engine (multi-word blocked kernel).
  const auto packed = engine::run_waves_packed(compiled, batch, c.phases);
  // Path 3 — sharded parallel executor.
  const auto parallel = engine::run_waves_parallel(compiled, batch, c.phases, executor);
  // Path 4 — async serving session (future API, bounded cache).
  engine::serving_session serving{executor, c.options, {.max_entries = 2}};
  const auto async =
      serving.submit(std::make_shared<const mig_network>(net), batch, c.phases).get();

  ASSERT_EQ(packed.unpack(), scalar.outputs) << what << ": packed vs scalar";
  EXPECT_EQ(packed.ticks, scalar.ticks) << what;
  EXPECT_EQ(packed.latency_ticks, scalar.latency_ticks) << what;
  EXPECT_EQ(packed.waves_in_flight, scalar.waves_in_flight) << what;

  EXPECT_EQ(parallel.words, packed.words) << what << ": parallel vs packed";
  EXPECT_EQ(parallel.ticks, packed.ticks) << what;

  EXPECT_EQ(async.words, packed.words) << what << ": async vs packed";
  EXPECT_EQ(async.num_waves, packed.num_waves) << what;
  EXPECT_EQ(async.ticks, packed.ticks) << what;
  EXPECT_EQ(async.initiation_interval, packed.initiation_interval) << what;

  // The generic per-chunk evaluator on std::uint64_t is the
  // layout-independent reference: it shares no code with the packed
  // kernel. Front-end results mask the bits above num_waves in the last
  // chunk; the raw evaluator does not — mask here to compare.
  const std::size_t chunks = batch.num_chunks();
  const std::size_t tail = batch.num_waves() % 64;
  const std::uint64_t tail_mask = tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
  std::vector<std::uint64_t> single_planes(chunks * compiled.num_pos());
  std::vector<std::uint64_t> slots;
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    compiled.eval([&](std::uint32_t i) { return batch.plane(i)[chunk]; }, std::uint64_t{0},
                  slots);
    const std::uint64_t mask = chunk + 1 == chunks ? tail_mask : ~std::uint64_t{0};
    for (std::size_t p = 0; p < compiled.num_pos(); ++p) {
      single_planes[p * chunks + chunk] = compiled.po_value(slots, p) & mask;
    }
  }
  EXPECT_EQ(single_planes, packed.words) << what << ": per-chunk eval";
}

TEST(differential, four_paths_agree_across_phases_strategies_and_wave_counts) {
  engine::parallel_executor executor{4};

  const buffer_strategy strategies[] = {buffer_strategy::chain, buffer_strategy::tree,
                                        buffer_strategy::naive};
  const unsigned phase_sweep[] = {2, 3, 5};
  const std::size_t wave_sweep[] = {1, 63, 64, 65, 257};
  const double locality_sweep[] = {0.1, 0.5, 0.9};

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    diff_case c;
    c.profile.inputs = 10 + 3 * static_cast<unsigned>(seed);
    c.profile.gates = 120 + 40 * static_cast<unsigned>(seed);
    c.profile.outputs = 8 + static_cast<unsigned>(seed);
    c.profile.locality = locality_sweep[seed % 3];
    c.profile.seed = seed * 7919;
    c.options.strategy = strategies[seed % 3];
    c.phases = phase_sweep[seed % 3];
    c.num_waves = wave_sweep[seed % 5];
    expect_paths_agree(c, executor, "seed " + std::to_string(seed));
  }

  // Dense cross of the remaining corners on one fixed circuit profile.
  for (const auto strategy : strategies) {
    for (const unsigned phases : phase_sweep) {
      for (const std::size_t num_waves : {1ull, 65ull}) {
        diff_case c;
        c.profile = {16, 200, 0.5, 12, 424242};
        c.options.strategy = strategy;
        c.phases = phases;
        c.num_waves = num_waves;
        expect_paths_agree(c, executor,
                           "strategy " + std::to_string(static_cast<int>(strategy)) +
                               " phases " + std::to_string(phases) + " waves " +
                               std::to_string(num_waves));
      }
    }
  }
}

TEST(differential, tolerance_balanced_schedules_agree) {
  engine::parallel_executor executor{4};
  // tolerance > 0 is the regime where coherence holds only under the
  // schedule returned by buffer insertion — the easiest place for a path to
  // silently fall back to ASAP levels and diverge.
  for (const unsigned tolerance : {1u, 2u}) {
    for (const unsigned phases : {tolerance + 2, tolerance + 3}) {
      diff_case c;
      c.profile = {14, 180, 0.6, 10, 1000 + tolerance};
      c.options.tolerance = tolerance;
      c.phases = phases;
      c.num_waves = 129;
      expect_paths_agree(c, executor,
                         "tolerance " + std::to_string(tolerance) + " phases " +
                             std::to_string(phases));
    }
  }
}

TEST(differential, buffer_strategies_never_change_the_function) {
  // Same circuit under every strategy: all balanced variants must compute
  // the combinational function of the raw network.
  const auto net = gen::random_mig({12, 150, 0.4, 10, 33});
  for (const auto strategy :
       {buffer_strategy::chain, buffer_strategy::tree, buffer_strategy::naive}) {
    buffer_insertion_options options;
    options.strategy = strategy;
    const auto balanced = insert_buffers(net, options);
    EXPECT_TRUE(functionally_equivalent(net, balanced.net))
        << "strategy " << static_cast<int>(strategy);
  }
}

// ---------------------------------------------------- layout fuzzing ---

/// Plane ingestion round-trips: random packed planes (at a stride above the
/// chunk count) pushed through `append_planes` must read back identically
/// through `plane()`, and that image must re-ingest through both plane
/// paths (`append_planes`, `from_plane_words`) to the same batch. Stray
/// bits above num_waves are injected and must never survive.
TEST(differential, layout_round_trip_is_an_involution) {
  std::mt19937_64 rng{0xBEEF};
  for (int round = 0; round < 48; ++round) {
    // The last rounds use very wide interfaces (hundreds to thousands of
    // planes, few waves), the shape of wide-PI circuits.
    const std::size_t num_pis =
        round < 40 ? 1 + rng() % 12 : 64 + rng() % 1990;
    const std::size_t num_waves = round < 40 ? 1 + rng() % 600 : 1 + rng() % 200;
    const std::size_t chunks = (num_waves + 63) / 64;
    const std::size_t stride = chunks + rng() % 3;

    std::vector<std::uint64_t> input(stride * num_pis);
    for (auto& w : input) {
      w = rng();  // includes stray bits above num_waves in the last chunk
    }

    engine::wave_batch batch{num_pis};
    batch.append_planes(input.data(), stride, num_waves);
    ASSERT_EQ(batch.num_waves(), num_waves);

    // Read back: every valid bit preserved, every stray bit masked.
    const std::size_t tail = num_waves % 64;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::uint64_t mask = (c + 1 == chunks && tail != 0)
                                     ? (std::uint64_t{1} << tail) - 1
                                     : ~std::uint64_t{0};
      for (std::size_t i = 0; i < num_pis; ++i) {
        ASSERT_EQ(batch.plane(i)[c], input[i * stride + c] & mask)
            << "round " << round << " chunk " << c << " pi " << i;
      }
    }

    // Plane-major image -> plane ingestion paths -> same planes.
    std::vector<std::uint64_t> planes(chunks * num_pis);
    for (std::size_t i = 0; i < num_pis; ++i) {
      std::copy_n(batch.plane(i), chunks,
                  planes.begin() + static_cast<std::ptrdiff_t>(i * chunks));
    }
    const auto adopted = engine::wave_batch::from_plane_words(planes, num_pis, num_waves);
    engine::wave_batch appended{num_pis};
    appended.append_planes(planes.data(), chunks, num_waves);
    for (std::size_t i = 0; i < num_pis; ++i) {
      for (std::size_t c = 0; c < chunks; ++c) {
        ASSERT_EQ(adopted.plane(i)[c], batch.plane(i)[c]) << "adopt, round " << round;
        ASSERT_EQ(appended.plane(i)[c], batch.plane(i)[c]) << "append, round " << round;
      }
    }
  }
}

/// The zero-copy serving path (pre-transposed plane words adopted without
/// repacking) against the scalar reference: bit-identical outputs at every
/// wave count including the tail-chunk corners.
/// PR-6 referee: the coalesced serving path and the direct-write
/// wave_stream pinned bit-identical to run_waves_packed across the
/// chunk-boundary wave counts.
TEST(differential, coalesced_serving_and_direct_streams_match_packed) {
  engine::parallel_executor executor{4};
  engine::serving_session serving{executor, {}, {}, 1};

  for (const std::size_t num_waves : {1ull, 63ull, 64ull, 65ull, 511ull}) {
    const auto net = gen::random_mig({11, 130, 0.5, 8, 6000 + num_waves});
    const auto shared = std::make_shared<const mig_network>(net);
    const auto balanced = insert_buffers(net);
    const engine::compiled_netlist compiled{balanced.net, balanced.schedule};
    const auto waves = random_waves(num_waves, net.num_pis(), num_waves * 13 + 1);
    const auto batch = engine::wave_batch::from_waves(waves, net.num_pis());
    const auto reference = engine::run_waves_packed(compiled, batch, 3);
    const std::string what = std::to_string(num_waves) + " waves";

    // Burst of identical small same-program requests: whatever the
    // dispatcher fuses, every sliced-back result must equal the packed run.
    std::vector<std::future<engine::packed_wave_result>> futures;
    for (int i = 0; i < 6; ++i) {
      futures.push_back(serving.submit(shared, batch, 3));
    }
    for (auto& future : futures) {
      const auto got = future.get();
      EXPECT_EQ(got.words, reference.words) << what;
      EXPECT_EQ(got.num_waves, reference.num_waves) << what;
      EXPECT_EQ(got.ticks, reference.ticks) << what;
    }

    // The direct-write stream.
    engine::wave_stream stream{compiled, 3};
    for (const auto& wave : waves) {
      stream.push(wave);
    }
    const auto streamed = stream.finish();
    EXPECT_EQ(streamed.words, reference.words) << what;
    EXPECT_EQ(streamed.ticks, reference.ticks) << what;
  }
}

TEST(differential, submit_packed_agrees_with_scalar_run_waves) {
  engine::parallel_executor executor{4};
  engine::serving_session serving{executor};

  for (const std::size_t num_waves : {1ull, 63ull, 64ull, 65ull, 257ull, 511ull}) {
    const auto net = gen::random_mig({12, 140, 0.5, 9, 5000 + num_waves});
    const auto balanced = insert_buffers(net);
    const auto waves = random_waves(num_waves, net.num_pis(), num_waves * 17 + 3);
    const auto batch = engine::wave_batch::from_waves(waves, net.num_pis());

    // Pre-transposed plane words, exactly what a zero-copy producer holds.
    std::vector<std::uint64_t> planes(batch.num_chunks() * net.num_pis());
    for (std::size_t i = 0; i < net.num_pis(); ++i) {
      std::copy_n(batch.plane(i), batch.num_chunks(),
                  planes.begin() + static_cast<std::ptrdiff_t>(i * batch.num_chunks()));
    }

    const auto async = serving
                           .submit_packed(std::make_shared<const mig_network>(net),
                                          std::move(planes), num_waves, 3)
                           .get();
    const auto scalar = run_waves(balanced.net, waves, 3, balanced.schedule);
    ASSERT_EQ(async.unpack(), scalar.outputs) << num_waves << " waves";
    EXPECT_EQ(async.ticks, scalar.ticks) << num_waves << " waves";

    // And bit-identical to the packed path on the same balanced program.
    const engine::compiled_netlist compiled{balanced.net, balanced.schedule};
    const auto packed = engine::run_waves_packed(compiled, batch, 3);
    EXPECT_EQ(async.words, packed.words) << num_waves << " waves";
  }

  // Malformed plane words surface through the future, like every other
  // validation error of the serving API.
  const auto net = std::make_shared<const mig_network>(gen::random_mig({8, 60, 0.5, 6, 99}));
  auto bad = serving.submit_packed(net, std::vector<std::uint64_t>(3, 0), 100, 3);
  EXPECT_THROW((void)bad.get(), std::invalid_argument);
}

// ------------------------------------------------ scenario differential ---

/// PR-7 referee: every built-in technology scenario's program — prepared by
/// the scenario pipeline (fan-out restriction at the scenario's capability,
/// loss-budget repeaters, balancing) — pinned bit-identical across the
/// cycle-accurate scalar simulator, the packed engine, the scenario-tagged
/// session cache (parallel path), and the scenario serving API. Clock
/// metadata is compared through the packed/parallel/serving paths only: the
/// FDM scenario compresses it, and all tagged paths must agree on the
/// compressed values.
TEST(differential, every_builtin_scenario_agrees_across_all_engine_paths) {
  engine::parallel_executor executor{4};
  engine::serving_session serving{executor};
  engine::batch_session session{executor};

  for (const auto& name : tech_scenario::names()) {
    const auto scenario = tech_scenario::by_name(name);
    engine::submit_options tagged;
    tagged.scenario = std::make_shared<const tech_scenario>(scenario);
    for (const std::size_t num_waves : {1ull, 65ull, 257ull}) {
      const auto net = gen::random_mig({11, 140, 0.5, 8, 2200 + num_waves});
      const auto shared = std::make_shared<const mig_network>(net);
      const auto waves = random_waves(num_waves, net.num_pis(), num_waves * 31 + 5);
      const auto batch = engine::wave_batch::from_waves(waves, net.num_pis());
      const std::string what = name + ", " + std::to_string(num_waves) + " waves";

      pipeline_options opts;
      opts.scenario = scenario;
      const auto prepared = wave_pipeline(net, opts);
      ASSERT_TRUE(prepared.wave_ready) << what;
      const engine::compiled_netlist reference{prepared.net};

      // Path 1 — cycle-accurate scalar simulation of the prepared program.
      const auto scalar = engine::run_waves(prepared.net, compute_levels(prepared.net), waves, 3);
      // Path 2 — packed multi-word kernel on the same program.
      const auto packed = engine::run_waves_packed(reference, batch, 3);
      // Path 3 — sharded parallel run through the scenario-tagged cache.
      const auto parallel = session.run(net, batch, 3, &scenario);
      // Path 4 — async serving, the scenario carried in submit_options.
      const auto async = serving.submit(shared, batch, 3, tagged).get();

      ASSERT_EQ(packed.unpack(), scalar.outputs) << what << ": packed vs scalar";
      EXPECT_EQ(parallel.words, packed.words) << what << ": parallel vs packed";
      EXPECT_EQ(async.words, packed.words) << what << ": serving vs packed";
      EXPECT_EQ(async.num_waves, packed.num_waves) << what;
      EXPECT_EQ(parallel.waves_in_flight, async.waves_in_flight) << what;
      EXPECT_EQ(parallel.ticks, async.ticks) << what;
    }
  }
}

// ------------------------------------------------------- BLIF fuzzing ---

TEST(blif_fuzz, random_networks_round_trip_functionally) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gen::random_mig_profile profile;
    profile.inputs = 5 + static_cast<unsigned>(seed % 5);  // <= 12 PIs: exact check
    profile.gates = 30 + 10 * static_cast<unsigned>(seed);
    profile.outputs = 4 + static_cast<unsigned>(seed % 4);
    profile.seed = seed * 104729;
    const auto net = gen::random_mig(profile);

    std::stringstream ss;
    io::write_blif(net, ss);
    const auto round = io::read_blif(ss);
    ASSERT_EQ(round.num_pis(), net.num_pis()) << "seed " << seed;
    ASSERT_EQ(round.num_pos(), net.num_pos()) << "seed " << seed;
    EXPECT_TRUE(functionally_equivalent(net, round)) << "seed " << seed;
  }
}

TEST(blif_fuzz, balanced_networks_round_trip_functionally) {
  // Balanced netlists exercise the identity-cover (buffer/fan-out) writer
  // paths that plain random MIGs never emit.
  const auto net = gen::random_mig({8, 60, 0.5, 6, 77});
  const auto balanced = insert_buffers(net).net;
  std::stringstream ss;
  io::write_blif(balanced, ss);
  const auto round = io::read_blif(ss);
  EXPECT_TRUE(functionally_equivalent(balanced, round));
  EXPECT_TRUE(functionally_equivalent(net, round));
}

TEST(blif_fuzz, truncation_is_detected_never_misparsed) {
  // Truncating a BLIF file after its header must either raise parse_error
  // or — when the cut happens to fall on a block boundary near the end —
  // still parse to the identical function. A successful parse of a
  // truncated body with a different function would be a silent misparse.
  const auto net = gen::random_mig({6, 40, 0.5, 5, 555});
  std::stringstream ss;
  io::write_blif(net, ss);
  const std::string full = ss.str();

  // Offsets strictly after the ".outputs" line: every PI/PO is declared, so
  // a parse that succeeds must expose the full interface.
  const auto outputs_line_end = full.find('\n', full.find(".outputs"));
  ASSERT_NE(outputs_line_end, std::string::npos);
  const auto header_end = outputs_line_end + 1;

  std::size_t parsed_ok = 0;
  std::size_t rejected = 0;
  for (std::size_t cut = header_end; cut < full.size(); cut += 7) {
    std::stringstream truncated{full.substr(0, cut)};
    try {
      const auto got = io::read_blif(truncated);
      ASSERT_EQ(got.num_pis(), net.num_pis()) << "cut at " << cut;
      ASSERT_EQ(got.num_pos(), net.num_pos()) << "cut at " << cut;
      EXPECT_TRUE(functionally_equivalent(net, got)) << "cut at " << cut;
      ++parsed_ok;
    } catch (const io::parse_error&) {
      ++rejected;  // detected — the acceptable outcome
    }
    // Any other exception type escapes and fails the test.
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(parsed_ok, 0u);  // cutting right before ".end" still parses
}

TEST(blif_fuzz, stray_continuations_are_parse_errors) {
  // A file ending inside a '\' continuation: the pending text never reached
  // the parser, so dropping it silently would alter the circuit.
  std::stringstream eof_continuation{".model t\n.inputs a b\n.outputs f\n.names a b f\\"};
  EXPECT_THROW((void)io::read_blif(eof_continuation), io::parse_error);

  // Same with a comment after the backslash — the '#' runs to end of line,
  // the continuation is still pending at EOF.
  std::stringstream comment_continuation{".model t\n.inputs a\n.outputs f\n.names a f \\"};
  EXPECT_THROW((void)io::read_blif(comment_continuation), io::parse_error);

  // A continuation mid-file must splice, not truncate: this is the valid
  // counterpart that must parse.
  std::stringstream spliced{".model t\n.inputs a b\n.outputs f\n.names a \\\nb f\n11 1\n.end\n"};
  const auto net = io::read_blif(spliced);
  EXPECT_EQ(net.num_pis(), 2u);
  EXPECT_EQ(net.num_pos(), 1u);
}

TEST(blif_fuzz, malformed_bodies_are_parse_errors) {
  const auto expect_rejects = [](const std::string& text) {
    std::stringstream ss{text};
    EXPECT_THROW((void)io::read_blif(ss), io::parse_error) << text;
  };
  // Cube line outside any .names block (e.g. the block line got lost).
  expect_rejects(".model t\n.inputs a\n.outputs f\n11 1\n.end\n");
  // Cube width disagrees with the .names input count.
  expect_rejects(".model t\n.inputs a b\n.outputs f\n.names a b f\n111 1\n.end\n");
  // On-set and off-set cubes mixed in one cover.
  expect_rejects(".model t\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end\n");
  // Output never defined by any block.
  expect_rejects(".model t\n.inputs a\n.outputs f\n.end\n");
  // Unsupported sequential construct.
  expect_rejects(".model t\n.inputs a\n.outputs f\n.latch a f re clk 0\n.end\n");
}

}  // namespace
}  // namespace wavemig
