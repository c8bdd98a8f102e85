#include "wavemig/engine/wave_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/gen/arith.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/simulation.hpp"
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

TEST(compiled_netlist, folds_identity_components_out_of_the_comb_program) {
  const auto net = gen::ripple_adder_circuit(8);
  const auto balanced = insert_buffers(net).net;
  ASSERT_GT(balanced.num_buffers(), 0u);

  const engine::compiled_netlist compiled{balanced};
  EXPECT_EQ(compiled.num_comb_ops(), balanced.num_majorities());
  EXPECT_EQ(compiled.num_tick_ops(), balanced.num_components());
  EXPECT_EQ(compiled.num_pis(), balanced.num_pis());
  EXPECT_EQ(compiled.num_pos(), balanced.num_pos());
  EXPECT_EQ(compiled.depth(), compute_levels(balanced).depth);
}

TEST(compiled_netlist, eval_words_matches_interpreter) {
  std::mt19937_64 rng{99};
  for (const auto& net :
       {gen::ripple_adder_circuit(12), gen::multiplier_circuit(5), gen::parity_circuit(16)}) {
    const engine::compiled_netlist compiled{net};
    for (int round = 0; round < 8; ++round) {
      std::vector<std::uint64_t> words(net.num_pis());
      for (auto& w : words) {
        w = rng();
      }
      EXPECT_EQ(compiled.eval_words(words), simulate_words(net, words));
    }
  }
}

TEST(compiled_netlist, coherence_metadata) {
  const auto net = gen::ripple_adder_circuit(6);
  const engine::compiled_netlist raw{net};
  EXPECT_GT(raw.max_edge_span(), 1u) << "unbalanced adder must have long edges";
  EXPECT_FALSE(raw.wave_coherent(3));

  const engine::compiled_netlist balanced{insert_buffers(net).net};
  EXPECT_EQ(balanced.min_edge_span(), 1u);
  EXPECT_EQ(balanced.max_edge_span(), 1u);
  EXPECT_TRUE(balanced.wave_coherent(1));
  EXPECT_TRUE(balanced.wave_coherent(5));
}

TEST(compiled_netlist, input_width_validation) {
  const engine::compiled_netlist compiled{gen::ripple_adder_circuit(4)};
  EXPECT_THROW((void)compiled.eval_words({1ull, 2ull}), std::invalid_argument);
}

/// The tentpole property: packed execution is wave-for-wave identical to the
/// cycle-accurate reference on randomly generated MIGs, across chain/tree
/// buffer strategies and 2-5 clock phases.
TEST(packed_waves, equals_scalar_reference_on_random_migs) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    gen::random_mig_profile profile;
    profile.inputs = 6;
    profile.gates = 40 + static_cast<unsigned>(seed) * 17;
    profile.outputs = 6;
    profile.locality = 0.3 + 0.15 * static_cast<double>(seed);
    profile.seed = seed;
    const auto net = gen::random_mig(profile);

    for (const auto strategy : {buffer_strategy::chain, buffer_strategy::tree}) {
      buffer_insertion_options options;
      options.strategy = strategy;
      const auto balanced = insert_buffers(net, options);

      const auto waves = random_waves(20, balanced.net.num_pis(), seed * 31 + 7);
      for (unsigned phases = 2; phases <= 5; ++phases) {
        const auto scalar = run_waves(balanced.net, waves, phases, balanced.schedule);
        const auto packed = run_waves_packed(balanced.net, waves, phases, balanced.schedule);
        EXPECT_EQ(packed.outputs, scalar.outputs)
            << "seed " << seed << " strategy " << static_cast<int>(strategy) << " phases "
            << phases;
        EXPECT_EQ(packed.ticks, scalar.ticks);
        EXPECT_EQ(packed.latency_ticks, scalar.latency_ticks);
        EXPECT_EQ(packed.initiation_interval, scalar.initiation_interval);
        EXPECT_EQ(packed.waves_in_flight, scalar.waves_in_flight);
      }
    }
  }
}

TEST(packed_waves, equals_scalar_reference_under_tolerance_schedules) {
  // Tolerance-balanced netlists are coherent only under the schedule
  // returned by buffer insertion; both engines must honor it.
  const auto net = gen::random_mig({8, 60, 0.5, 8, 11});
  for (const unsigned tolerance : {1u, 2u}) {
    buffer_insertion_options options;
    options.tolerance = tolerance;
    const auto balanced = insert_buffers(net, options);
    const auto waves = random_waves(16, balanced.net.num_pis(), 13);
    for (unsigned phases = tolerance + 2; phases <= 5; ++phases) {
      const auto scalar = run_waves(balanced.net, waves, phases, balanced.schedule);
      const auto packed = run_waves_packed(balanced.net, waves, phases, balanced.schedule);
      EXPECT_EQ(packed.outputs, scalar.outputs) << "tolerance " << tolerance << " phases "
                                                << phases;
    }
  }
}

TEST(packed_waves, matches_combinational_reference_on_suite_circuit) {
  const auto balanced = insert_buffers(gen::multiplier_circuit(4)).net;
  const auto waves = random_waves(130, balanced.num_pis(), 5);  // > 2 chunks
  const auto packed = run_waves_packed(balanced, waves, 3);
  ASSERT_EQ(packed.outputs.size(), waves.size());
  for (std::size_t w = 0; w < waves.size(); ++w) {
    EXPECT_EQ(packed.outputs[w], simulate_pattern(balanced, waves[w])) << "wave " << w;
  }
}

TEST(packed_waves, rejects_incoherent_netlists) {
  // An unbalanced netlist exhibits wave interference that the packed engine
  // cannot model; it must refuse instead of returning wrong answers.
  const auto net = gen::ripple_adder_circuit(6);
  const auto waves = random_waves(4, net.num_pis(), 3);
  EXPECT_THROW(run_waves_packed(net, waves, 3), std::invalid_argument);

  // With enough phases the same netlist becomes coherent (every edge span
  // fits inside one initiation interval).
  const engine::compiled_netlist compiled{net};
  const auto run = run_waves_packed(net, waves, compiled.max_edge_span());
  EXPECT_EQ(run.outputs, run_waves(net, waves, compiled.max_edge_span()).outputs);
}

TEST(packed_waves, validates_inputs) {
  mig_network net;
  net.create_pi();
  net.create_po(constant0);
  EXPECT_THROW(run_waves_packed(net, {{true, false}}, 3), std::invalid_argument);
  EXPECT_THROW(run_waves_packed(net, {{true}}, 0), std::invalid_argument);

  engine::wave_batch batch{2};
  EXPECT_THROW(batch.append({true}), std::invalid_argument);
}

TEST(packed_waves, empty_batch_is_noop) {
  const auto balanced = insert_buffers(gen::ripple_adder_circuit(4)).net;
  const auto run = run_waves_packed(balanced, {}, 3);
  EXPECT_TRUE(run.outputs.empty());
  EXPECT_EQ(run.ticks, 0u);
}

TEST(wave_batch, packs_and_unpacks_waves) {
  const auto waves = random_waves(70, 5, 77);
  const auto batch = engine::wave_batch::from_waves(waves, 5);
  EXPECT_EQ(batch.num_waves(), 70u);
  EXPECT_EQ(batch.num_chunks(), 2u);
  for (std::size_t w = 0; w < waves.size(); ++w) {
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(batch.input(w, i), waves[w][i]);
    }
  }
}

TEST(wave_stream, streams_blocks_incrementally) {
  const auto balanced = insert_buffers(gen::ripple_adder_circuit(8)).net;
  const engine::compiled_netlist compiled{balanced};
  // > 2 multi-chunk blocks plus a partial tail.
  constexpr std::size_t block = engine::wave_stream::block_waves;
  const auto waves = random_waves(2 * block + 200, balanced.num_pis(), 21);

  engine::wave_stream stream{compiled, 3};
  for (std::size_t w = 0; w < waves.size(); ++w) {
    stream.push(waves[w]);
    // Full multi-chunk blocks are evaluated as soon as they close.
    EXPECT_EQ(stream.waves_completed(), (w + 1) / block * block);
  }
  const auto result = stream.finish();
  EXPECT_EQ(result.num_waves, waves.size());

  const auto reference = run_waves(balanced, waves, 3);
  EXPECT_EQ(result.unpack(), reference.outputs);
  EXPECT_EQ(result.ticks, reference.ticks);

  // The stream resets after finish and can be reused.
  stream.push(waves[0]);
  const auto second = stream.finish();
  EXPECT_EQ(second.num_waves, 1u);
  EXPECT_EQ(second.unpack()[0], reference.outputs[0]);
}

TEST(wave_stream, finish_resets_for_full_reuse) {
  // The documented reset semantics of finish(): counters return to zero and
  // a second, differently sized run through the same stream is exact.
  const auto balanced = insert_buffers(gen::multiplier_circuit(3)).net;
  const engine::compiled_netlist compiled{balanced};
  engine::wave_stream stream{compiled, 3};

  const auto first_waves = random_waves(100, balanced.num_pis(), 41);
  for (const auto& wave : first_waves) {
    stream.push(wave);
  }
  const auto first = stream.finish();
  EXPECT_EQ(first.num_waves, first_waves.size());
  EXPECT_EQ(stream.waves_pushed(), 0u);
  EXPECT_EQ(stream.waves_completed(), 0u);

  // An immediate finish() on the reset stream is an empty result.
  const auto empty = stream.finish();
  EXPECT_EQ(empty.num_waves, 0u);
  EXPECT_EQ(empty.ticks, 0u);
  EXPECT_TRUE(empty.words.empty());

  const auto second_waves = random_waves(70, balanced.num_pis(), 43);
  for (const auto& wave : second_waves) {
    stream.push(wave);
  }
  const auto second = stream.finish();
  EXPECT_EQ(second.num_waves, second_waves.size());
  const auto reference =
      engine::run_waves_packed(compiled, engine::wave_batch::from_waves(
                                             second_waves, balanced.num_pis()), 3);
  EXPECT_EQ(second.words, reference.words);
  EXPECT_EQ(second.ticks, reference.ticks);
}

TEST(wave_batch, append_planes_ignores_stray_bits_above_num_waves) {
  // The caller's last chunk may carry garbage above num_waves; those bits
  // must not leak into waves appended later.
  const std::size_t num_pis = 3;
  std::vector<std::uint64_t> words(num_pis, ~std::uint64_t{0});  // all-ones planes
  engine::wave_batch batch{num_pis};
  batch.append_planes(words.data(), 1, 5);  // only waves 0..4 are real
  batch.append({false, false, false});
  EXPECT_EQ(batch.num_waves(), 6u);
  for (std::size_t i = 0; i < num_pis; ++i) {
    EXPECT_TRUE(batch.input(4, i));
    EXPECT_FALSE(batch.input(5, i)) << "stray bit leaked into pi " << i;
  }
}

TEST(wave_batch, clear_keeps_storage_reusable) {
  engine::wave_batch batch{4};
  const auto waves = random_waves(100, 4, 5);
  for (const auto& wave : waves) {
    batch.append(wave);
  }
  batch.clear();
  EXPECT_EQ(batch.num_waves(), 0u);
  EXPECT_TRUE(batch.empty());
  batch.append(waves[3]);
  EXPECT_EQ(batch.num_waves(), 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(batch.input(0, i), waves[3][i]);  // no stale bits from before clear
  }
}

TEST(packed_kernel, every_block_width_matches_per_chunk_eval) {
  // num_chunks 1..17 runs each kernel width W = 1..8 both as a block of its
  // own (num_chunks == W, or 8 for the full blocks) and as the tail block
  // after full 8-chunk blocks (num_chunks == 8 + W). Both views use a
  // plane stride above the chunk count. The reference is the generic
  // per-chunk evaluator on std::uint64_t, which shares no code with the
  // packed kernel.
  for (const std::uint64_t seed : {2024ull, 77ull}) {
    const auto balanced = insert_buffers(gen::random_mig({12, 150, 0.5, 10, seed})).net;
    for (const unsigned opt : {0u, 2u}) {
      const engine::compiled_netlist compiled{balanced, {.opt_level = opt}};
      if (opt == 2) {
        // Slot recycling lets an op overwrite one of its own operands; the
        // sweep must exercise that in-place case.
        const auto& ops = compiled.comb_ops();
        EXPECT_TRUE(std::any_of(ops.begin(), ops.end(), [](const auto& o) {
          return o.target == o.a >> 1 || o.target == o.b >> 1 || o.target == o.c >> 1;
        })) << "seed " << seed;
      }
      const std::size_t num_pis = compiled.num_pis();
      const std::size_t num_pos = compiled.num_pos();
      std::mt19937_64 rng{seed * 31 + opt};
      std::vector<std::uint64_t> scratch;
      std::vector<std::uint64_t> slots;
      for (std::size_t num_chunks = 1; num_chunks <= 17; ++num_chunks) {
        const std::size_t pi_stride = num_chunks + 3;
        const std::size_t po_stride = num_chunks + 1;
        std::vector<std::uint64_t> pis(num_pis * pi_stride);
        for (auto& w : pis) {
          w = rng();
        }
        std::vector<std::uint64_t> pos(num_pos * po_stride, 0);
        engine::eval_packed_planes(compiled, {pis.data(), pi_stride, num_pis, num_chunks},
                                   {pos.data(), po_stride, num_pos, num_chunks}, scratch);
        for (std::size_t c = 0; c < num_chunks; ++c) {
          compiled.eval([&](std::uint32_t i) { return pis[i * pi_stride + c]; },
                        std::uint64_t{0}, slots);
          for (std::size_t p = 0; p < num_pos; ++p) {
            ASSERT_EQ(pos[p * po_stride + c], compiled.po_value(slots, p))
                << "seed " << seed << ", opt " << opt << ", " << num_chunks << " chunks, chunk "
                << c << ", po " << p;
          }
        }
      }
    }
  }
}

TEST(packed_waves, unpack_matches_per_bit_output_probe) {
  const auto balanced = insert_buffers(gen::multiplier_circuit(4)).net;
  const engine::compiled_netlist compiled{balanced};
  const auto waves = random_waves(193, balanced.num_pis(), 55);  // partial last chunk
  const auto run = engine::run_waves_packed(
      compiled, engine::wave_batch::from_waves(waves, balanced.num_pis()), 3);
  const auto unpacked = run.unpack();
  ASSERT_EQ(unpacked.size(), waves.size());
  for (std::size_t w = 0; w < run.num_waves; ++w) {
    ASSERT_EQ(unpacked[w].size(), run.num_pos);
    for (std::size_t p = 0; p < run.num_pos; ++p) {
      ASSERT_EQ(unpacked[w][p], run.output(w, p)) << "wave " << w << " po " << p;
    }
  }
}

TEST(wave_stream, growth_and_compaction_match_packed) {
  const auto balanced = insert_buffers(gen::multiplier_circuit(4)).net;
  const engine::compiled_netlist compiled{balanced};
  constexpr std::size_t block = engine::wave_stream::block_waves;
  // The result stride starts at one block and doubles when outgrown. Counts
  // that fill a power-of-two number of blocks' chunks (511 and 512: one
  // block; 8 * block) end exactly at the stride and finish() hands the
  // buffer over as-is; every other count ends short of it and finish()
  // compacts the planes. 9 * block + 1 crosses four doublings. One stream
  // runs every count, so each run after the first also checks reuse after
  // finish().
  engine::wave_stream stream{compiled, 3};
  for (const std::size_t count : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                                  std::size_t{511}, std::size_t{512}, std::size_t{513},
                                  2 * block + 77, 8 * block, 9 * block + 1}) {
    const auto waves = random_waves(count, balanced.num_pis(), 57 + count);
    for (const auto& wave : waves) {
      stream.push(wave);
    }
    const auto result = stream.finish();
    const auto reference = engine::run_waves_packed(
        compiled, engine::wave_batch::from_waves(waves, balanced.num_pis()), 3);
    EXPECT_EQ(result.words, reference.words) << "count=" << count;
    EXPECT_EQ(result.num_waves, reference.num_waves) << "count=" << count;
    EXPECT_EQ(result.ticks, reference.ticks) << "count=" << count;
  }
}

TEST(wave_batch, append_validates_width_and_leaves_batch_usable) {
  engine::wave_batch batch{3};
  batch.append({true, false, true});
  EXPECT_THROW(batch.append({true}), std::invalid_argument);
  EXPECT_THROW(batch.append({true, false, true, false}), std::invalid_argument);
  EXPECT_THROW(batch.append({}), std::invalid_argument);
  // A rejected append must not corrupt the batch.
  EXPECT_EQ(batch.num_waves(), 1u);
  batch.append({false, true, false});
  EXPECT_EQ(batch.num_waves(), 2u);
  EXPECT_TRUE(batch.input(0, 0));
  EXPECT_FALSE(batch.input(1, 0));
  EXPECT_TRUE(batch.input(1, 1));
}

TEST(wave_stream, rejects_incoherent_netlists_and_bad_widths) {
  const auto net = gen::ripple_adder_circuit(5);
  const engine::compiled_netlist raw{net};
  EXPECT_THROW((engine::wave_stream{raw, 3}), std::invalid_argument);

  const auto balanced = insert_buffers(net).net;
  const engine::compiled_netlist compiled{balanced};
  EXPECT_THROW((engine::wave_stream{compiled, 0}), std::invalid_argument);
  engine::wave_stream stream{compiled, 3};
  EXPECT_THROW(stream.push({true}), std::invalid_argument);
}

// ---------------------------------------------- plane-major data plane ---

TEST(wave_batch, plane_view_exposes_the_transposed_words) {
  const std::size_t num_pis = 5;
  const auto waves = random_waves(200, num_pis, 3001);
  const auto batch = engine::wave_batch::from_waves(waves, num_pis);

  const auto view = batch.view();
  EXPECT_EQ(view.num_signals, num_pis);
  EXPECT_EQ(view.num_chunks, batch.num_chunks());
  for (std::size_t i = 0; i < num_pis; ++i) {
    ASSERT_EQ(view.plane(i), batch.plane(i));
    for (std::size_t w = 0; w < waves.size(); ++w) {
      ASSERT_EQ(((batch.plane(i)[w / 64] >> (w % 64)) & 1u) != 0, waves[w][i])
          << "pi " << i << " wave " << w;
    }
  }

  // A chunk slice is the same planes at an offset base (zero-copy sharding).
  const auto slice = view.slice(1, 2);
  EXPECT_EQ(slice.num_chunks, 2u);
  for (std::size_t i = 0; i < num_pis; ++i) {
    EXPECT_EQ(slice.plane(i), view.plane(i) + 1);
  }
}

/// Tail-chunk masking contract: at every non-multiple-of-64 wave count,
/// per-bool append, plane-major bulk append, plane adoption and result
/// unpack must mask identically — no stray bits above num_waves anywhere.
TEST(wave_batch, tail_chunks_mask_identically_across_ingestion_paths) {
  const std::size_t num_pis = 6;
  for (const std::size_t num_waves : {1ull, 63ull, 64ull, 65ull, 511ull}) {
    const auto waves = random_waves(num_waves, num_pis, num_waves * 101 + 9);
    const auto reference = engine::wave_batch::from_waves(waves, num_pis);
    ASSERT_EQ(reference.num_chunks(), (num_waves + 63) / 64);

    // Poison the unused tail bits of the bulk input: they must be ignored.
    auto plane_major =
        std::vector<std::uint64_t>(reference.num_chunks() * num_pis, 0);
    for (std::size_t i = 0; i < num_pis; ++i) {
      std::copy_n(reference.plane(i), reference.num_chunks(),
                  plane_major.begin() + static_cast<std::ptrdiff_t>(i * reference.num_chunks()));
    }
    if (num_waves % 64 != 0) {
      const std::uint64_t poison = ~((std::uint64_t{1} << (num_waves % 64)) - 1);
      for (std::size_t i = 0; i < num_pis; ++i) {
        plane_major[i * reference.num_chunks() + reference.num_chunks() - 1] |= poison;
      }
    }

    engine::wave_batch from_planes{num_pis};
    from_planes.append_planes(plane_major.data(), reference.num_chunks(), num_waves);
    const auto adopted =
        engine::wave_batch::from_plane_words(plane_major, num_pis, num_waves);

    for (const engine::wave_batch* batch : {&std::as_const(from_planes), &adopted}) {
      ASSERT_EQ(batch->num_waves(), num_waves);
      for (std::size_t i = 0; i < num_pis; ++i) {
        for (std::size_t c = 0; c < batch->num_chunks(); ++c) {
          ASSERT_EQ(batch->plane(i)[c], reference.plane(i)[c])
              << num_waves << " waves, pi " << i << " chunk " << c;
        }
      }
      // Appending right after the bulk ingest lands on clean bits.
      auto copy = *batch;
      copy.append(waves[0]);
      for (std::size_t i = 0; i < num_pis; ++i) {
        ASSERT_EQ(copy.input(num_waves, i), waves[0][i]) << num_waves << " waves";
      }
    }

    // unpack() at the same wave counts: exactly num_waves rows, bit-exact.
    const auto balanced = insert_buffers(gen::parity_circuit(num_pis)).net;
    const engine::compiled_netlist compiled{balanced};
    const auto run = engine::run_waves_packed(compiled, reference, 3);
    const auto unpacked = run.unpack();
    ASSERT_EQ(unpacked.size(), num_waves);
    for (std::size_t w = 0; w < num_waves; ++w) {
      for (std::size_t p = 0; p < run.num_pos; ++p) {
        ASSERT_EQ(unpacked[w][p], run.output(w, p)) << num_waves << " waves, wave " << w;
      }
    }
  }
}

TEST(wave_batch, append_planes_matches_per_wave_append) {
  const std::size_t num_pis = 9;
  const auto waves = random_waves(150, num_pis, 71);
  const auto packed = engine::wave_batch::from_waves(waves, num_pis);

  // Aligned (prefix 0 and 64) and unaligned bulk appends: a few per-bool
  // waves first, then the planes spliced at every offset class.
  for (const std::size_t prefix : {0ull, 1ull, 37ull, 63ull, 64ull, 65ull, 100ull}) {
    engine::wave_batch spliced{num_pis};
    for (std::size_t w = 0; w < prefix; ++w) {
      spliced.append(waves[w]);
    }
    spliced.append_planes(packed.view().planes, packed.view().plane_stride, waves.size());
    ASSERT_EQ(spliced.num_waves(), prefix + waves.size());
    for (std::size_t w = 0; w < prefix + waves.size(); ++w) {
      const auto& expect = w < prefix ? waves[w] : waves[w - prefix];
      for (std::size_t i = 0; i < num_pis; ++i) {
        ASSERT_EQ(spliced.input(w, i), expect[i]) << "prefix " << prefix << " wave " << w;
      }
    }
    // Appending after a bulk append still lines up.
    spliced.append(waves[0]);
    for (std::size_t i = 0; i < num_pis; ++i) {
      ASSERT_EQ(spliced.input(prefix + waves.size(), i), waves[0][i]);
    }
  }
}

TEST(wave_batch, append_planes_rejects_a_short_plane_stride) {
  // 130 waves need 3 chunk words per plane; a stride of 2 would make each
  // plane read its neighbour's words and the last read past the buffer.
  const std::size_t num_pis = 4;
  const std::vector<std::uint64_t> planes(num_pis * 2, 0);
  engine::wave_batch batch{num_pis};
  EXPECT_THROW(batch.append_planes(planes.data(), 2, 130), std::invalid_argument);
  EXPECT_EQ(batch.num_waves(), 0u);
  batch.append_planes(planes.data(), 2, 128);  // 2 chunks: the stride fits
  EXPECT_EQ(batch.num_waves(), 128u);
}

TEST(wave_batch, from_plane_words_adopts_and_validates) {
  const std::size_t num_pis = 4;
  const auto waves = random_waves(70, num_pis, 555);
  const auto reference = engine::wave_batch::from_waves(waves, num_pis);

  std::vector<std::uint64_t> planes(reference.num_chunks() * num_pis);
  for (std::size_t i = 0; i < num_pis; ++i) {
    std::copy_n(reference.plane(i), reference.num_chunks(),
                planes.begin() + static_cast<std::ptrdiff_t>(i * reference.num_chunks()));
  }
  const auto adopted = engine::wave_batch::from_plane_words(planes, num_pis, waves.size());
  ASSERT_EQ(adopted.num_waves(), waves.size());
  for (std::size_t w = 0; w < waves.size(); ++w) {
    for (std::size_t i = 0; i < num_pis; ++i) {
      ASSERT_EQ(adopted.input(w, i), waves[w][i]);
    }
  }

  // Size must be exactly chunks * num_pis.
  EXPECT_THROW((void)engine::wave_batch::from_plane_words(
                   std::vector<std::uint64_t>(num_pis * 2 + 1, 0), num_pis, 70),
               std::invalid_argument);
  EXPECT_THROW((void)engine::wave_batch::from_plane_words({}, num_pis, 70),
               std::invalid_argument);
}

TEST(packed_waves, result_tail_bits_above_num_waves_are_zero) {
  // A complemented output drives the kernel's tail lanes to 1 (the batch's
  // zeroed tail inputs, inverted); the front-ends must mask them so result
  // views uphold the containers' tail-zero invariant.
  mig_network net;
  const signal a = net.create_pi();
  net.create_po(!a);
  const engine::compiled_netlist compiled{net};

  for (const std::size_t num_waves : {1ull, 63ull, 65ull, 511ull}) {
    const auto waves = random_waves(num_waves, 1, num_waves);
    const auto batch = engine::wave_batch::from_waves(waves, 1);
    const auto run = engine::run_waves_packed(compiled, batch, 3);
    const std::size_t tail = num_waves % 64;
    ASSERT_NE(tail, 0u);
    const std::uint64_t above = ~((std::uint64_t{1} << tail) - 1);
    for (std::size_t p = 0; p < run.num_pos; ++p) {
      EXPECT_EQ(run.plane(p)[run.num_chunks() - 1] & above, 0u)
          << num_waves << " waves, po " << p;
    }

    engine::wave_stream stream{compiled, 3};
    for (const auto& wave : waves) {
      stream.push(wave);
    }
    const auto streamed = stream.finish();
    for (std::size_t p = 0; p < streamed.num_pos; ++p) {
      EXPECT_EQ(streamed.plane(p)[streamed.num_chunks() - 1] & above, 0u)
          << num_waves << " waves (stream), po " << p;
    }
  }
}

TEST(engine_scalar, matches_interpreter_semantics_on_unbalanced_nets) {
  // The engine's tick program must preserve wave interference, not paper
  // over it: compare against the combinational reference and expect a
  // mismatch, exactly like the interpreter-era test.
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  signal deep = net.create_maj(a, b, c);
  for (int i = 0; i < 4; ++i) {
    deep = net.create_maj(deep, b, !c);
  }
  net.create_po(net.create_maj(deep, a, b));

  std::vector<std::vector<bool>> waves;
  for (int w = 0; w < 8; ++w) {
    waves.emplace_back(3, w % 2 == 1);
  }
  const auto run = run_waves(net, waves, 3);
  std::vector<std::vector<bool>> reference;
  for (const auto& wave : waves) {
    reference.push_back(simulate_pattern(net, wave));
  }
  EXPECT_NE(run.outputs, reference);
}

TEST(engine_scalar, run_waves_validates_inputs) {
  mig_network net;
  net.create_pi();
  net.create_po(constant0);
  EXPECT_THROW(run_waves(net, {{true, false}}, 3), std::invalid_argument);
  EXPECT_THROW(run_waves(net, {{true}}, 0), std::invalid_argument);
  level_map bad_schedule;
  bad_schedule.level.assign(1, 0);  // wrong size
  EXPECT_THROW(run_waves(net, {{true}}, 3, bad_schedule), std::invalid_argument);
}

TEST(engine_scalar, simulate_pattern_validates_width) {
  mig_network net;
  net.create_pi();
  net.create_pi();
  net.create_po(constant1);
  EXPECT_THROW(simulate_pattern(net, {true}), std::invalid_argument);
  EXPECT_THROW(simulate_pattern(net, {true, false, true}), std::invalid_argument);
}

// ------------------------------------------------- vector<bool> boundary ---

/// Copies of `waves` whose vector<bool> storage is all ones above size():
/// what a shrinking resize leaves behind on libstdc++, where
/// vector<bool>(130, true).resize(65) keeps both storage words all-ones.
std::vector<std::vector<bool>> with_stale_padding(const std::vector<std::vector<bool>>& waves) {
  std::vector<std::vector<bool>> stale;
  stale.reserve(waves.size());
  for (const auto& wave : waves) {
    std::vector<bool> row(wave.size() + 130, true);
    row.resize(wave.size());
    for (std::size_t i = 0; i < wave.size(); ++i) {
      row[i] = wave[i];
    }
    stale.push_back(std::move(row));
  }
  return stale;
}

/// libstdc++ compares vector<bool>s a word at a time in some versions, so
/// unpack() must leave the storage bits above size() zero. Other standard
/// libraries only see per-bit writes: nothing to check there.
bool padding_is_zero(const std::vector<bool>& row) {
#if defined(__GLIBCXX__)
  if (row.size() % 64 == 0) {
    return true;
  }
  const auto last = static_cast<std::uint64_t>(row.begin()._M_p[row.size() / 64]);
  return (last >> (row.size() % 64)) == 0;
#else
  (void)row;
  return true;
#endif
}

void expect_same_planes(const engine::wave_batch& got, const engine::wave_batch& want,
                        const std::string& what) {
  ASSERT_EQ(got.num_waves(), want.num_waves()) << what;
  ASSERT_EQ(got.num_pis(), want.num_pis()) << what;
  for (std::size_t i = 0; i < want.num_pis(); ++i) {
    for (std::size_t c = 0; c < want.num_chunks(); ++c) {
      ASSERT_EQ(got.plane(i)[c], want.plane(i)[c]) << what << ": pi " << i << " chunk " << c;
    }
  }
}

TEST(packed_wave_result, unpack_rejects_words_that_do_not_match_the_shape) {
  // Three POs over 200 waves need 3 * 4 words; two words used to be read
  // past their end.
  engine::packed_wave_result result;
  result.num_pos = 3;
  result.num_waves = 200;
  result.words.assign(2, ~std::uint64_t{0});
  EXPECT_THROW((void)result.unpack(), std::invalid_argument);
  result.words.assign(3 * 4 + 1, 0);
  EXPECT_THROW((void)result.unpack(), std::invalid_argument);
  result.num_waves = 0;
  EXPECT_THROW((void)result.unpack(), std::invalid_argument);

  result.num_waves = 200;
  result.words.assign(3 * 4, 0);
  EXPECT_EQ(result.unpack().size(), 200u);
  result.num_waves = 0;
  result.words.clear();
  EXPECT_TRUE(result.unpack().empty());
}

TEST(packed_wave_result, unpack_rows_equal_a_per_bit_reference_for_every_shape) {
  std::mt19937_64 rng{2024};
  for (const std::size_t num_pos : {1ull, 63ull, 64ull, 65ull, 128ull, 130ull}) {
    for (const std::size_t num_waves :
         {0ull, 1ull, 63ull, 64ull, 65ull, 511ull, 512ull, 513ull, 1000ull}) {
      engine::packed_wave_result result;
      result.num_pos = num_pos;
      result.num_waves = num_waves;
      const std::size_t chunks = result.num_chunks();
      result.words.resize(num_pos * chunks);
      for (auto& word : result.words) {
        word = rng();
      }
      // Results uphold the tail-zero invariant (see mask_result_tail).
      if (num_waves % 64 != 0) {
        const std::uint64_t live = (std::uint64_t{1} << (num_waves % 64)) - 1;
        for (std::size_t p = 0; p < num_pos; ++p) {
          result.words[p * chunks + chunks - 1] &= live;
        }
      }
      const auto rows = result.unpack();
      ASSERT_EQ(rows.size(), num_waves);
      for (std::size_t w = 0; w < num_waves; ++w) {
        std::vector<bool> reference(num_pos);
        for (std::size_t p = 0; p < num_pos; ++p) {
          reference[p] = result.output(w, p);
        }
        ASSERT_TRUE(rows[w] == reference)
            << num_pos << " POs, " << num_waves << " waves, wave " << w;
        ASSERT_TRUE(padding_is_zero(rows[w]))
            << num_pos << " POs, " << num_waves << " waves, wave " << w;
      }
    }
  }
}

TEST(wave_batch, stale_bits_above_size_never_reach_the_planes) {
  const auto balanced = insert_buffers(gen::ripple_adder_circuit(40)).net;
  const std::size_t num_pis = balanced.num_pis();
  ASSERT_GT(num_pis % 64, 0u);  // stale bits share the last row word
  const engine::compiled_netlist compiled{balanced};
  // Two full stream blocks plus a partial one.
  const auto waves = random_waves(2 * engine::wave_stream::block_waves + 100, num_pis, 1301);
  const auto stale = with_stale_padding(waves);
  const auto fresh = engine::wave_batch::from_waves(waves, num_pis);
  const auto reference = engine::run_waves_packed(compiled, fresh, 3);

  expect_same_planes(engine::wave_batch::from_waves(stale, num_pis), fresh, "from_waves");
  engine::wave_batch appended{num_pis};
  for (const auto& wave : stale) {
    appended.append(wave);
  }
  expect_same_planes(appended, fresh, "append");

  // append_rows: the same rows with every bit at or above num_pis set, at
  // each offset class, against a batch of fresh waves.
  const std::size_t row_words = (num_pis + 63) / 64;
  std::vector<std::uint64_t> rows(waves.size() * row_words, 0);
  for (std::size_t w = 0; w < waves.size(); ++w) {
    for (std::size_t i = 0; i < num_pis; ++i) {
      rows[w * row_words + i / 64] |= static_cast<std::uint64_t>(waves[w][i]) << (i % 64);
    }
    rows[w * row_words + row_words - 1] |= ~((std::uint64_t{1} << (num_pis % 64)) - 1);
  }
  for (const std::size_t offset : {0ull, 1ull, 63ull, 64ull}) {
    const std::vector<std::vector<bool>> prefix(waves.begin(),
                                                waves.begin() + static_cast<std::ptrdiff_t>(offset));
    auto batch = engine::wave_batch::from_waves(prefix, num_pis);
    batch.append_rows(rows.data(), row_words, waves.size() - offset);
    auto want_waves = prefix;
    want_waves.insert(want_waves.end(), waves.begin(), waves.end() - static_cast<std::ptrdiff_t>(offset));
    expect_same_planes(batch, engine::wave_batch::from_waves(want_waves, num_pis),
                       "append_rows at offset " + std::to_string(offset));
  }

  engine::wave_stream stream{compiled, 3};
  for (const auto& wave : stale) {
    stream.push(wave);
  }
  const auto streamed = stream.finish();
  EXPECT_EQ(streamed.words, reference.words) << "wave_stream";
  EXPECT_EQ(streamed.unpack(), reference.unpack()) << "wave_stream";
}

TEST(wave_batch, append_rows_validates_the_row_width) {
  engine::wave_batch batch{65};
  const std::vector<std::uint64_t> rows(4, 0);
  EXPECT_THROW(batch.append_rows(rows.data(), 1, 2), std::invalid_argument);
  EXPECT_EQ(batch.num_waves(), 0u);
  batch.append_rows(rows.data(), 2, 2);
  EXPECT_EQ(batch.num_waves(), 2u);
  batch.append_rows(nullptr, 2, 0);
  EXPECT_EQ(batch.num_waves(), 2u);

  // A zero-PI batch only counts waves.
  engine::wave_batch empty{0};
  empty.append_rows(nullptr, 0, 70);
  EXPECT_EQ(empty.num_waves(), 70u);
}

TEST(wave_stream, counters_keep_their_meaning_while_rows_are_staged) {
  const auto balanced = insert_buffers(gen::ripple_adder_circuit(40)).net;
  const engine::compiled_netlist compiled{balanced};
  constexpr std::size_t block = engine::wave_stream::block_waves;
  const auto waves = random_waves(block + 37, balanced.num_pis(), 1402);
  engine::wave_stream stream{compiled, 3};
  for (std::size_t w = 0; w < waves.size(); ++w) {
    stream.push(waves[w]);
    ASSERT_EQ(stream.waves_pushed(), w + 1);
    ASSERT_EQ(stream.waves_completed(), w + 1 < block ? 0u : block) << "wave " << w;
  }
  // A rejected push stages nothing.
  EXPECT_THROW(stream.push({true}), std::invalid_argument);
  EXPECT_EQ(stream.waves_pushed(), waves.size());
  const auto result = stream.finish();
  EXPECT_EQ(result.num_waves, waves.size());
  EXPECT_EQ(result.unpack(), run_waves(balanced, waves, 3).outputs);
}

}  // namespace
}  // namespace wavemig
