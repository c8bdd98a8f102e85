#include "wavemig/engine/parallel_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/arith.hpp"
#include "wavemig/gen/random_mig.hpp"

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

/// Thread counts the suite sweeps: 1, 2, 4 plus the hardware concurrency,
/// capped at 8 so sanitizer (TSan/ASan) CI runs stay fast.
std::vector<unsigned> sweep_thread_counts() {
  std::vector<unsigned> counts{1, 2, 4};
  const unsigned hw = std::min(8u, std::max(1u, std::thread::hardware_concurrency()));
  if (hw != 1 && hw != 2 && hw != 4) {
    counts.push_back(hw);
  }
  return counts;
}

void expect_bit_identical(const engine::packed_wave_result& got,
                          const engine::packed_wave_result& want, const std::string& what) {
  EXPECT_EQ(got.words, want.words) << what;
  EXPECT_EQ(got.num_waves, want.num_waves) << what;
  EXPECT_EQ(got.num_pos, want.num_pos) << what;
  EXPECT_EQ(got.ticks, want.ticks) << what;
  EXPECT_EQ(got.latency_ticks, want.latency_ticks) << what;
  EXPECT_EQ(got.initiation_interval, want.initiation_interval) << what;
  EXPECT_EQ(got.waves_in_flight, want.waves_in_flight) << what;
}

/// The tentpole property: sharded execution is bit-identical to the
/// single-threaded packed path for every thread count and for chunk counts
/// that do and do not divide into full 64-wave chunks.
TEST(parallel_waves, bit_identical_to_packed_across_threads_and_chunks) {
  const auto net = gen::random_mig({7, 90, 0.4, 7, 5});
  const auto balanced = insert_buffers(net);
  const engine::compiled_netlist compiled{balanced.net, balanced.schedule};
  const unsigned phases = 3;

  for (const unsigned threads : sweep_thread_counts()) {
    engine::parallel_executor executor{threads};
    ASSERT_EQ(executor.num_threads(), threads);
    for (const std::size_t num_waves : {1ull, 63ull, 64ull, 65ull, 130ull, 1000ull}) {
      const auto batch = engine::wave_batch::from_waves(
          random_waves(num_waves, balanced.net.num_pis(), num_waves * 31 + threads),
          balanced.net.num_pis());
      const auto reference = engine::run_waves_packed(compiled, batch, phases);
      const auto parallel = engine::run_waves_parallel(compiled, batch, phases, executor);
      expect_bit_identical(parallel, reference,
                           "threads=" + std::to_string(threads) +
                               " waves=" + std::to_string(num_waves));
    }
  }
}

TEST(parallel_waves, empty_batch_and_validation) {
  const auto balanced = insert_buffers(gen::ripple_adder_circuit(4)).net;
  const engine::compiled_netlist compiled{balanced};
  engine::parallel_executor executor{2};

  const auto run =
      engine::run_waves_parallel(compiled, engine::wave_batch{balanced.num_pis()}, 3, executor);
  EXPECT_EQ(run.num_waves, 0u);
  EXPECT_EQ(run.ticks, 0u);

  EXPECT_THROW(
      engine::run_waves_parallel(compiled, engine::wave_batch{balanced.num_pis()}, 0, executor),
      std::invalid_argument);
  EXPECT_THROW(engine::run_waves_parallel(compiled, engine::wave_batch{balanced.num_pis() + 1},
                                          3, executor),
               std::invalid_argument);

  const engine::compiled_netlist incoherent{gen::ripple_adder_circuit(4)};
  EXPECT_THROW(engine::run_waves_parallel(
                   incoherent, engine::wave_batch{incoherent.num_pis()}, 2, executor),
               std::invalid_argument);
}

TEST(parallel_executor, for_each_covers_every_task_exactly_once) {
  engine::parallel_executor executor{4};
  constexpr std::size_t num_tasks = 500;
  std::vector<std::atomic<int>> hits(num_tasks);
  executor.for_each(num_tasks, [&](std::size_t task, unsigned worker) {
    ASSERT_LT(worker, executor.num_threads());
    hits[task].fetch_add(1);
  });
  for (std::size_t t = 0; t < num_tasks; ++t) {
    EXPECT_EQ(hits[t].load(), 1) << "task " << t;
  }
}

TEST(parallel_executor, for_each_propagates_exceptions) {
  engine::parallel_executor executor{3};
  EXPECT_THROW(executor.for_each(64,
                                 [&](std::size_t task, unsigned) {
                                   if (task == 17) {
                                     throw std::runtime_error{"boom"};
                                   }
                                 }),
               std::runtime_error);
  // The pool survives a throwing batch and keeps serving.
  std::atomic<std::size_t> count{0};
  executor.for_each(10, [&](std::size_t, unsigned) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10u);
}

TEST(parallel_executor, submit_group_completes_without_blocking_the_caller) {
  engine::parallel_executor executor{4};
  constexpr std::size_t num_tasks = 300;
  std::vector<std::atomic<int>> hits(num_tasks);
  const auto group = executor.submit_group(num_tasks, [&](std::size_t task, unsigned worker) {
    ASSERT_LT(worker, executor.num_threads());
    hits[task].fetch_add(1);
  });
  ASSERT_TRUE(group.valid());
  group.wait();
  EXPECT_TRUE(group.done());
  EXPECT_EQ(group.error(), nullptr);
  for (std::size_t t = 0; t < num_tasks; ++t) {
    EXPECT_EQ(hits[t].load(), 1) << "task " << t;
  }
}

TEST(parallel_executor, submit_group_fires_on_complete_exactly_once) {
  engine::parallel_executor executor{3};
  std::atomic<int> fired{0};
  std::promise<std::exception_ptr> completion;
  auto completed = completion.get_future();
  (void)executor.submit_group(
      64, [](std::size_t, unsigned) {},
      [&](std::exception_ptr error) {
        fired.fetch_add(1);
        completion.set_value(error);
      });
  EXPECT_EQ(completed.get(), nullptr);
  EXPECT_EQ(fired.load(), 1);
}

TEST(parallel_executor, empty_group_completes_inline) {
  engine::parallel_executor executor{2};
  std::atomic<int> fired{0};
  const auto group = executor.submit_group(
      0, [](std::size_t, unsigned) { FAIL() << "no task should run"; },
      [&](std::exception_ptr error) {
        EXPECT_EQ(error, nullptr);
        fired.fetch_add(1);
      });
  // A zero-task group is done — and its completion has fired — before
  // submit_group returns, on the calling thread.
  EXPECT_TRUE(group.done());
  EXPECT_EQ(fired.load(), 1);
  group.wait();
  EXPECT_EQ(group.error(), nullptr);
}

TEST(parallel_executor, submit_group_captures_the_error_and_cancels) {
  engine::parallel_executor executor{2};
  std::atomic<std::size_t> ran{0};
  std::atomic<bool> thrown{false};
  std::promise<std::exception_ptr> completion;
  auto completed = completion.get_future();
  (void)executor.submit_group(
      256,
      [&](std::size_t, unsigned) {
        // The first task to actually execute throws — index-independent, so
        // no steal order can run the whole group before the error. The rest
        // are slowed down enough that cancellation must catch the tail.
        if (!thrown.exchange(true)) {
          throw std::runtime_error{"boom"};
        }
        std::this_thread::sleep_for(std::chrono::microseconds{200});
        ran.fetch_add(1);
      },
      [&](std::exception_ptr error) { completion.set_value(error); });
  const std::exception_ptr error = completed.get();
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  // Cancellation skips tasks not yet started: the tail of the group must
  // never have run.
  EXPECT_LT(ran.load(), 255u);
  // The pool survives and keeps serving.
  std::atomic<std::size_t> count{0};
  executor.for_each(10, [&](std::size_t, unsigned) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10u);
}

TEST(parallel_executor, concurrent_groups_from_many_threads_all_complete) {
  engine::parallel_executor executor{4};
  constexpr std::size_t submitters = 6;
  constexpr std::size_t groups_each = 20;
  constexpr std::size_t tasks_per_group = 37;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> threads;
  threads.reserve(submitters);
  for (std::size_t s = 0; s < submitters; ++s) {
    threads.emplace_back([&] {
      for (std::size_t g = 0; g < groups_each; ++g) {
        const auto group = executor.submit_group(
            tasks_per_group, [&](std::size_t, unsigned) { total.fetch_add(1); });
        group.wait();
        EXPECT_EQ(group.error(), nullptr);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(total.load(), submitters * groups_each * tasks_per_group);
}

TEST(batch_session, caches_compiled_netlists_per_network_and_phases) {
  engine::parallel_executor executor{2};
  engine::batch_session session{executor};

  const auto adder = gen::ripple_adder_circuit(6);
  const auto mult = gen::multiplier_circuit(3);
  const auto adder_waves = random_waves(100, adder.num_pis(), 1);
  const auto mult_waves = random_waves(100, mult.num_pis(), 2);
  const auto adder_batch = engine::wave_batch::from_waves(adder_waves, adder.num_pis());
  const auto mult_batch = engine::wave_batch::from_waves(mult_waves, mult.num_pis());

  const auto first = session.run(adder, adder_batch, 3);
  EXPECT_EQ(session.stats().misses, 1u);
  EXPECT_EQ(session.stats().hits, 0u);

  // Interleave a different circuit, then come back: no re-lowering.
  const auto other = session.run(mult, mult_batch, 3);
  const auto again = session.run(adder, adder_batch, 3);
  const auto stats = session.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 2u);
  expect_bit_identical(again, first, "cached re-run");

  // A different phase count is a separate program key.
  (void)session.run(adder, adder_batch, 4);
  EXPECT_EQ(session.stats().misses, 3u);

  // Results equal the packed path on the session-balanced network.
  const auto balanced = insert_buffers(adder);
  const engine::compiled_netlist compiled{balanced.net, balanced.schedule};
  expect_bit_identical(first, engine::run_waves_packed(compiled, adder_batch, 3),
                       "session vs packed");
  const auto balanced_mult = insert_buffers(mult);
  const engine::compiled_netlist compiled_mult{balanced_mult.net, balanced_mult.schedule};
  expect_bit_identical(other, engine::run_waves_packed(compiled_mult, mult_batch, 3),
                       "session vs packed (mult)");
}

TEST(batch_session, stats_report_resident_op_and_slot_counts) {
  engine::parallel_executor executor{2};
  engine::batch_session session{executor, {}, {.max_entries = 1}};
  const auto first = gen::random_mig({10, 120, 0.5, 8, 42});
  const auto second = gen::random_mig({12, 200, 0.5, 8, 99});

  const auto first_program = session.compile(first, 3);
  auto stats = session.stats();
  ASSERT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.comb_ops, 0u);
  EXPECT_EQ(stats.comb_ops, first_program->num_comb_ops());
  EXPECT_EQ(stats.comb_slots, first_program->comb_slot_count());

  // The totals follow the resident programs: evicting the first program
  // drops its ops and slots.
  const auto second_program = session.compile(second, 3);
  stats = session.stats();
  ASSERT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.comb_ops, second_program->num_comb_ops());
  EXPECT_EQ(stats.comb_slots, second_program->comb_slot_count());
}

TEST(batch_session, concurrent_sessions_share_one_executor) {
  engine::parallel_executor executor{4};
  engine::batch_session session{executor};

  const auto adder = gen::ripple_adder_circuit(5);
  const auto parity = gen::parity_circuit(12);
  const auto adder_batch =
      engine::wave_batch::from_waves(random_waves(200, adder.num_pis(), 7), adder.num_pis());
  const auto parity_batch = engine::wave_batch::from_waves(
      random_waves(200, parity.num_pis(), 8), parity.num_pis());

  const auto balanced_adder = insert_buffers(adder);
  const auto balanced_parity = insert_buffers(parity);
  const engine::compiled_netlist ref_adder{balanced_adder.net, balanced_adder.schedule};
  const engine::compiled_netlist ref_parity{balanced_parity.net, balanced_parity.schedule};
  const auto want_adder = engine::run_waves_packed(ref_adder, adder_batch, 3);
  const auto want_parity = engine::run_waves_packed(ref_parity, parity_batch, 3);

  constexpr int rounds = 8;
  std::atomic<int> mismatches{0};
  auto hammer = [&](const mig_network& net, const engine::wave_batch& batch,
                    const engine::packed_wave_result& want) {
    for (int r = 0; r < rounds; ++r) {
      const auto got = session.run(net, batch, 3);
      if (got.words != want.words || got.num_waves != want.num_waves) {
        mismatches.fetch_add(1);
      }
    }
  };
  std::thread a{[&] { hammer(adder, adder_batch, want_adder); }};
  std::thread b{[&] { hammer(parity, parity_batch, want_parity); }};
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = session.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(2 * rounds));
}

TEST(network_fingerprint, distinguishes_structure_not_names) {
  mig_network a;
  a.create_po(a.create_maj(a.create_pi("x"), a.create_pi("y"), a.create_pi("z")), "f");
  mig_network b;
  b.create_po(b.create_maj(b.create_pi("p"), b.create_pi("q"), b.create_pi("r")), "g");
  EXPECT_EQ(engine::network_fingerprint(a), engine::network_fingerprint(b))
      << "names must not affect the program key";

  mig_network c;
  const signal x = c.create_pi();
  const signal y = c.create_pi();
  const signal z = c.create_pi();
  c.create_po(!c.create_maj(x, y, z));  // complemented output
  EXPECT_NE(engine::network_fingerprint(a), engine::network_fingerprint(c));
}

}  // namespace
}  // namespace wavemig
