// Throughput comparison of the three wave-simulation paths on a balanced
// 64-bit ripple-carry adder netlist (the acceptance benchmark of the engine
// refactor):
//
//   seed scalar — the interpreter the repo shipped with: per tick, walk
//                 every component of the mig_network, chase fan-ins through
//                 the node table, snapshot a vector<bool> of the full state.
//   engine scalar — the oracle's tick program, lowered per call:
//                 per-clock-phase firing lists, flat fan-in refs, in-place
//                 byte state.
//   engine packed — run_waves_packed: 64 independent waves per 64-bit word
//                 streamed through the folded majority-only program.
//   engine parallel — run_waves_parallel: the packed chunks sharded across
//                 a persistent worker pool (thread-scaling sweep at 1, 2, 4
//                 and hardware-concurrency threads).
//   serving async — serving_session: the async submission front-end
//                 (futures over a multi-producer queue, compiled-netlist
//                 cache), measured at steady state, plus a cache-churn
//                 sweep that hammers a byte-bounded cache with a rotating
//                 circuit mix and verifies the bound is never exceeded.
//
//   $ ./bench/perf_wave_engine [--json] [num_waves]

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/serving.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/arith.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/pipeline.hpp"
#include "wavemig/tech_scenario.hpp"
#include "wavemig/wave_simulator.hpp"

using namespace wavemig;

namespace {

/// Verbatim port of the seed's run_waves interpreter (pre-engine), kept here
/// as the baseline the acceptance criterion is measured against.
wave_run_result seed_scalar_run_waves(const mig_network& net,
                                      const std::vector<std::vector<bool>>& waves,
                                      unsigned phases, const level_map& levels) {
  const std::uint32_t depth = levels.depth;

  wave_run_result result;
  result.initiation_interval = phases;
  result.latency_ticks = depth > 0 ? depth : 1;
  result.waves_in_flight = (depth + phases - 1) / phases;
  result.outputs.assign(waves.size(), {});
  if (waves.empty()) {
    return result;
  }

  auto sample_tick = [&](std::uint64_t w, std::uint32_t level) -> std::uint64_t {
    return w * phases + (level > 0 ? level - 1 : 0);
  };

  std::uint64_t last_tick = 0;
  const std::uint64_t last_wave = waves.size() - 1;
  for (const auto& po : net.pos()) {
    if (net.is_constant(po.driver.index())) {
      continue;
    }
    last_tick = std::max(last_tick, sample_tick(last_wave, levels[po.driver.index()]));
  }

  std::vector<bool> value(net.num_nodes(), false);
  std::vector<bool> snapshot;

  auto read = [&](const std::vector<bool>& state, signal s) {
    const bool v = state[s.index()];
    return s.is_complemented() ? !v : v;
  };

  for (std::uint64_t t = 0; t <= last_tick; ++t) {
    const std::uint64_t wave = t / phases;
    if (t % phases == 0 && wave < waves.size()) {
      for (std::size_t i = 0; i < net.num_pis(); ++i) {
        value[net.pis()[i]] = waves[wave][i];
      }
    }

    snapshot = value;
    const std::uint32_t fired = static_cast<std::uint32_t>(t % phases);
    net.foreach_component([&](node_index n) {
      const std::uint32_t lvl = levels[n];
      if (lvl == 0 || (lvl - 1) % phases != fired) {
        return;
      }
      const auto fis = net.fanins(n);
      if (net.is_majority(n)) {
        const bool a = read(snapshot, fis[0]);
        const bool b = read(snapshot, fis[1]);
        const bool c = read(snapshot, fis[2]);
        value[n] = (a && b) || (b && c) || (a && c);
      } else {
        value[n] = read(snapshot, fis[0]);
      }
    });

    for (std::size_t p = 0; p < net.num_pos(); ++p) {
      const signal driver = net.po_signal(p);
      if (net.is_constant(driver.index())) {
        continue;
      }
      const std::uint32_t lvl = levels[driver.index()];
      if (t < (lvl > 0 ? lvl - 1 : 0)) {
        continue;
      }
      const std::uint64_t w = (t - (lvl > 0 ? lvl - 1 : 0)) / phases;
      if (w < waves.size() && t == sample_tick(w, lvl)) {
        auto& out = result.outputs[w];
        if (out.empty()) {
          out.assign(net.num_pos(), false);
        }
        out[p] = read(value, driver);
      }
    }
  }

  result.ticks = last_tick + 1;
  return result;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Repeats `fn` (one pass over `waves_per_pass` waves) until enough wall
/// time accumulated for a stable rate, and returns waves per second.
template <typename Fn>
double measure_wps(std::size_t waves_per_pass, Fn&& fn) {
  fn();  // warm-up: scratch allocation, cache residency
  std::size_t passes = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++passes;
    elapsed = seconds_since(start);
  } while (elapsed < 0.2);
  return static_cast<double>(passes * waves_per_pass) / elapsed;
}

/// Steady-state kernel comparison on one compiled program: the single-word
/// (W = 1) kernel, driven by one-chunk plane-major calls — the engine's
/// original hot path — against whole-batch plane-major calls, whose blocks
/// run at the full kernel width. Each W = 1 call reads one chunk's PI words
/// from a contiguous row (both strides 1), the access pattern of the
/// original single-word entry, so the baseline pays no strided plane reads.
/// Both variants are verified bit-identical before anything is reported.
struct kernel_sweep_result {
  double w1_wps{0.0};
  double plane_wps{0.0};  // whole-batch plane-major
};

kernel_sweep_result kernel_sweep(const mig_network& balanced_net, const level_map& schedule,
                                 const engine::wave_batch& batch) {
  kernel_sweep_result r;
  const engine::compiled_netlist program{balanced_net, schedule};
  const std::size_t num_chunks = batch.num_chunks();
  const std::size_t num_pis = program.num_pis();
  const std::size_t num_pos = program.num_pos();

  std::vector<std::uint64_t> rows(num_chunks * num_pis);  // chunk c's PI words at c * num_pis
  for (std::size_t i = 0; i < num_pis; ++i) {
    for (std::size_t c = 0; c < num_chunks; ++c) {
      rows[c * num_pis + i] = batch.plane(i)[c];
    }
  }
  std::vector<std::uint64_t> out(num_chunks * num_pos);  // chunk c's PO words at c * num_pos
  std::vector<std::uint64_t> plane_out(num_chunks * num_pos);
  std::vector<std::uint64_t> scratch;

  const auto single_word_pass = [&] {
    for (std::size_t c = 0; c < num_chunks; ++c) {
      engine::eval_packed_planes(program, {rows.data() + c * num_pis, 1, num_pis, 1},
                                 {out.data() + c * num_pos, 1, num_pos, 1}, scratch);
    }
  };
  const auto plane_pass = [&] {
    engine::eval_packed_planes(program, batch.view(),
                               {plane_out.data(), num_chunks, num_pos, num_chunks},
                               scratch);
  };

  single_word_pass();
  plane_pass();
  bool agree = true;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    for (std::size_t p = 0; p < num_pos; ++p) {
      agree = agree && plane_out[p * num_chunks + c] == out[c * num_pos + p];
    }
  }
  if (!agree) {
    std::fprintf(stderr, "FATAL: kernel variants disagree — bench is meaningless\n");
    std::exit(2);
  }

  r.w1_wps = measure_wps(batch.num_waves(), single_word_pass);
  // The plane rate feeds the >= 2x-over-W=1 gate; best-of-two windows so a
  // single noisy window on a shared runner cannot fail the ratio.
  r.plane_wps = std::max(measure_wps(batch.num_waves(), plane_pass),
                         measure_wps(batch.num_waves(), plane_pass));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::json_mode(argc, argv);
  std::size_t num_waves = 1024;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') {
      char* end = nullptr;
      num_waves = static_cast<std::size_t>(std::strtoull(argv[i], &end, 10));
      if (end == argv[i] || *end != '\0' || num_waves == 0) {
        std::fprintf(stderr, "perf_wave_engine: invalid wave count '%s'\n", argv[i]);
        return 2;
      }
    }
  }
  const unsigned phases = 3;

  const auto raw = gen::ripple_adder_circuit(64);
  const auto balanced = insert_buffers(raw);
  const auto& net = balanced.net;
  const auto levels = compute_levels(net);

  std::mt19937_64 rng{2017};
  std::vector<std::vector<bool>> waves(num_waves, std::vector<bool>(net.num_pis()));
  for (auto& wave : waves) {
    for (std::size_t i = 0; i < wave.size(); ++i) {
      wave[i] = (rng() & 1u) != 0;
    }
  }

  if (!json) {
    bench::print_title("wave engine throughput — 64-bit ripple-carry adder, " +
                       std::to_string(num_waves) + " waves, " + std::to_string(phases) +
                       "-phase clock");
    std::printf("netlist: %zu majority gates, %zu buffers, depth %u\n\n",
                net.num_majorities(), net.num_buffers(), levels.depth);
  }

  // --- seed scalar baseline -------------------------------------------------
  // The seed interpreter knows one node per unit buffer: it runs the
  // unit-buffer form of the balanced netlist, as the seed's flow emitted it.
  const auto unit_net = expand_buffer_runs(net);
  const auto unit_levels = compute_levels(unit_net);
  auto start = std::chrono::steady_clock::now();
  const auto seed_run = seed_scalar_run_waves(unit_net, waves, phases, unit_levels);
  const double seed_s = seconds_since(start);

  // --- engine scalar (tick program lowered per call) -------------------------
  start = std::chrono::steady_clock::now();
  const auto scalar_run = run_waves(net, waves, phases);
  const double scalar_s = seconds_since(start);

  // --- engine packed (64 waves per word) ------------------------------------
  start = std::chrono::steady_clock::now();
  const auto packed_run = run_waves_packed(net, waves, phases);
  const double packed_s = seconds_since(start);

  // --- engine packed, steady state (compile + pack amortized) ---------------
  const engine::compiled_netlist compiled{net, levels};
  const auto batch = engine::wave_batch::from_waves(waves, net.num_pis());
  start = std::chrono::steady_clock::now();
  const auto steady_run = engine::run_waves_packed(compiled, batch, phases);
  const double steady_s = seconds_since(start);

  if (seed_run.outputs != scalar_run.outputs || seed_run.outputs != packed_run.outputs ||
      seed_run.outputs != steady_run.unpack()) {
    std::fprintf(stderr, "FATAL: paths disagree — benchmark results are meaningless\n");
    return 2;
  }

  // --- kernel width steady-state sweep --------------------------------------
  // On each netlist, the single-word (W = 1) kernel — the engine's former
  // hot path — against the multi-word kernel (AVX2 where the CPU has it).
  // Two shapes: the balanced adder (deep, few POs) and a large random MIG
  // (wide).
  const std::size_t kernel_waves = std::max<std::size_t>(num_waves, 8192);
  const auto kernel_batch = [&](const mig_network& circuit, std::uint64_t seed) {
    std::mt19937_64 batch_rng{seed};
    engine::wave_batch b{circuit.num_pis()};
    b.reserve(kernel_waves);
    std::vector<bool> wave(circuit.num_pis());
    for (std::size_t w = 0; w < kernel_waves; ++w) {
      for (std::size_t i = 0; i < wave.size(); ++i) {
        wave[i] = (batch_rng() & 1u) != 0;
      }
      b.append(wave);
    }
    return b;
  };

  const auto mig_balanced = insert_buffers(gen::random_mig({64, 4000, 0.5, 32, 777}));
  struct kernel_case {
    const char* name;
    const mig_network& net;
    const level_map& schedule;
    kernel_sweep_result sweep;
  };
  kernel_case kernel_cases[] = {
      {"adder64", net, balanced.schedule, {}},
      {"mig4k", mig_balanced.net, mig_balanced.schedule, {}},
  };
  double best_kernel_speedup = 0.0;
  for (auto& k : kernel_cases) {
    k.sweep = kernel_sweep(k.net, k.schedule, kernel_batch(k.net, 4242));
    best_kernel_speedup =
        std::max(best_kernel_speedup, k.sweep.plane_wps / k.sweep.w1_wps);
  }

  // --- parallel sharded execution (thread-scaling sweep) --------------------
  // A larger batch so every worker sees plenty of 64-wave chunks; the sweep
  // measures steady-state serving throughput (compile + pack amortized, like
  // the steady packed row).
  const std::size_t sweep_waves = std::max<std::size_t>(num_waves, 8192);
  const auto sweep_batch = [&] {
    std::mt19937_64 sweep_rng{2103};
    engine::wave_batch b{net.num_pis()};
    std::vector<bool> wave(net.num_pis());
    for (std::size_t w = 0; w < sweep_waves; ++w) {
      for (std::size_t i = 0; i < wave.size(); ++i) {
        wave[i] = (sweep_rng() & 1u) != 0;
      }
      b.append(wave);
    }
    return b;
  }();
  const auto sweep_reference = engine::run_waves_packed(compiled, sweep_batch, phases);

  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> thread_counts{1, 2, 4};
  if (std::find(thread_counts.begin(), thread_counts.end(), hw_threads) ==
      thread_counts.end()) {
    thread_counts.push_back(hw_threads);
  }
  std::vector<double> parallel_wps(thread_counts.size(), 0.0);
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    engine::parallel_executor executor{thread_counts[i]};
    // Warm-up run: spin up workers' scratch before timing.
    (void)engine::run_waves_parallel(compiled, sweep_batch, phases, executor);
    start = std::chrono::steady_clock::now();
    const auto run = engine::run_waves_parallel(compiled, sweep_batch, phases, executor);
    parallel_wps[i] = static_cast<double>(sweep_waves) / seconds_since(start);
    if (run.words != sweep_reference.words) {
      std::fprintf(stderr, "FATAL: parallel path diverges at %u threads\n",
                   thread_counts[i]);
      return 2;
    }
  }

  // --- async serving throughput ---------------------------------------------
  // The serving front-end against the same adder: submit a burst of
  // batch-sized requests as futures and wait them all. Steady state — the
  // warm-up request pays the one compile (cache miss); every timed request
  // is a cache hit sharded across the pool.
  engine::parallel_executor serve_executor{hw_threads};
  const auto shared_raw = std::make_shared<const mig_network>(raw);
  double serving_wps = 0.0;
  constexpr std::size_t serving_requests = 16;
  {
    engine::serving_session serving{serve_executor};
    // Warm-up: compile + pack. The timed loop submits through the
    // shared_ptr hot path — no per-request network copy, fingerprint
    // memoized after this first submission.
    (void)serving.submit(shared_raw, sweep_batch, phases).get();
    std::vector<std::future<engine::packed_wave_result>> futures;
    futures.reserve(serving_requests);
    start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < serving_requests; ++r) {
      futures.push_back(serving.submit(shared_raw, sweep_batch, phases));
    }
    for (auto& future : futures) {
      if (future.get().words != sweep_reference.words) {
        std::fprintf(stderr, "FATAL: async serving path diverges from packed\n");
        return 2;
      }
    }
    serving_wps =
        static_cast<double>(serving_requests * sweep_waves) / seconds_since(start);
  }

  // --- cache-churn sweep ----------------------------------------------------
  // A serving-shaped circuit mix through a byte-bounded cache: a hot set of
  // four circuits interleaved with a long cold tail, so the hot programs
  // stay resident while the cold ones evict each other on a steady diet —
  // all while requests are in flight. The byte bound is a hard ceiling —
  // exceeding it at any sample point fails the bench.
  constexpr std::size_t churn_circuits = 24;
  constexpr std::size_t churn_rounds = 4;
  std::vector<std::shared_ptr<const mig_network>> circuits;
  circuits.reserve(churn_circuits);
  for (std::size_t i = 0; i < churn_circuits; ++i) {
    circuits.push_back(std::make_shared<const mig_network>(
        gen::random_mig({16, 150, 0.5, 8, static_cast<std::uint64_t>(9000 + i)})));
  }
  // Budget: the four hot programs exactly, plus the five largest cold
  // programs — hot entries survive their reuse distance no matter which
  // cold programs happen to be resident, while the cold tail (20 circuits
  // into 5 slots) evicts itself on a steady diet.
  const auto program_bytes = [](const mig_network& circuit) {
    const auto balanced = insert_buffers(circuit);
    return engine::compiled_netlist{balanced.net, balanced.schedule}.memory_bytes();
  };
  std::size_t byte_bound = 0;
  std::vector<std::size_t> cold_bytes;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const std::size_t bytes = program_bytes(*circuits[i]);
    if (i < 4) {
      byte_bound += bytes;
    } else {
      cold_bytes.push_back(bytes);
    }
  }
  std::sort(cold_bytes.begin(), cold_bytes.end(), std::greater<>{});
  for (std::size_t i = 0; i < 5; ++i) {
    byte_bound += cold_bytes[i];
  }

  engine::session_stats churn_stats;
  std::size_t churn_max_bytes = 0;
  {
    engine::serving_session churn{serve_executor, {}, {.max_bytes = byte_bound}};
    std::mt19937_64 churn_rng{31};
    std::vector<std::future<engine::packed_wave_result>> futures;
    for (std::size_t round = 0; round < churn_rounds; ++round) {
      futures.clear();
      for (std::size_t r = 0; r < 2 * circuits.size(); ++r) {
        // Even requests walk the cold tail, odd ones revisit the hot four.
        const auto& circuit =
            (r % 2 == 0) ? circuits[4 + (r / 2) % (circuits.size() - 4)]
                         : circuits[(r / 2) % 4];
        engine::wave_batch batch{circuit->num_pis()};
        std::vector<bool> wave(circuit->num_pis());
        for (std::size_t w = 0; w < 128; ++w) {
          for (std::size_t i = 0; i < wave.size(); ++i) {
            wave[i] = (churn_rng() & 1u) != 0;
          }
          batch.append(wave);
        }
        futures.push_back(churn.submit(circuit, std::move(batch), phases));
        churn_max_bytes = std::max(churn_max_bytes, churn.stats().bytes);
      }
      for (auto& future : futures) {
        (void)future.get();
      }
      churn_max_bytes = std::max(churn_max_bytes, churn.stats().bytes);
      if (churn_max_bytes > byte_bound) {
        std::fprintf(stderr, "FATAL: cache exceeded its byte bound (%zu > %zu)\n",
                     churn_max_bytes, byte_bound);
        return 2;
      }
    }
    churn_stats = churn.stats();
  }
  const double churn_hit_rate = static_cast<double>(churn_stats.hits) /
                                static_cast<double>(churn_stats.hits + churn_stats.misses);

  // --- dispatcher sweep -------------------------------------------------------
  // Submission-shape sweep through the coalescing dispatcher: many small
  // same-program requests (the coalescing sweet spot), few large ones
  // (singleton passes), and a hot/cold program mix (small requests split
  // across four programs, so fused groups shrink). Each scenario records
  // throughput, end-to-end latency percentiles (submit -> callback, via the
  // bench_util nearest-rank helper), queue-wait percentiles (from the
  // session's sample reservoir), and how much actually coalesced.
  struct dispatch_record {
    const char* name;
    double wps{0.0};
    double e2e_p50_ms{0.0};
    double e2e_p99_ms{0.0};
    double queue_p50_ms{0.0};
    double queue_p99_ms{0.0};
    double fused_passes{0.0};
    double coalesced_requests{0.0};
    double singleton_passes{0.0};
  };
  std::vector<std::shared_ptr<const mig_network>> mix_nets;
  mix_nets.push_back(shared_raw);
  for (std::uint64_t s = 0; s < 3; ++s) {
    mix_nets.push_back(std::make_shared<const mig_network>(
        gen::random_mig({32, 400, 0.5, 16, 5100 + s})));
  }
  const auto small_batch_for = [&](const mig_network& circuit, std::uint64_t seed) {
    std::mt19937_64 small_rng{seed};
    engine::wave_batch b{circuit.num_pis()};
    std::vector<bool> wave(circuit.num_pis());
    for (std::size_t w = 0; w < 128; ++w) {
      for (std::size_t i = 0; i < wave.size(); ++i) {
        wave[i] = (small_rng() & 1u) != 0;
      }
      b.append(wave);
    }
    return b;
  };

  const auto run_dispatch_scenario =
      [&](const char* name,
          const std::vector<std::pair<std::shared_ptr<const mig_network>,
                                      const engine::wave_batch*>>& submissions) {
        dispatch_record rec;
        rec.name = name;
        engine::serving_session dispatch{serve_executor};
        // Warm the compile cache so the timed window measures dispatch and
        // evaluation, not one-off lowering.
        for (const auto& n : mix_nets) {
          (void)dispatch.submit(n, small_batch_for(*n, 1), phases).get();
        }
        (void)dispatch.take_queue_wait_samples();

        std::vector<double> e2e_ms(submissions.size(), 0.0);
        std::size_t total_waves = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < submissions.size(); ++i) {
          total_waves += submissions[i].second->num_waves();
          const auto submit_time = std::chrono::steady_clock::now();
          dispatch.submit(submissions[i].first, *submissions[i].second, phases,
                          [&e2e_ms, i, submit_time](engine::packed_wave_result result,
                                                    std::exception_ptr error) {
                            if (error || result.num_waves == 0) {
                              std::fprintf(stderr,
                                           "FATAL: dispatcher sweep request failed\n");
                              std::exit(2);
                            }
                            e2e_ms[i] = std::chrono::duration<double, std::milli>(
                                            std::chrono::steady_clock::now() - submit_time)
                                            .count();
                          });
        }
        dispatch.drain();
        rec.wps = static_cast<double>(total_waves) / seconds_since(t0);
        auto queue_ms = dispatch.take_queue_wait_samples();
        rec.e2e_p50_ms = bench::percentile(e2e_ms, 50.0);
        rec.e2e_p99_ms = bench::percentile(e2e_ms, 99.0);
        rec.queue_p50_ms = bench::percentile(queue_ms, 50.0);
        rec.queue_p99_ms = bench::percentile(queue_ms, 99.0);
        const auto m = dispatch.metrics();
        rec.fused_passes = static_cast<double>(m.fused_passes);
        rec.coalesced_requests = static_cast<double>(m.coalesced_requests);
        rec.singleton_passes = static_cast<double>(m.singleton_passes);
        return rec;
      };

  std::vector<dispatch_record> dispatch_records;
  {
    const auto hot_small = small_batch_for(raw, 71);
    std::vector<std::pair<std::shared_ptr<const mig_network>, const engine::wave_batch*>>
        many_small(256, {shared_raw, &hot_small});
    dispatch_records.push_back(run_dispatch_scenario("many_small", many_small));

    std::vector<std::pair<std::shared_ptr<const mig_network>, const engine::wave_batch*>>
        few_large(8, {shared_raw, &sweep_batch});
    dispatch_records.push_back(run_dispatch_scenario("few_large", few_large));

    std::vector<engine::wave_batch> mix_batches;
    for (std::size_t i = 0; i < mix_nets.size(); ++i) {
      mix_batches.push_back(small_batch_for(*mix_nets[i], 600 + i));
    }
    std::vector<std::pair<std::shared_ptr<const mig_network>, const engine::wave_batch*>>
        hot_cold;
    for (std::size_t r = 0; r < 256; ++r) {
      const std::size_t which = r % mix_nets.size();
      hot_cold.push_back({mix_nets[which], &mix_batches[which]});
    }
    dispatch_records.push_back(run_dispatch_scenario("hot_cold", hot_cold));
  }

  // --- technology scenario sweep --------------------------------------------
  // The same raw adder through the scenario-keyed batch_session, once per
  // built-in scenario. Every scenario computes the same function (words are
  // checked against the packed reference), but each compiles its own
  // program: the scenario's fan-out limit and loss budget reshape the
  // prepared netlist, so steady-state throughput differs per target.
  struct scenario_record {
    std::string key;  // json-safe: lower-case, '-' -> '_'
    double wps{0.0};
    std::size_t repeaters{0};
    std::size_t components{0};
    std::uint32_t depth{0};
    unsigned fdm_lanes{1};
  };
  std::vector<scenario_record> scenario_records;
  {
    engine::batch_session scenario_session{serve_executor};
    for (const auto& name : tech_scenario::names()) {
      const auto scenario = tech_scenario::by_name(name);
      scenario_record rec;
      rec.key = name;
      for (auto& c : rec.key) {
        c = c == '-' ? '_' : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      rec.fdm_lanes = scenario.fdm_lanes;

      pipeline_options opts;
      opts.scenario = scenario;
      const auto piped = wave_pipeline(raw, opts);
      rec.repeaters = piped.repeater_buffers_added;
      rec.components = piped.final_stats.components;
      rec.depth = piped.depth_after;

      // Warm the cache (one compile miss), then measure steady-state hits.
      const auto warm = scenario_session.run(raw, sweep_batch, phases, &scenario);
      if (warm.words != sweep_reference.words) {
        std::fprintf(stderr, "FATAL: scenario '%s' diverges from the packed reference\n",
                     name.c_str());
        return 2;
      }
      rec.wps = measure_wps(sweep_waves, [&] {
        (void)scenario_session.run(raw, sweep_batch, phases, &scenario);
      });
      scenario_records.push_back(std::move(rec));
    }
  }

  // The serving/scaling gates are decoration on a 1-core host (nothing can
  // scale); they are enforced wherever the hardware can actually express
  // the property — the multi-core CI runner.
  const double serving_vs_parallel = serving_wps / parallel_wps.back();
  const double scaling_t2 = parallel_wps[1] / parallel_wps[0];  // thread_counts[1] == 2
  const bool multicore_ok =
      hw_threads <= 1 || (serving_vs_parallel >= 0.85 && scaling_t2 >= 1.5);

  const double seed_wps = static_cast<double>(num_waves) / seed_s;
  const double scalar_wps = static_cast<double>(num_waves) / scalar_s;
  const double packed_wps = static_cast<double>(num_waves) / packed_s;
  const double steady_wps = static_cast<double>(num_waves) / steady_s;
  const double scalar_speedup = scalar_wps / seed_wps;
  const double packed_speedup = packed_wps / seed_wps;
  const double steady_speedup = steady_wps / seed_wps;

  if (json) {
    bench::json_record("perf_wave_engine", "seed_scalar_waves_per_s", seed_wps);
    bench::json_record("perf_wave_engine", "engine_scalar_waves_per_s", scalar_wps);
    bench::json_record("perf_wave_engine", "engine_packed_waves_per_s", packed_wps);
    bench::json_record("perf_wave_engine", "engine_packed_steady_waves_per_s", steady_wps);
    bench::json_record("perf_wave_engine", "engine_scalar_speedup", scalar_speedup);
    bench::json_record("perf_wave_engine", "engine_packed_speedup", packed_speedup);
    bench::json_record("perf_wave_engine", "engine_packed_steady_speedup", steady_speedup);
    bench::json_record("perf_wave_engine", "hardware_concurrency",
                       static_cast<double>(hw_threads));
    for (const auto& k : kernel_cases) {
      const std::string prefix = std::string{"kernel_"} + k.name;
      bench::json_record("perf_wave_engine", prefix + "_w1_waves_per_s", k.sweep.w1_wps);
      bench::json_record("perf_wave_engine", prefix + "_plane_waves_per_s",
                         k.sweep.plane_wps);
      bench::json_record("perf_wave_engine", prefix + "_speedup_vs_w1",
                         k.sweep.plane_wps / k.sweep.w1_wps);
    }
    bench::json_record("perf_wave_engine", "kernel_best_speedup_vs_w1",
                       best_kernel_speedup);
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      bench::json_record("perf_wave_engine",
                         "engine_parallel_waves_per_s_t" + std::to_string(thread_counts[i]),
                         parallel_wps[i]);
      bench::json_record("perf_wave_engine",
                         "engine_parallel_scaling_t" + std::to_string(thread_counts[i]),
                         parallel_wps[i] / parallel_wps[0]);
    }
    bench::json_record("perf_wave_engine", "serving_async_waves_per_s", serving_wps);
    bench::json_record("perf_wave_engine", "serving_async_vs_parallel",
                       serving_wps / parallel_wps.back());
    for (const auto& rec : dispatch_records) {
      const std::string prefix = std::string{"dispatch_"} + rec.name;
      bench::json_record("perf_wave_engine", prefix + "_waves_per_s", rec.wps);
      bench::json_record("perf_wave_engine", prefix + "_e2e_p50_ms", rec.e2e_p50_ms);
      bench::json_record("perf_wave_engine", prefix + "_e2e_p99_ms", rec.e2e_p99_ms);
      bench::json_record("perf_wave_engine", prefix + "_queue_wait_p50_ms",
                         rec.queue_p50_ms);
      bench::json_record("perf_wave_engine", prefix + "_queue_wait_p99_ms",
                         rec.queue_p99_ms);
      bench::json_record("perf_wave_engine", prefix + "_fused_passes", rec.fused_passes);
      bench::json_record("perf_wave_engine", prefix + "_coalesced_requests",
                         rec.coalesced_requests);
      bench::json_record("perf_wave_engine", prefix + "_singleton_passes",
                         rec.singleton_passes);
    }
    bench::json_record("perf_wave_engine", "serving_cache_hit_rate", churn_hit_rate);
    bench::json_record("perf_wave_engine", "serving_cache_evictions",
                       static_cast<double>(churn_stats.evictions));
    bench::json_record("perf_wave_engine", "serving_cache_byte_bound",
                       static_cast<double>(byte_bound));
    bench::json_record("perf_wave_engine", "serving_cache_max_resident_bytes",
                       static_cast<double>(churn_max_bytes));
    for (const auto& rec : scenario_records) {
      const std::string prefix = std::string{"scenario_"} + rec.key;
      bench::json_record("perf_wave_engine", prefix + "_waves_per_s", rec.wps);
      bench::json_record("perf_wave_engine", prefix + "_repeaters",
                         static_cast<double>(rec.repeaters));
      bench::json_record("perf_wave_engine", prefix + "_components",
                         static_cast<double>(rec.components));
      bench::json_record("perf_wave_engine", prefix + "_depth",
                         static_cast<double>(rec.depth));
      bench::json_record("perf_wave_engine", prefix + "_fdm_lanes",
                         static_cast<double>(rec.fdm_lanes));
    }
    bench::json_record("perf_wave_engine", "serving_scaling_gates_enforced",
                       hw_threads > 1 ? 1.0 : 0.0);
    bench::json_record("perf_wave_engine", "serving_scaling_gates_ok",
                       multicore_ok ? 1.0 : 0.0);
  } else {
    std::printf("%-22s %14s %14s %10s\n", "path", "time [s]", "waves/s", "speedup");
    bench::print_rule('-', 64);
    std::printf("%-22s %14s %14s %10s\n", "seed scalar", bench::fmt(seed_s, 4).c_str(),
                bench::fmt(seed_wps).c_str(), "1.00x");
    std::printf("%-22s %14s %14s %9sx\n", "engine scalar", bench::fmt(scalar_s, 4).c_str(),
                bench::fmt(scalar_wps).c_str(), bench::fmt(scalar_speedup).c_str());
    std::printf("%-22s %14s %14s %9sx\n", "engine packed", bench::fmt(packed_s, 4).c_str(),
                bench::fmt(packed_wps).c_str(), bench::fmt(packed_speedup).c_str());
    std::printf("%-22s %14s %14s %9sx\n", "engine packed (steady)",
                bench::fmt(steady_s, 4).c_str(), bench::fmt(steady_wps).c_str(),
                bench::fmt(steady_speedup).c_str());

    std::printf("\nkernel width steady-state sweep — %zu waves\n", kernel_waves);
    std::printf("%-10s %14s %14s %10s\n", "netlist", "W=1 waves/s", "plane waves/s",
                "speedup");
    bench::print_rule('-', 52);
    for (const auto& k : kernel_cases) {
      std::printf("%-10s %14s %14s %9sx\n", k.name, bench::fmt(k.sweep.w1_wps).c_str(),
                  bench::fmt(k.sweep.plane_wps).c_str(),
                  bench::fmt(k.sweep.plane_wps / k.sweep.w1_wps).c_str());
    }

    std::printf("\nparallel thread-scaling sweep — %zu waves (%zu chunks), %u hardware "
                "thread(s)\n",
                sweep_waves, (sweep_waves + 63) / 64, hw_threads);
    std::printf("%-22s %14s %10s\n", "threads", "waves/s", "scaling");
    bench::print_rule('-', 48);
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      std::printf("%-22u %14s %9sx\n", thread_counts[i], bench::fmt(parallel_wps[i]).c_str(),
                  bench::fmt(parallel_wps[i] / parallel_wps[0]).c_str());
    }

    std::printf("\nasync serving — %zu requests x %zu waves through serving_session\n",
                serving_requests, sweep_waves);
    std::printf("%-22s %14s\n", "serving async", bench::fmt(serving_wps).c_str());

    std::printf("\ndispatcher sweep — submission shapes through the coalescing dispatcher\n");
    std::printf("%-12s %14s %10s %10s %11s %11s %8s %10s\n", "scenario", "waves/s",
                "e2e p50", "e2e p99", "queue p50", "queue p99", "fused", "coalesced");
    bench::print_rule('-', 94);
    for (const auto& rec : dispatch_records) {
      std::printf("%-12s %14s %8sms %8sms %9sms %9sms %8.0f %10.0f\n", rec.name,
                  bench::fmt(rec.wps).c_str(), bench::fmt(rec.e2e_p50_ms).c_str(),
                  bench::fmt(rec.e2e_p99_ms).c_str(), bench::fmt(rec.queue_p50_ms).c_str(),
                  bench::fmt(rec.queue_p99_ms).c_str(), rec.fused_passes,
                  rec.coalesced_requests);
    }

    std::printf("\ncache churn — %zu circuits, %zu rounds, byte bound %zu (hot 4 + ~5 cold)\n",
                churn_circuits, churn_rounds, byte_bound);
    std::printf("%-22s %14s\n", "hit rate",
                bench::fmt(churn_hit_rate, 3).c_str());
    std::printf("%-22s %14llu\n", "evictions",
                static_cast<unsigned long long>(churn_stats.evictions));
    std::printf("%-22s %14zu (bound %zu: %s)\n", "max resident bytes", churn_max_bytes,
                byte_bound, churn_max_bytes <= byte_bound ? "OK" : "EXCEEDED");

    std::printf("\ntechnology scenario sweep — %zu waves through the scenario-keyed "
                "session\n",
                sweep_waves);
    std::printf("%-12s %14s %8s %12s %8s %8s\n", "scenario", "waves/s", "lanes",
                "components", "depth", "reps");
    bench::print_rule('-', 68);
    for (const auto& rec : scenario_records) {
      std::printf("%-12s %14s %8u %12zu %8u %8zu\n", rec.key.c_str(),
                  bench::fmt(rec.wps).c_str(), rec.fdm_lanes, rec.components, rec.depth,
                  rec.repeaters);
    }

    std::printf("\nacceptance: packed >= 10x over seed scalar: %s (%sx)\n",
                packed_speedup >= 10.0 ? "PASS" : "FAIL",
                bench::fmt(packed_speedup).c_str());
    std::printf("acceptance: plane-major kernel >= 2x over single-word kernel: %s (%sx)\n",
                best_kernel_speedup >= 2.0 ? "PASS" : "FAIL",
                bench::fmt(best_kernel_speedup).c_str());
    if (hw_threads > 1) {
      std::printf("acceptance: serving_async_vs_parallel >= 0.85: %s (%s)\n",
                  serving_vs_parallel >= 0.85 ? "PASS" : "FAIL",
                  bench::fmt(serving_vs_parallel).c_str());
      std::printf("acceptance: engine_parallel_scaling_t2 >= 1.5: %s (%sx)\n",
                  scaling_t2 >= 1.5 ? "PASS" : "FAIL", bench::fmt(scaling_t2).c_str());
    } else {
      std::printf("acceptance: serving/scaling gates skipped — single-core host (enforced "
                  "on the multi-core CI runner)\n");
    }
  }

  return packed_speedup >= 10.0 && best_kernel_speedup >= 2.0 && multicore_ok
             ? 0
             : 1;
}
