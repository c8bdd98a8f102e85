// plane_bulk: plane-major words in through wave_batch::from_plane_words,
// run through engine::run_waves_parallel on an nproc-thread executor, with
// programs compiled in set-up. The four circuits' kernel working sets span
// L1 to beyond L2 (adder64, mig4k, diffeq1, rand_large), and each call is
// long enough that worker wake-up is not what gets timed. The kernel and
// the executor do nearly all the work; the bool boundary does none.

#include <cstdio>
#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "stats.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/gen/suite.hpp"
#include "wavemig/pipeline.hpp"
#include "workloads.hpp"

namespace wavebench {

using namespace wavemig;

namespace {

constexpr unsigned phases = 3;
constexpr std::size_t check_waves = 64;
// Latency window: a circuit's calls, in runs of this many.
constexpr std::size_t call_window = 100;

struct bulk_circuit {
  std::string name;
  std::size_t waves{0};
  mig_network raw;  ///< pre-flow netlist: the reference
  std::optional<engine::compiled_netlist> program;
  std::optional<engine::wave_batch> batch;
  std::vector<std::uint64_t> input;   ///< the batch's plane words
  std::vector<std::uint64_t> golden;  ///< verified result words of the batch
};

bulk_circuit make_circuit(const std::string& name, std::size_t waves, bool traced,
                          std::mt19937_64& rng) {
  bulk_circuit c;
  c.name = name;
  c.waves = waves;
  {
    trace::scope s{"gen/build"};
    c.raw = name == "mig4k" ? gen::random_mig({64, 4000, 0.5, 32, 777})
                            : gen::build_benchmark(name);
  }
  const mig_network net =
      traced ? run_flow_stages(c.raw, tech_scenario::swd()).net : wave_pipeline(c.raw).net;
  {
    trace::scope s{"engine.compile/compiled_netlist"};
    c.program.emplace(net);
  }
  c.input = random_planes(net.num_pis(), waves, rng);
  {
    trace::scope s{"engine.wave_engine/from_plane_words"};
    c.batch.emplace(engine::wave_batch::from_plane_words(c.input, net.num_pis(), waves));
  }
  return c;
}

/// The first run of each circuit is checked against the reference on
/// sampled waves and on every wave of its first and last 64-wave chunk
/// (block edges are where packing bugs show); later runs of the same batch
/// must reproduce its words.
void verify_first_run(bulk_circuit& c, engine::parallel_executor& executor,
                      std::mt19937_64& rng, result& res) {
  auto packed = engine::run_waves_parallel(*c.program, *c.batch, phases, executor);
  auto waves = sample_waves(c.waves, check_waves, rng);
  for (std::size_t w = 0; w < 64; ++w) {
    waves.push_back(w);
    waves.push_back(c.waves - 1 - w);
  }
  const std::size_t chunks = (c.waves + 63) / 64;
  if (const std::size_t bad = check_sampled_waves(c.name, c.raw, c.input.data(), chunks,
                                                  packed.words.data(), chunks, waves);
      bad != 0) {
    res.mismatch(c.name + ": " + std::to_string(bad) + " sampled waves differ from the reference");
  }
  c.golden = std::move(packed.words);
}

struct rates {
  std::vector<double> seconds;  ///< per circuit, summed over calls
  std::vector<double> waves;
  std::vector<std::vector<double>> call_seconds;  ///< per circuit, per call
};

/// One call per circuit; returns the rotation's wall time.
double rotation(std::vector<bulk_circuit>& circuits, engine::parallel_executor& executor,
                rates& r, result& res) {
  double total = 0.0;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    auto& c = circuits[i];
    const auto start = clock_type::now();
    engine::packed_wave_result packed;
    {
      trace::scope s{"engine.parallel_executor/run_waves_parallel"};
      packed = engine::run_waves_parallel(*c.program, *c.batch, phases, executor);
    }
    const double s = seconds_since(start);
    total += s;
    r.seconds[i] += s;
    r.waves[i] += static_cast<double>(c.waves);
    r.call_seconds[i].push_back(s);
    ++res.attempted;
    if (packed.words != c.golden) {
      res.mismatch(c.name + ": run differs from the verified first run of the same batch");
    }
  }
  return total;
}

}  // namespace

result run_plane_bulk(const config& cfg) {
  // Waves per call: 65,536, except rand_large, whose 2,000 outputs would
  // make each result 16 MiB; a quarter of that keeps its call near the
  // others' length.
  const std::vector<std::pair<std::string, std::size_t>> shape{
      {"adder64", 65536}, {"mig4k", 65536}, {"diffeq1", 65536}, {"rand_large", 16384}};
  result out;
  auto& recorder = trace::recorder::global();
  std::vector<bulk_circuit> circuits;
  std::optional<engine::parallel_executor> executor;
  recorder.enable(cfg.trace);
  const double setup_s = median_setup_seconds(cfg.trace ? 1 : 3, [&] {
    std::mt19937_64 rng{cfg.seed};
    circuits.clear();
    executor.reset();
    executor.emplace(cfg.nproc);
    for (const auto& [name, waves] : shape) {
      circuits.push_back(make_circuit(name, waves, cfg.trace, rng));
      verify_first_run(circuits.back(), *executor, rng, out);
    }
  });
  recorder.enable(false);
  auto setup_spans = recorder.take();

  const std::size_t n = circuits.size();
  rates plain{std::vector<double>(n), std::vector<double>(n), std::vector<std::vector<double>>(n)};
  rates traced{std::vector<double>(n), std::vector<double>(n), std::vector<std::vector<double>>(n)};
  std::vector<double> rotation_ms;
  std::vector<double> kernel_seconds(n);
  std::vector<std::uint64_t> scratch;
  double traced_parallel_s = 0.0;
  // A traced rotation also runs every program single-threaded on the kernel
  // alone, so the executor's scaling is measured on the same batch.
  const auto traced_rotation = [&] {
    traced_parallel_s += rotation(circuits, *executor, traced, out);
    for (std::size_t i = 0; i < n; ++i) {
      auto& c = circuits[i];
      const std::size_t chunks = c.batch->num_chunks();
      std::vector<std::uint64_t> words(chunks * c.program->num_pos());
      const auto start = clock_type::now();
      {
        trace::scope s{"engine.kernel/eval_packed_planes"};
        engine::eval_packed_planes(*c.program, c.batch->view(),
                                   {words.data(), chunks, c.program->num_pos(), chunks}, scratch);
      }
      kernel_seconds[i] += seconds_since(start);
      ++out.attempted;
      if (!std::equal(c.golden.begin(), c.golden.end(), words.begin())) {
        out.mismatch(c.name + ": single-thread kernel differs from the verified run");
      }
    }
  };
  // A traced run alternates untraced and traced rotations, so warm-up and
  // the host's slow stretches fall on both alike.
  const auto start = clock_type::now();
  do {
    rotation_ms.push_back(rotation(circuits, *executor, plain, out) * 1e3);
    if (cfg.trace) {
      recorder.enable(true);
      traced_rotation();
      recorder.enable(false);
    }
  } while (seconds_since(start) < cfg.seconds);

  if (!cfg.trace) {
    // Windows: each call for a circuit's rate; runs of call_window calls
    // of a circuit for its p50 call latency. Both figures are geometric
    // means over the circuits, so each working-set size weighs the same:
    // rand_large alone takes 70% of a rotation, and a host short of cache
    // or memory bandwidth doubles it while it hardly moves adder64.
    std::vector<double> per_circuit;
    std::vector<double> p50_ms;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> call_rates;
      std::vector<double> call_ms;
      for (const double s : plain.call_seconds[i]) {
        call_rates.push_back(static_cast<double>(circuits[i].waves) / s);
        call_ms.push_back(s * 1e3);
      }
      per_circuit.push_back(fast_decile(call_rates, true));
      p50_ms.push_back(fast_decile(window_percentiles(call_ms, call_window, 50), false));
    }
    const double rate = geomean(per_circuit);
    const double p50 = geomean(p50_ms);
    const double p90 = percentile(rotation_ms, 90);
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", rate);
    out.set("latency_p50_ms", p50);
    out.note("plane_waves_per_s = %.4g 1/s (geometric mean over %zu circuits, %u threads)", rate,
             circuits.size(), cfg.nproc);
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      out.note("  %-10s %7zu waves/call: %.4g waves/s, call p50 %.4f ms", circuits[i].name.c_str(),
               circuits[i].waves, per_circuit[i], p50_ms[i]);
    }
    out.note("plane call p50 = %.4f ms (geometric mean over circuits, windows of %zu calls); "
             "rotation (one call per circuit) p50 %.3f ms, p90 %.3f ms over all %zu rotations",
             p50, call_window, percentile(rotation_ms, 50), p90, rotation_ms.size());
    return out;
  }

  auto spans = recorder.take();

  set_stage_means(out, setup_spans, spans);
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const auto& c = circuits[i];
    const double one_thread = traced.waves[i] / kernel_seconds[i];
    const auto ops = static_cast<double>(c.program->num_comb_ops());
    const auto io = static_cast<double>(c.program->num_pis() + c.program->num_pos());
    const std::string k = "engine.kernel." + c.name;
    out.set(k + ".waves_per_s_1t", one_thread);
    out.set(k + ".gate_evals_per_s", one_thread * ops);
    // Each op loads three slot words and stores one per 64 waves; PIs load
    // and POs store one word per 64 waves.
    out.set(k + ".bytes_per_wave", (32.0 * ops + 8.0 * io) / 64.0);
    out.set("engine.parallel_executor." + c.name + ".scaling",
            (traced.waves[i] / traced.seconds[i]) / one_thread);
  }
  report_ledger(out, spans);
  const double untraced_per_rotation =
      std::accumulate(plain.seconds.begin(), plain.seconds.end(), 0.0) /
      static_cast<double>(rotation_ms.size());
  report_overhead(out, traced_parallel_s / static_cast<double>(rotation_ms.size()),
                  untraced_per_rotation, false);
  setup_spans.insert(setup_spans.end(), spans.begin(), spans.end());
  out.spans = std::move(setup_spans);
  return out;
}

}  // namespace wavebench
