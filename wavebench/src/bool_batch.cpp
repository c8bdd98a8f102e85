// bool_batch: the caller-visible convenience path, vector<vector<bool>> in
// and out, in a single-thread closed loop over a fixed rotation on adder64
// and mul32: 64-wave calls to wavemig::run_waves_packed(mig_network, ...),
// 65,536-wave calls to the same function, and a 65,536-wave
// engine::wave_stream push -> finish -> unpack. Pack and unpack dominate the
// large calls; levels plus compile dominate the 64-wave calls.
//
// Small calls run adder64 and mul32 3:1, so the median falls inside the
// adder64 latencies and p99 inside the mul32 ones rather than on the edge
// between the two (where it would flip from run to run). A rotation's small
// calls run back to back and form one window of the median; the tail is
// taken over all of the run's small calls.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "stats.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/suite.hpp"
#include "wavemig/pipeline.hpp"
#include "wavemig/wave_simulator.hpp"
#include "workloads.hpp"

namespace wavebench {

using namespace wavemig;

namespace {

constexpr unsigned phases = 3;
constexpr std::size_t small_waves = 64;
constexpr std::size_t large_waves = 65536;
constexpr std::size_t small_pool = 16;
// Enough calls for the median of a rotation to rest on 100-odd samples.
constexpr std::size_t small_calls_per_rotation = 144;
constexpr std::size_t large_check_waves = 1024;

using waves_t = std::vector<std::vector<bool>>;

struct arith_circuit {
  std::string name;
  bool is_adder{false};
  mig_network raw;  ///< pre-flow netlist
  mig_network net;  ///< after the flow: what callers run
  std::optional<engine::compiled_netlist> program;  ///< what the streams run
  std::vector<waves_t> small;
  waves_t large;

  /// Checked against integer arithmetic (see expected_outputs).
  [[nodiscard]] bool correct(const std::vector<bool>& in, const std::vector<bool>& out) const {
    return out == expected_outputs(name, raw, in);
  }
};

waves_t random_waves(std::size_t count, std::size_t width, std::mt19937_64& rng) {
  waves_t waves(count, std::vector<bool>(width));
  for (auto& w : waves) {
    for (std::size_t i = 0; i < width; i += 64) {
      const std::uint64_t bits = rng();
      for (std::size_t b = 0; b < 64 && i + b < width; ++b) {
        w[i + b] = ((bits >> b) & 1u) != 0;
      }
    }
  }
  return waves;
}

arith_circuit make_circuit(const std::string& name, bool traced, std::mt19937_64& rng) {
  arith_circuit c;
  c.name = name;
  c.is_adder = name == "adder64";
  {
    trace::scope s{"gen/build"};
    c.raw = gen::build_benchmark(name);
  }
  c.net = traced ? run_flow_stages(c.raw, tech_scenario::swd()).net : wave_pipeline(c.raw).net;
  {
    trace::scope s{"engine.compile/compiled_netlist"};
    c.program.emplace(c.net);
  }
  for (std::size_t i = 0; i < small_pool; ++i) {
    c.small.push_back(random_waves(small_waves, c.net.num_pis(), rng));
  }
  c.large = random_waves(large_waves, c.net.num_pis(), rng);
  return c;
}

/// Checks `waves` (all when `stride` is 1, else every stride-th plus the
/// last) of one call's outputs against integer arithmetic.
void check_outputs(const arith_circuit& c, const waves_t& in, const waves_t& out,
                   std::size_t stride, result& res) {
  if (out.size() != in.size()) {
    res.mismatch(c.name + ": wave count changed");
    return;
  }
  for (std::size_t w = 0; w < in.size(); w += stride) {
    if (!c.correct(in[w], out[w])) {
      res.mismatch(c.name + ": wave " + std::to_string(w) + " disagrees with integer arithmetic");
      return;
    }
  }
  if (!c.correct(in.back(), out.back())) {
    res.mismatch(c.name + ": last wave disagrees with integer arithmetic");
  }
}

/// The convenience call, either in one piece or decomposed into the steps
/// wavemig::run_waves_packed(mig_network, ...) takes, each under a span.
waves_t bool_call(const arith_circuit& c, const waves_t& waves, bool traced) {
  if (!traced) {
    return run_waves_packed(c.net, waves, phases).outputs;
  }
  trace::scope root{"bench/bool_call"};
  level_map levels;
  {
    trace::scope s{"mig/compute_levels"};
    levels = compute_levels(c.net);
  }
  engine::compiled_netlist program = [&] {
    trace::scope s{"engine.compile/compiled_netlist"};
    return engine::compiled_netlist{c.net, levels};
  }();
  engine::wave_batch batch{0};
  {
    trace::scope s{"engine.wave_engine/from_waves"};
    batch = engine::wave_batch::from_waves(waves, c.net.num_pis());
  }
  engine::packed_wave_result packed;
  {
    trace::scope s{"engine.kernel/run_waves_packed"};
    packed = engine::run_waves_packed(program, batch, phases);
  }
  trace::scope s{"engine.wave_engine/unpack"};
  return packed.unpack();
}

waves_t stream_call(const arith_circuit& c, const waves_t& waves) {
  trace::scope root{"bench/stream_call"};
  engine::packed_wave_result packed;
  {
    engine::wave_stream stream{*c.program, phases};
    {
      trace::scope s{"engine.wave_engine/stream_push"};
      for (const auto& w : waves) {
        stream.push(w);
      }
    }
    trace::scope s{"engine.wave_engine/stream_finish"};
    packed = stream.finish();
  }
  trace::scope s{"engine.wave_engine/unpack"};
  return packed.unpack();
}

struct rotation_totals {
  double call_seconds{0.0};   ///< every timed call of the rotation
  double large_seconds{0.0};  ///< large calls + streams
  std::size_t large_waves{0};
};

rotation_totals rotation(const std::vector<arith_circuit>& circuits, std::size_t index,
                         bool traced, std::vector<double>& small_ms, result& res) {
  rotation_totals t;
  for (std::size_t k = 0; k < small_calls_per_rotation; ++k) {
    const auto& c = circuits[k % 4 == 3 ? 1 : 0];
    const auto& in = c.small[(index * small_calls_per_rotation + k) % small_pool];
    const auto start = clock_type::now();
    const auto out = bool_call(c, in, traced);
    const double s = seconds_since(start);
    small_ms.push_back(s * 1e3);
    t.call_seconds += s;
    ++res.attempted;
    check_outputs(c, in, out, 1, res);
  }
  for (const auto& c : circuits) {
    const auto start = clock_type::now();
    const auto out = bool_call(c, c.large, traced);
    const double s = seconds_since(start);
    t.call_seconds += s;
    t.large_seconds += s;
    t.large_waves += large_waves;
    ++res.attempted;
    check_outputs(c, c.large, out, large_waves / large_check_waves, res);
  }
  for (const auto& c : circuits) {
    const auto start = clock_type::now();
    const auto out = stream_call(c, c.large);
    const double s = seconds_since(start);
    t.call_seconds += s;
    t.large_seconds += s;
    t.large_waves += large_waves;
    ++res.attempted;
    check_outputs(c, c.large, out, large_waves / large_check_waves, res);
  }
  return t;
}

/// Bits crossing the bool boundary in one rotation, per direction.
struct boundary_bits {
  double packed{0.0};    ///< wave_batch::from_waves inputs (small + large calls)
  double unpacked{0.0};  ///< unpack outputs (small + large calls + streams)
  double pushed{0.0};    ///< wave_stream::push inputs
};

boundary_bits bits_per_rotation(const std::vector<arith_circuit>& circuits) {
  boundary_bits bits;
  for (const auto& c : circuits) {
    const double small_calls = (c.is_adder ? 0.75 : 0.25) * small_calls_per_rotation;
    const double call_waves = small_calls * small_waves + large_waves;
    const auto pis = static_cast<double>(c.net.num_pis());
    const auto pos = static_cast<double>(c.net.num_pos());
    bits.packed += pis * call_waves;
    bits.unpacked += pos * (call_waves + large_waves);
    bits.pushed += pis * large_waves;
  }
  return bits;
}

}  // namespace

result run_bool_batch(const config& cfg) {
  result out;
  auto& recorder = trace::recorder::global();
  std::vector<arith_circuit> circuits;
  recorder.enable(cfg.trace);
  const cpu_rotation cpus;
  const auto setup = [&] {
    std::mt19937_64 rng{cfg.seed};
    circuits.clear();
    circuits.push_back(make_circuit("adder64", cfg.trace, rng));
    circuits.push_back(make_circuit("mul32", cfg.trace, rng));
    // Warm-up: first-touch page faults and lazy kernel dispatch.
    (void)bool_call(circuits[0], circuits[0].small[0], false);
  };
  const double setup_s =
      cfg.trace ? median_setup_seconds(1, setup) : setup_seconds_on_fastest_cpu(3, cpus, setup);
  recorder.enable(false);
  auto setup_spans = recorder.take();

  // A traced run alternates untraced and traced rotations, so warm-up and
  // the host's slow stretches fall on both alike. Each rotation (with its
  // traced twin) runs on the next CPU in turn.
  std::vector<double> small_ms;
  std::vector<double> traced_small_ms;
  std::vector<rotation_totals> plain;
  std::vector<trace::span> spans;
  std::vector<double> ledger_seconds;  ///< per traced rotation: the sum of its spans' self times
  const auto start = clock_type::now();
  do {
    const std::size_t index = plain.size();
    (void)cpus.pin_thread(index);
    const auto traced_rotation = [&] {
      recorder.enable(true);
      (void)rotation(circuits, index, true, traced_small_ms, out);
      recorder.enable(false);
      auto rotation_spans = recorder.take();
      ledger_seconds.push_back(trace::self_seconds(rotation_spans));
      spans.insert(spans.end(), rotation_spans.begin(), rotation_spans.end());
    };
    // The first rotation on a CPU refills its caches; which of the pair
    // goes first alternates, so that cost falls on both alike.
    const bool traced_first = cfg.trace && index % 2 == 1;
    if (traced_first) {
      traced_rotation();
    }
    plain.push_back(rotation(circuits, index, false, small_ms, out));
    if (cfg.trace && !traced_first) {
      traced_rotation();
    }
  } while (seconds_since(start) < cfg.seconds);
  std::vector<double> rotation_rates;
  std::vector<double> plain_call_seconds;
  for (const auto& r : plain) {
    rotation_rates.push_back(static_cast<double>(r.large_waves) / r.large_seconds);
    plain_call_seconds.push_back(r.call_seconds);
  }

  if (!cfg.trace) {
    // Windows: each rotation, for the rate and for the latency percentiles.
    const double waves_per_s = fast_decile(rotation_rates, true);
    const double p50 =
        fast_decile(window_percentiles(small_ms, small_calls_per_rotation, 50), false);
    const double p99 = percentile(small_ms, 99);
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", waves_per_s);
    out.set("latency_p50_ms", p50);
    out.note("bool_waves_per_s = %.4g 1/s (65,536-wave calls and streams, %zu rotations)",
             waves_per_s, plain.size());
    out.note("bool_small_p50_ms = %.4f ms (windows of %zu calls), bool_small_p99_ms = %.4f ms "
             "(all %zu 64-wave calls)",
             p50, small_calls_per_rotation, p99, small_ms.size());
    return out;
  }

  const auto totals = trace::totals_by_name(spans);
  const auto self_ns = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  const auto rotations = static_cast<double>(ledger_seconds.size());
  set_stage_means(out, setup_spans, spans);
  std::size_t comb_ops = 0;
  std::size_t comb_slots = 0;
  for (const auto& c : circuits) {
    comb_ops += c.program->num_comb_ops();
    comb_slots += c.program->comb_slot_count();
  }
  out.set("engine.compile.comb_ops", static_cast<double>(comb_ops));
  out.set("engine.compile.comb_slots", static_cast<double>(comb_slots));
  const auto bits = bits_per_rotation(circuits);
  out.set("engine.pack_ns_per_bit",
          self_ns("engine.wave_engine/from_waves") / (bits.packed * rotations));
  out.set("engine.unpack_ns_per_bit",
          self_ns("engine.wave_engine/unpack") / (bits.unpacked * rotations));
  out.set("engine.stream_push_ns_per_bit",
          self_ns("engine.wave_engine/stream_push") / (bits.pushed * rotations));
  double all_self = 0.0;
  for (const auto& [name, t] : totals) {
    all_self += static_cast<double>(t.self_ns);
  }
  out.set("engine.kernel_share", self_ns("engine.kernel/run_waves_packed") / all_self);
  // Each traced rotation is paired with the untraced one of the same index,
  // run next to it on the same CPU; the ledger must account for the
  // untraced rotation time within 10%, pair by pair (the median ratio).
  report_ledger(out, spans);
  const double untraced = median(plain_call_seconds);
  report_overhead(out, untraced * paired_ratio(ledger_seconds, plain_call_seconds), untraced,
                  true);
  setup_spans.insert(setup_spans.end(), spans.begin(), spans.end());
  out.spans = std::move(setup_spans);
  return out;
}

}  // namespace wavebench
