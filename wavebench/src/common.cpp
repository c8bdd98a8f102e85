#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/fanout_restriction.hpp"
#include "wavemig/loss_budget.hpp"
#include "wavemig/pipeline.hpp"
#include "wavemig/wave_schedule.hpp"

namespace wavebench {

using namespace wavemig;

void result::note(const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof buffer, fmt, args);
  va_end(args);
  notes.emplace_back(buffer);
}

void result::mismatch(const std::string& what) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
}

double median_setup_seconds(int reps, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto start = clock_type::now();
    setup();
    times.push_back(seconds_since(start));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

cpu_rotation::cpu_rotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error{"sched_getaffinity failed"};
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      cpus_.push_back(cpu);
    }
  }
  if (cpus_.empty()) {
    throw std::runtime_error{"no CPU in the affinity mask"};
  }
}

namespace {

cpu_set_t single_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return set;
}

}  // namespace

int cpu_rotation::pin_thread(std::size_t k) const {
  const int cpu = cpus_[k % cpus_.size()];
  const cpu_set_t set = single_cpu(cpu);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error{"sched_setaffinity failed"};
  }
  return cpu;
}

int cpu_rotation::pin_process(std::size_t k) const {
  const int cpu = cpus_[k % cpus_.size()];
  const cpu_set_t set = single_cpu(cpu);
  for (const auto& task : std::filesystem::directory_iterator{"/proc/self/task"}) {
    // A thread that ended since the listing has nothing left to move.
    (void)sched_setaffinity(std::stoi(task.path().filename().string()), sizeof set, &set);
  }
  return cpu;
}

double setup_seconds_on_fastest_cpu(int reps, const cpu_rotation& cpus,
                                    const std::function<void()>& setup) {
  std::vector<std::vector<double>> per_cpu(cpus.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t k = 0; k < cpus.size(); ++k) {
      (void)cpus.pin_process(k);
      const auto start = clock_type::now();
      setup();
      per_cpu[k].push_back(seconds_since(start));
    }
  }
  double fastest = per_cpu.front().front();
  for (auto& times : per_cpu) {
    std::sort(times.begin(), times.end());
    fastest = std::min(fastest, times[times.size() / 2]);
  }
  return fastest;
}

std::vector<bool> reference_eval(const mig_network& net, const std::vector<bool>& inputs) {
  std::vector<std::uint8_t> value(net.num_nodes(), 0);
  const auto read = [&](signal s) {
    return static_cast<std::uint8_t>(value[s.index()] ^ (s.is_complemented() ? 1u : 0u));
  };
  for (node_index n = 1; n < net.num_nodes(); ++n) {
    switch (net.kind(n)) {
      case node_kind::constant:
        break;
      case node_kind::primary_input:
        value[n] = inputs[net.pi_position(n)] ? 1 : 0;
        break;
      case node_kind::majority: {
        const auto f = net.fanins(n);
        const std::uint8_t a = read(f[0]);
        const std::uint8_t b = read(f[1]);
        const std::uint8_t c = read(f[2]);
        value[n] = static_cast<std::uint8_t>((a & b) | (b & c) | (a & c));
        break;
      }
      case node_kind::buffer:
      case node_kind::fanout:
        value[n] = read(net.fanins(n)[0]);
        break;
    }
  }
  std::vector<bool> out(net.num_pos());
  for (std::size_t p = 0; p < net.num_pos(); ++p) {
    out[p] = read(net.po_signal(p)) != 0;
  }
  return out;
}

std::vector<bool> expected_outputs(const std::string& circuit, const mig_network& reference,
                                   const std::vector<bool>& inputs) {
  const auto word = [&](std::size_t first, std::size_t count) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < count; ++i) {
      v |= static_cast<std::uint64_t>(inputs[first + i]) << i;
    }
    return v;
  };
  const auto bits = [](std::uint64_t v, std::size_t count) {
    std::vector<bool> out(count);
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = ((v >> i) & 1u) != 0;
    }
    return out;
  };
  if (circuit == "adder64") {
    const std::uint64_t a = word(0, 64);
    const std::uint64_t sum = a + word(64, 64);
    auto out = bits(sum, 64);
    out.push_back(sum < a);
    return out;
  }
  if (circuit == "mul32") {
    return bits(word(0, 32) * word(32, 32), 64);
  }
  return reference_eval(reference, inputs);
}

std::vector<std::uint64_t> random_planes(std::size_t num_pis, std::size_t num_waves,
                                         std::mt19937_64& rng) {
  const std::size_t chunks = (num_waves + 63) / 64;
  std::vector<std::uint64_t> words(num_pis * chunks);
  for (auto& w : words) {
    w = rng();
  }
  if (const std::size_t tail = num_waves % 64; tail != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << tail) - 1;
    for (std::size_t i = 0; i < num_pis; ++i) {
      words[(i + 1) * chunks - 1] &= mask;
    }
  }
  return words;
}

std::vector<bool> wave_inputs(const std::uint64_t* planes, std::size_t stride,
                              std::size_t num_pis, std::size_t wave) {
  std::vector<bool> in(num_pis);
  for (std::size_t i = 0; i < num_pis; ++i) {
    in[i] = plane_bit(planes, stride, i, wave);
  }
  return in;
}

std::size_t check_sampled_waves(const std::string& circuit, const mig_network& reference,
                                const std::uint64_t* in_planes, std::size_t in_stride,
                                const std::uint64_t* out_planes, std::size_t out_stride,
                                const std::vector<std::size_t>& waves) {
  std::size_t bad = 0;
  for (const std::size_t w : waves) {
    const auto expected = expected_outputs(
        circuit, reference, wave_inputs(in_planes, in_stride, reference.num_pis(), w));
    for (std::size_t p = 0; p < expected.size(); ++p) {
      if (plane_bit(out_planes, out_stride, p, w) != expected[p]) {
        ++bad;
        break;
      }
    }
  }
  return bad;
}

std::vector<std::size_t> sample_waves(std::size_t num_waves, std::size_t count,
                                      std::mt19937_64& rng) {
  std::set<std::size_t> picked{0, num_waves - 1};
  count = std::min(count, num_waves);
  std::uniform_int_distribution<std::size_t> any{0, num_waves - 1};
  while (picked.size() < count) {
    picked.insert(any(rng));
  }
  return {picked.begin(), picked.end()};
}

staged_flow run_flow_stages(const mig_network& net, const tech_scenario& scenario) {
  const pipeline_options defaults;
  staged_flow out;
  {
    trace::scope s{"mig/compute_stats"};
    (void)compute_stats(net);
  }
  const std::optional<unsigned> limit = defaults.fanout_limit.resolve(scenario);
  mig_network current = net;
  if (limit) {
    fanout_restriction_options fo;
    fo.limit = *limit;
    fo.fill_residual = defaults.fill_residual;
    trace::scope s{"core/restrict_fanout"};
    auto restricted = restrict_fanout(current, fo);
    out.fogs_added = restricted.fogs_added;
    current = std::move(restricted.net);
  }
  if (const auto budget = scenario.max_unregenerated_levels(); budget && defaults.enforce_loss) {
    loss_budget_options lb;
    lb.max_unregenerated_levels = budget;
    trace::scope s{"core/enforce_loss_budget"};
    auto regenerated = enforce_loss_budget(current, lb);
    out.repeaters_added = regenerated.repeaters_added;
    current = std::move(regenerated.net);
  }
  {
    buffer_insertion_options bi;
    bi.strategy = defaults.strategy;
    bi.schedule = defaults.schedule;
    if (limit && defaults.respect_limit_in_buffers) {
      bi.strategy = buffer_strategy::tree;
      bi.fanout_limit = limit;
    }
    trace::scope s{"core/insert_buffers"};
    auto balanced = insert_buffers(current, bi);
    out.buffers_added = balanced.buffers_added;
    current = std::move(balanced.net);
  }
  {
    trace::scope s{"mig/compute_stats"};
    out.final_stats = compute_stats(current);
  }
  level_map levels;
  {
    trace::scope s{"mig/compute_levels"};
    levels = compute_levels(current);
  }
  {
    trace::scope s{"mig/check_wave_readiness"};
    out.wave_ready = check_wave_readiness(current, levels, 0).ready;
  }
  out.net = std::move(current);
  return out;
}

bool same_stats(const network_stats& a, const network_stats& b) {
  return a.pis == b.pis && a.pos == b.pos && a.majorities == b.majorities &&
         a.buffers == b.buffers && a.fanout_gates == b.fanout_gates &&
         a.components == b.components && a.depth == b.depth && a.max_fanout == b.max_fanout;
}

}  // namespace wavebench
