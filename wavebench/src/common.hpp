#pragma once

// Shared pieces of the workloads: run configuration and result, the plain
// per-wave reference evaluator the engine is checked against, plane-major
// input generation, and the flow decomposed into its passes for the traced
// run.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "trace.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/mig.hpp"
#include "wavemig/tech_scenario.hpp"

namespace wavebench {

using clock_type = std::chrono::steady_clock;

inline double seconds_since(clock_type::time_point since) {
  return std::chrono::duration<double>(clock_type::now() - since).count();
}

struct config {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  unsigned nproc{1};
};

/// What a workload reports. `values` holds metric values by the names of
/// BENCHMARK.json (end-to-end names untraced, per-layer names traced);
/// `notes` are human-readable lines printed before the result line.
struct result {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::map<std::string, double> values;
  std::vector<std::string> notes;
  std::vector<trace::span> spans;

  void set(const std::string& name, double value) { values[name] = value; }
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Records an output mismatch: the run is incorrect and the operation
  /// counts as failed.
  void mismatch(const std::string& what);
};

/// Runs `setup` `reps` times and returns the median wall time in seconds;
/// the last repetition's state is what the workload measures.
double median_setup_seconds(int reps, const std::function<void()>& setup);

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mb();

/// The CPUs the process may run on when it starts, taken in turn. On a
/// shared host one vCPU can run a third or more slower than another for
/// tens of seconds, and which one is slow changes (bool_batch's 64-wave p50
/// measured 0.14 ms on two vCPUs and 0.22 ms on the other two in the same
/// minute). A loop that runs on one CPU moves to the next one every
/// measurement window, so the fastest tenth of its windows is the program
/// on the fastest CPU of the run rather than on whichever CPU the scheduler
/// left it on.
class cpu_rotation {
public:
  cpu_rotation();

  [[nodiscard]] std::size_t size() const { return cpus_.size(); }

  /// Pins the calling thread to CPU `k` of the rotation (modulo its size);
  /// returns the CPU's number.
  int pin_thread(std::size_t k) const;

  /// Pins every thread of the process to CPU `k` of the rotation; threads
  /// made afterwards inherit it from their creator.
  int pin_process(std::size_t k) const;

private:
  std::vector<int> cpus_;
};

/// Set-up time of a workload that runs on one CPU at a time: `reps`
/// set-ups on every CPU of `cpus` (taking the CPUs in turn, so a slow
/// stretch of time does not fall on one CPU's set-ups alone), the median
/// per CPU, and the fastest CPU's median, as the workload's windows report
/// the fastest CPU of the run. The last set-up's state is what the workload
/// measures.
double setup_seconds_on_fastest_cpu(int reps, const cpu_rotation& cpus,
                                    const std::function<void()>& setup);

/// Plain oracle: evaluates `net` on one input wave node by node in index
/// (topological) order — no compilation, no packing, none of the engine.
std::vector<bool> reference_eval(const wavemig::mig_network& net, const std::vector<bool>& inputs);

/// Expected outputs of one input wave of circuit `circuit`: integer
/// arithmetic for adder64 (a + b, then the carry) and mul32 (the 64-bit
/// product a * b), reference_eval of the pre-flow `reference` otherwise.
std::vector<bool> expected_outputs(const std::string& circuit,
                                   const wavemig::mig_network& reference,
                                   const std::vector<bool>& inputs);

/// Random plane-major input words for `num_waves` waves (tail bits zero).
std::vector<std::uint64_t> random_planes(std::size_t num_pis, std::size_t num_waves,
                                         std::mt19937_64& rng);

inline bool plane_bit(const std::uint64_t* planes, std::size_t stride, std::size_t signal,
                      std::size_t wave) {
  return ((planes[signal * stride + wave / 64] >> (wave % 64)) & 1u) != 0;
}

/// Input wave `wave` of a plane-major block.
std::vector<bool> wave_inputs(const std::uint64_t* planes, std::size_t stride,
                              std::size_t num_pis, std::size_t wave);

/// Compares the outputs of `waves` in a plane-major result block against
/// `expected_outputs`. Returns the number of mismatching waves.
std::size_t check_sampled_waves(const std::string& circuit, const wavemig::mig_network& reference,
                                const std::uint64_t* in_planes, std::size_t in_stride,
                                const std::uint64_t* out_planes, std::size_t out_stride,
                                const std::vector<std::size_t>& waves);

/// `count` distinct wave indices below `num_waves`, always including the
/// first and last wave (chunk edges are where packing bugs show).
std::vector<std::size_t> sample_waves(std::size_t num_waves, std::size_t count,
                                      std::mt19937_64& rng);

/// The wave-pipelining flow of wavemig::wave_pipeline (default options
/// under `scenario`), called pass by pass with a span around each call.
struct staged_flow {
  wavemig::mig_network net;
  wavemig::network_stats final_stats;
  std::size_t fogs_added{0};
  std::size_t repeaters_added{0};
  std::size_t buffers_added{0};
  bool wave_ready{false};
};
staged_flow run_flow_stages(const wavemig::mig_network& net,
                            const wavemig::tech_scenario& scenario);

bool same_stats(const wavemig::network_stats& a, const wavemig::network_stats& b);

}  // namespace wavebench
