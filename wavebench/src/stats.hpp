#pragma once

// Sample statistics of the benchmark: nearest-rank percentiles with the
// "ten samples beyond" support rule, the geometric mean, and the open-loop
// due-time schedule. Header-only so the helper tests link nothing else.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace wavebench {

/// 1-based nearest rank of percentile `pct` (1..100) in `n` samples:
/// ceil(pct * n / 100), computed in integers so p99 of 1000 samples is
/// exactly rank 990.
constexpr std::size_t nearest_rank(std::size_t n, unsigned pct) {
  const std::size_t rank = (static_cast<std::size_t>(pct) * n + 99) / 100;
  return rank == 0 ? 1 : rank;
}

/// A percentile is reported only when at least `min_beyond` samples lie
/// above its rank, so a tail figure is never the single slowest sample.
constexpr bool percentile_supported(std::size_t n, unsigned pct, std::size_t min_beyond = 10) {
  return n > 0 && n - nearest_rank(n, pct) >= min_beyond;
}

/// Nearest-rank percentile: always an actual sample, never an
/// interpolation. Throws on an empty sample.
inline double percentile(std::vector<double> samples, unsigned pct) {
  if (samples.empty() || pct == 0 || pct > 100) {
    throw std::invalid_argument{"percentile: need samples and 1 <= pct <= 100"};
  }
  const std::size_t index = nearest_rank(samples.size(), pct) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

inline double median(std::vector<double> samples) { return percentile(std::move(samples), 50); }

/// The throughput and median figure a run reports from per-window figures.
/// On a shared host each CPU spends stretches of seconds up to a third or
/// more slower than usual (the thread keeps running, so this is contention
/// for the core, not stolen time), and the share of slow time differs from
/// run to run by more than a change worth detecting. So a run computes its
/// rate or median latency per window and reports the edge of the fastest
/// tenth of windows: the 90th percentile of rates, the 10th of times. Tail
/// latencies are not taken this way (a stall in most windows but not all
/// would vanish); the tails a run prints are over all of its samples.
inline double fast_decile(std::vector<double> per_window, bool higher_is_better) {
  return percentile(std::move(per_window), higher_is_better ? 90 : 10);
}

/// `stat` of each run of `group` consecutive samples (time order); a short
/// last run joins the one before it.
template <typename Stat>
std::vector<double> per_group(const std::vector<double>& samples, std::size_t group, Stat stat) {
  std::vector<double> out;
  const std::size_t groups = std::max<std::size_t>(1, samples.size() / group);
  for (std::size_t g = 0; g < groups; ++g) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(g * group);
    const auto last = g + 1 == groups ? samples.end() : first + static_cast<std::ptrdiff_t>(group);
    out.push_back(stat(std::vector<double>(first, last)));
  }
  return out;
}

/// Latency percentile `pct` of each run of `group` consecutive samples.
inline std::vector<double> window_percentiles(const std::vector<double>& samples,
                                              std::size_t group, unsigned pct) {
  return per_group(samples, group,
                   [pct](std::vector<double> w) { return percentile(std::move(w), pct); });
}

/// Geometric mean of strictly positive values; throws otherwise (a zero
/// rate would make every other rate irrelevant).
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) {
    throw std::invalid_argument{"geomean: no values"};
  }
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) {
      throw std::invalid_argument{"geomean: values must be positive"};
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Median over pairs of `a[i] / b[i]`. The two runs of a pair ran back to
/// back on one CPU, so a slow stretch of the host falls on both; the ratio
/// cancels it where a ratio of separate medians would not. Throws on empty
/// or unequal inputs.
inline double paired_ratio(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.empty() || a.size() != b.size()) {
    throw std::invalid_argument{"paired_ratio: need equally many pairs, at least one"};
  }
  std::vector<double> ratios;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ratios.push_back(a[i] / b[i]);
  }
  return median(std::move(ratios));
}

/// Open-loop arrival schedule: `connections` senders share one nominal
/// rate, each sending every `connections / rate` seconds, staggered so the
/// merged stream is evenly spaced. Request `index` of connection `conn` is
/// due at `offset_s(conn, index)` seconds after the phase starts, whether or
/// not earlier requests have been answered.
struct open_loop_schedule {
  double rate_per_s;
  unsigned connections;

  [[nodiscard]] double offset_s(unsigned conn, std::size_t index) const {
    return (static_cast<double>(index) * connections + conn) / rate_per_s;
  }

  [[nodiscard]] std::chrono::steady_clock::time_point due(
      std::chrono::steady_clock::time_point start, unsigned conn, std::size_t index) const {
    return start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(offset_s(conn, index)));
  }

  /// Requests connection `conn` sends in a phase of `seconds`.
  [[nodiscard]] std::size_t requests_in(unsigned conn, double seconds) const {
    std::size_t n = 0;
    while (offset_s(conn, n) < seconds) {
      ++n;
    }
    return n;
  }
};

}  // namespace wavebench
