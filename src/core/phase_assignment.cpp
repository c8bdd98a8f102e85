#include "wavemig/phase_assignment.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace wavemig {

double phase_assignment::load_imbalance() const {
  if (load.empty()) {
    return 0.0;
  }
  const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
  if (*hi == 0) {
    return 0.0;
  }
  return static_cast<double>(*hi - *lo) / static_cast<double>(*hi);
}

phase_assignment assign_phases(const mig_network& net, const level_map& schedule,
                               unsigned phases) {
  if (phases == 0) {
    throw std::invalid_argument{"assign_phases: at least one phase required"};
  }
  if (schedule.level.size() != net.num_nodes()) {
    throw std::invalid_argument{"assign_phases: schedule does not match the network"};
  }
  phase_assignment result;
  result.phases = phases;
  result.phase.assign(net.num_nodes(), 0);
  result.load.assign(phases, 0);

  const auto phase_of = [&](std::uint32_t lvl) {
    return static_cast<std::uint8_t>(lvl == 0 ? 0 : (lvl - 1) % phases);
  };
  net.foreach_component([&](node_index n) {
    const std::uint32_t lvl = schedule.level[n];
    result.phase[n] = phase_of(lvl);
    // Each stage of a buffer run loads its own phase; the stages sit at
    // lvl - length + 1 ... lvl (those below level 1 in phase 0).
    for (std::uint32_t j = 0; j < net.length(n); ++j) {
      ++result.load[phase_of(lvl >= j ? lvl - j : 0)];
    }
  });
  return result;
}

phase_assignment assign_phases(const mig_network& net, unsigned phases) {
  return assign_phases(net, compute_levels(net), phases);
}

void write_phase_report(const mig_network& net, const level_map& schedule,
                        const phase_assignment& assignment, std::ostream& os) {
  os << "clock phases: " << assignment.phases << "\n";
  for (unsigned p = 0; p < assignment.phases; ++p) {
    os << "  phase " << p + 1 << ": " << assignment.load[p] << " components\n";
  }
  os << "load imbalance: " << assignment.load_imbalance() << "\n";

  // Wave-front composition per level.
  std::vector<std::size_t> majorities(schedule.depth + 1, 0);
  std::vector<std::size_t> buffers(schedule.depth + 1, 0);
  std::vector<std::size_t> fogs(schedule.depth + 1, 0);
  net.foreach_component([&](node_index n) {
    const std::uint32_t lvl = schedule.level[n];
    if (lvl > schedule.depth) {
      return;
    }
    if (net.is_majority(n)) {
      ++majorities[lvl];
    } else if (net.is_buffer(n)) {
      for (std::uint32_t j = 0; j < net.length(n) && j <= lvl; ++j) {
        ++buffers[lvl - j];  // one per stage of the run
      }
    } else {
      ++fogs[lvl];
    }
  });
  os << "level | phase |   MAJ   BUF   FOG\n";
  for (std::uint32_t lvl = 1; lvl <= schedule.depth; ++lvl) {
    os << "  " << lvl << "  |  " << ((lvl - 1) % assignment.phases) + 1 << "  | " << majorities[lvl]
       << " " << buffers[lvl] << " " << fogs[lvl] << "\n";
  }
}

}  // namespace wavemig
