#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "wavemig/levels.hpp"
#include "wavemig/mig.hpp"

namespace wavemig {

/// Assignment of components to regeneration-clock phases (the paper's
/// Fig. 4): a component at scheduled level l belongs to phase (l-1) mod P,
/// so each phase fires every P ticks and data advances one level per tick.
/// Primary inputs belong to the injection slot (phase 0 fires as new data
/// is presented).
struct phase_assignment {
  unsigned phases{3};
  /// Phase per node; PIs and constants are 0. A buffer run's entry is the
  /// phase of its last stage; `load` counts each of its stages.
  std::vector<std::uint8_t> phase;
  /// Number of clocked components per phase — the per-phase clock load that
  /// a clocking network must drive (the overhead the paper's §V explicitly
  /// leaves out of its comparisons).
  std::vector<std::size_t> load;

  /// Largest relative spread between phase loads (0 = perfectly balanced).
  [[nodiscard]] double load_imbalance() const;
};

/// Computes the phase assignment from a schedule (use the schedule returned
/// by buffer insertion for tolerance-balanced netlists).
phase_assignment assign_phases(const mig_network& net, const level_map& schedule,
                               unsigned phases = 3);

/// Convenience overload using ASAP levels.
phase_assignment assign_phases(const mig_network& net, unsigned phases = 3);

/// Writes a human-readable clock report: per-phase component loads and the
/// level-by-level composition of each wave front.
void write_phase_report(const mig_network& net, const level_map& schedule,
                        const phase_assignment& assignment, std::ostream& os);

}  // namespace wavemig
