#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "wavemig/technology.hpp"

namespace wavemig {

/// An *active* technology scenario: the passive Table I constants
/// (`technology`) extended with the axes the related work shows actually
/// differentiate beyond-CMOS targets, consumed by every downstream layer:
///
/// * **fan-out capability** — per-gate fan-out limit that
///   `pipeline_options` / `fanout_restriction` derive their restriction
///   value from ("Fan-out enabled spin wave majority gate",
///   arXiv:2109.05219 demonstrates fan-outs of 2; the paper's §IV sweeps
///   2..5);
/// * **FDM lanes** — frequency-division multiplexing carries several
///   logical waves per physical conduit slot ("Reconfigurable nanoscale
///   spin wave majority gate with frequency-division multiplexing",
///   arXiv:1908.02546); the engine models `fdm_lanes` as a wave-count
///   multiplier per physical pass (clock metadata only — computed outputs
///   are lane-independent);
/// * **attenuation / regeneration budget** — spin waves attenuate as they
///   propagate; once the accumulated loss exceeds what one
///   repeater/transducer restores, the loss-budget pass
///   (`enforce_loss_budget`) must insert a regenerating repeater buffer,
///   costed by `repeater`.
///
/// The scenario also keys compiled programs: `fingerprint()` joins the
/// batch/serving cache key, so one session caches and serves different
/// scenarios of the same netlist as distinct programs.
struct tech_scenario {
  std::string name;
  technology tech;

  /// Per-gate fan-out capability; nullopt = unlimited fan-out (no
  /// restriction pass). The pipeline derives its default limit from this —
  /// see pipeline_options::fanout_limit for the precedence.
  std::optional<unsigned> fanout_limit{3};

  /// Logical waves per physical conduit slot (FDM frequency channels);
  /// 1 = no multiplexing.
  unsigned fdm_lanes{1};

  /// Amplitude loss per traversed logic level (majority or fan-out gate),
  /// in dB; 0 = lossless (the paper's model).
  double attenuation_db_per_level{0.0};

  /// Loss budget one repeater (or the input transducer) restores, in dB.
  /// Only meaningful with attenuation > 0.
  double regeneration_db{0.0};

  /// Relative cost of a repeater buffer inserted by the loss-budget pass,
  /// in technology cells (same units as technology::buf — a repeater is a
  /// buffer with an active regeneration stage).
  component_costs repeater{2.0, 1.0, 2.0};

  /// Logic levels a wave may traverse without regeneration:
  /// floor(regeneration_db / attenuation_db_per_level), clamped to >= 1.
  /// nullopt when the scenario is lossless (attenuation <= 0).
  [[nodiscard]] std::optional<unsigned> max_unregenerated_levels() const;

  /// Order-sensitive semantic fingerprint (name, constants, fan-out, lanes,
  /// loss budget, repeater cost). Never zero — zero is the "no scenario"
  /// key of the batch/serving program cache. Scenarios that compile or cost
  /// differently fingerprint differently (modulo 64-bit collisions).
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Spin Wave Devices, the paper's Table I/II model: fan-out 3, no FDM,
  /// lossless.
  static tech_scenario swd();
  /// Quantum-dot Cellular Automata: majority-cell fan-out 4, lossless.
  static tech_scenario qca();
  /// NanoMagnetic Logic: conservative fan-out 2, lossless.
  static tech_scenario nml();
  /// FDM-enabled spin wave variant (arXiv:1908.02546 + arXiv:2109.05219):
  /// fan-out 2, 4 frequency lanes per conduit, and an attenuation budget
  /// (0.25 dB/level against 2.5 dB regeneration = repeater every 10 levels).
  static tech_scenario fdm_swd();

  /// Registry lookup by name (case-insensitive). Throws
  /// unknown_technology_error for anything not in `names()`.
  static tech_scenario by_name(const std::string& name);
  /// The built-in scenario names: SWD, QCA, NML, FDM-SWD.
  static const std::vector<std::string>& names();
};

}  // namespace wavemig
