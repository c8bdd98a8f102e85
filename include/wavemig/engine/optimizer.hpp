#pragma once

#include <cstddef>
#include <cstdint>

namespace wavemig::engine {

/// Knobs of the compiled-program optimizer that runs after lowering (see
/// compiled_netlist). Every level produces a program that is bit-identical
/// in its primary outputs — the optimizer only touches the combinational
/// program; the cycle-accurate oracle lowers its own tick program from the
/// network — so the level is a pure
/// compile-time / memory / throughput trade-off:
///
/// * `0` — raw lowering, exactly the ops the network dictates (one majority
///   op per majority node, buffers folded by reference forwarding).
/// * `1` — constant propagation through majority gates (M(x,x,y)=x,
///   M(x,!x,y)=y, and their constant instances), structural hashing /
///   common-subexpression elimination under majority self-duality
///   (M(!a,!b,!c) = !M(a,b,c)), and dead-op elimination from the
///   primary-output cone. Shrinks the op count.
/// * `2` — level 1 plus liveness-based slot recycling: a linear scan
///   reassigns op target slots from a free list, so the scratch working set
///   shrinks from one slot per gate to the program's peak liveness. This is
///   what keeps the multi-word packed kernel cache-resident on big MIGs.
struct compile_options {
  unsigned opt_level{0};
  /// Technology-scenario tag of the program (tech_scenario::fingerprint());
  /// 0 = untagged. The tag flows into the batch/serving cache key, so one
  /// session caches and serves different scenarios of the same netlist as
  /// distinct programs. It never changes the computed output words.
  std::uint64_t scenario_fingerprint{0};
  /// FDM lanes of the scenario (logical waves per physical conduit slot);
  /// 1 = no multiplexing. Affects clock metadata only: with n lanes a batch
  /// of w waves occupies ceil(w/n) physical slots and n waves ride each
  /// phase, so `ticks` shrinks and `waves_in_flight` grows n-fold while the
  /// computed outputs stay bit-identical.
  unsigned fdm_lanes{1};
};

/// Order-insensitive fingerprint of a full `compile_options` value. Joins
/// the batch/serving cache key so two programs compiled from the same
/// network under different options — a different opt level, scenario tag
/// or FDM lane count — occupy distinct cache entries and can never
/// cross-serve.
[[nodiscard]] constexpr std::uint64_t options_fingerprint(const compile_options& o) {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  };
  mix(o.opt_level);
  mix(o.scenario_fingerprint);
  mix(o.fdm_lanes);
  return h;
}

/// What the optimizer did to one compiled program. `ops_before/after` and
/// `slots_before/after` are the headline numbers (`*_before` describes the
/// raw lowering); the pass counters attribute the op shrinkage.
/// `peak_live_slots` is the measured peak liveness of the final program
/// order — the maximum number of gate values simultaneously live — filled
/// whenever the optimizer runs (opt level >= 1). At opt level >= 2 the
/// slot recycler allocates exactly that many gate slots, so `slots_after`
/// equals `peak_live_slots` plus the fixed constant/PI slots.
struct optimizer_stats {
  std::size_t ops_before{0};
  std::size_t ops_after{0};
  std::size_t slots_before{0};
  std::size_t slots_after{0};
  std::size_t constants_folded{0};
  std::size_t cse_hits{0};
  std::size_t dead_ops_removed{0};
  std::size_t peak_live_slots{0};
};

}  // namespace wavemig::engine
