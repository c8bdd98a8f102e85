#include "wavemig/wave_simulator.hpp"

#include <stdexcept>

#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/levels.hpp"

// Thin front-ends over the execution engine (engine/): the network is
// lowered once per call, into the engine's pre-bucketed tick program or
// the packed combinational program, which does the actual work. See
// engine/wave_engine.hpp for the execution model.

namespace wavemig {

namespace {

// Validation lives in the engine layer: engine::run_waves checks the
// schedule, phases and wave widths, the compiled_netlist constructor
// rejects a mismatched schedule, and wave_batch/run_waves_packed cover the
// packed path.

wave_run_result unpack_packed(const engine::packed_wave_result& packed) {
  wave_run_result result;
  result.outputs = packed.unpack();
  result.ticks = packed.ticks;
  result.latency_ticks = packed.latency_ticks;
  result.initiation_interval = packed.initiation_interval;
  result.waves_in_flight = packed.waves_in_flight;
  return result;
}

}  // namespace

wave_run_result run_waves(const mig_network& net, const std::vector<std::vector<bool>>& waves,
                          unsigned phases) {
  return run_waves(net, waves, phases, compute_levels(net));
}

wave_run_result run_waves(const mig_network& net, const std::vector<std::vector<bool>>& waves,
                          unsigned phases, const level_map& schedule) {
  return engine::run_waves(net, schedule, waves, phases);
}

wave_run_result run_waves_packed(const mig_network& net,
                                 const std::vector<std::vector<bool>>& waves, unsigned phases) {
  return run_waves_packed(net, waves, phases, compute_levels(net));
}

wave_run_result run_waves_packed(const mig_network& net,
                                 const std::vector<std::vector<bool>>& waves, unsigned phases,
                                 const level_map& schedule) {
  const engine::compiled_netlist compiled{net, schedule};
  const auto batch = engine::wave_batch::from_waves(waves, net.num_pis());
  return unpack_packed(engine::run_waves_packed(compiled, batch, phases));
}

}  // namespace wavemig
