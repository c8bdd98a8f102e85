#include "wavemig/timing.hpp"

#include <stdexcept>

#include "wavemig/inverter_optimization.hpp"

namespace wavemig {

timing_report analyze_stage_timing(const mig_network& net, const technology& tech,
                                   unsigned phases, bool optimize_polarity) {
  if (phases == 0) {
    throw std::invalid_argument{"analyze_stage_timing: at least one phase required"};
  }

  std::vector<bool> flip(net.num_nodes(), false);
  if (optimize_polarity) {
    flip = optimize_inverters(net).flip;
  }

  auto relative_delay = [&](node_index n) {
    switch (net.kind(n)) {
      case node_kind::majority:
        return tech.maj.delay;
      case node_kind::buffer:
        return tech.buf.delay;
      case node_kind::fanout:
        return tech.fog.delay;
      default:
        return 0.0;
    }
  };

  timing_report report;
  report.assumed_phase_delay_ns = tech.phase_delay_ns;

  double worst_relative = 0.0;
  net.foreach_component([&](node_index n) {
    // A buffer run of two or more stages flips as its last stage (see
    // inverter_optimization.hpp): its first stage sees the in-edge without
    // its own flip, its last stage an inverter iff the run is flipped.
    const bool long_run = net.length(n) > 1;
    bool has_inverter = long_run && flip[n];
    for (const signal f : net.fanins(n)) {
      if (net.is_constant(f.index())) {
        continue;
      }
      const bool inverter = f.is_complemented() ^ flip[f.index()] ^ (flip[n] && !long_run);
      has_inverter = has_inverter || inverter;
    }
    const double stage = relative_delay(n) + (has_inverter ? tech.inv.delay : 0.0);
    if (stage > worst_relative) {
      worst_relative = stage;
      report.critical_node = n;
      report.critical_has_inverter = has_inverter;
    }
  });

  if (worst_relative == 0.0) {
    worst_relative = tech.maj.delay;  // no components: fall back to one gate
  }
  report.required_phase_delay_ns = tech.cell_delay_ns * worst_relative;
  report.slack_ratio = report.assumed_phase_delay_ns / report.required_phase_delay_ns;
  report.effective_wp_throughput_mops =
      1e3 / (static_cast<double>(phases) * report.required_phase_delay_ns);
  return report;
}

timing_report analyze_stage_timing(const mig_network& net, const tech_scenario& scenario,
                                   unsigned phases, bool optimize_polarity) {
  timing_report report = analyze_stage_timing(net, scenario.tech, phases, optimize_polarity);
  if (scenario.fdm_lanes > 1) {
    report.effective_wp_throughput_mops *= static_cast<double>(scenario.fdm_lanes);
  }
  return report;
}

}  // namespace wavemig
