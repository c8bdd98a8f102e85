#include <cmath>
#include <string>

#include "workloads.hpp"

namespace wavebench {

namespace {

/// The ledger's layers: the library's modules plus the benchmark's own
/// code (reference checks and glue between calls).
const char* const ledger_layers[] = {"gen",
                                     "mig",
                                     "core",
                                     "engine.compile",
                                     "engine.wave_engine",
                                     "engine.kernel",
                                     "engine.parallel_executor",
                                     "engine.serving",
                                     "net",
                                     "bench"};

double mean_ms(const std::map<std::string, trace::name_totals>& totals, const char* name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.calls == 0) {
    return 0.0;
  }
  return static_cast<double>(it->second.total_ns) / 1e6 / static_cast<double>(it->second.calls);
}

}  // namespace

void set_stage_means(result& out, const std::vector<trace::span>& setup_spans,
                     const std::vector<trace::span>& spans) {
  const auto setup = trace::totals_by_name(setup_spans);
  const auto measured = trace::totals_by_name(spans);
  const auto stage = [&](const char* metric, const char* span_name) {
    const double m = mean_ms(measured, span_name);
    out.set(metric, m != 0.0 ? m : mean_ms(setup, span_name));
  };
  stage("gen.build_ms", "gen/build");
  stage("mig.stats_ms", "mig/compute_stats");
  stage("mig.levels_ms", "mig/compute_levels");
  stage("mig.readiness_ms", "mig/check_wave_readiness");
  stage("core.fanout_restriction_ms", "core/restrict_fanout");
  stage("core.loss_budget_ms", "core/enforce_loss_budget");
  stage("core.buffer_insertion_ms", "core/insert_buffers");
  stage("engine.compile_ms", "engine.compile/compiled_netlist");
}

void report_ledger(result& out, const std::vector<trace::span>& spans) {
  const auto by_layer = trace::self_ns_by_layer(spans);
  double total_ns = 0.0;
  for (const auto& [layer, ns] : by_layer) {
    total_ns += static_cast<double>(ns);
  }
  out.note("ledger (self time per layer over %zu spans, %.3f s):", spans.size(), total_ns / 1e9);
  for (const char* layer : ledger_layers) {
    const auto it = by_layer.find(layer);
    const double ns = it == by_layer.end() ? 0.0 : static_cast<double>(it->second);
    out.set(std::string{"ledger."} + layer + ".share", total_ns > 0.0 ? ns / total_ns : 0.0);
    if (ns > 0.0) {
      out.note("  %-26s %10.3f ms  %5.1f%%", layer, ns / 1e6, 100.0 * ns / total_ns);
    }
  }
  for (const auto& [layer, ns] : by_layer) {
    bool known = false;
    for (const char* l : ledger_layers) {
      known = known || layer == l;
    }
    if (!known) {
      out.mismatch("span layer '" + layer + "' is not a ledger layer");
    }
  }
}

void report_overhead(result& out, double traced_per_op, double untraced_per_op, bool reconcile) {
  const double overhead_pct = 100.0 * (traced_per_op - untraced_per_op) / untraced_per_op;
  out.set("trace.overhead_pct", overhead_pct);
  out.note("tracing overhead: %.3f ms traced vs %.3f ms untraced per operation (%+.2f%%)",
           traced_per_op * 1e3, untraced_per_op * 1e3, overhead_pct);
  if (!reconcile) {
    return;
  }
  constexpr double limit_pct = 10.0;
  out.note("ledger: the spans' self times sum to %.3f ms per operation, %.2f%% from the untraced "
           "%.3f ms (limit %.0f%%)",
           traced_per_op * 1e3, std::fabs(overhead_pct), untraced_per_op * 1e3, limit_pct);
  if (!(std::fabs(overhead_pct) <= limit_pct)) {
    out.mismatch("the ledger does not reconcile with the untraced time");
  }
}

}  // namespace wavebench
