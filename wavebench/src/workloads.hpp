#pragma once

#include "common.hpp"

namespace wavebench {

result run_flow_suite(const config& cfg);
result run_bool_batch(const config& cfg);
result run_plane_bulk(const config& cfg);
result run_wire_serve(const config& cfg);

/// Sets the per-call stage means (gen.build_ms, mig.*_ms, core.*_ms,
/// engine.compile_ms) from the measurement phase's spans, falling back to
/// the set-up spans for stages only set-up runs.
void set_stage_means(result& out, const std::vector<trace::span>& setup_spans,
                     const std::vector<trace::span>& spans);

/// Sets each ledger layer's share of the traced self time and notes the
/// layer self times.
void report_ledger(result& out, const std::vector<trace::span>& spans);

/// Sets trace.overhead_pct: traced seconds per operation against untraced
/// seconds per operation. With `reconcile`, `traced_per_op` is the sum of
/// the spans' self times per operation, and a difference of more than 10%
/// from the untraced time is a failed check (a mismatch).
void report_overhead(result& out, double traced_per_op, double untraced_per_op, bool reconcile);

}  // namespace wavebench
