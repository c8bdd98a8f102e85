#pragma once

#include <iosfwd>
#include <string>

#include "wavemig/mig.hpp"

namespace wavemig::io {

/// Writes structural Verilog: one `assign` per component, with majority
/// expanded to (a&b)|(a&c)|(b&c) and edge complements inlined as `~`.
/// Buffers and fan-out gates become identity assigns, preserving the
/// physical netlist structure for downstream tools; a buffer run becomes
/// one assign per stage (expand_buffer_runs).
void write_verilog(const mig_network& net, std::ostream& os,
                   const std::string& module_name = "mig");
void write_verilog_file(const mig_network& net, const std::string& path,
                        const std::string& module_name = "mig");

/// Reads a combinational structural-Verilog subset: one module; `input`,
/// `output` and `wire` declarations; `assign` statements over `~ & | ^ ()`
/// expressions, identifiers (plain or backslash-escaped), and the constants
/// 1'b0 / 1'b1. The canonical majority pattern (a&b)|(a&c)|(b&c) emitted by
/// write_verilog is recognized and rebuilt as a single majority gate, and
/// identity assigns tagged `// BUF` or `// FOG` restore physical buffers and
/// fan-out gates, so write/read round trips preserve structure. Other
/// expressions synthesize through AND/OR/XOR majority construction.
/// Definitions may appear in any order; combinational cycles are rejected
/// with parse_error.
mig_network read_verilog(std::istream& is);
mig_network read_verilog_file(const std::string& path);

}  // namespace wavemig::io
