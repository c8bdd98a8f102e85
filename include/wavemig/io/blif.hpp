#pragma once

#include <iosfwd>
#include <string>

#include "wavemig/mig.hpp"

namespace wavemig::io {

/// Reads a combinational BLIF subset: `.model`, `.inputs`, `.outputs`,
/// single-output `.names` covers (cube lines over {0,1,-} with on-set or
/// off-set output column), and `.end`. Each cover is converted to majority
/// logic as an OR of AND cubes (off-set covers are complemented). Latches
/// and hierarchy are rejected with parse_error.
mig_network read_blif(std::istream& is);
mig_network read_blif_file(const std::string& path);

/// Writes BLIF. Majority gates become three-cube `.names`, buffers and
/// fan-out gates single-cube identity `.names`, and complemented edges
/// materialize one shared inverter `.names` per driver. A buffer run is
/// written as its chain of unit buffers (expand_buffer_runs).
void write_blif(const mig_network& net, std::ostream& os, const std::string& model_name = "mig");
void write_blif_file(const mig_network& net, const std::string& path,
                     const std::string& model_name = "mig");

}  // namespace wavemig::io
