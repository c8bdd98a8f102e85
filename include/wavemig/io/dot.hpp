#pragma once

#include <iosfwd>
#include <string>

#include "wavemig/mig.hpp"

namespace wavemig::io {

/// Writes a Graphviz dot rendering: majority gates as ellipses, buffers as
/// boxes (one per stage of a buffer run), fan-out gates as triangles,
/// complemented edges dashed, nodes ranked by level (so wave fronts line
/// up visually).
void write_dot(const mig_network& net, std::ostream& os);
void write_dot_file(const mig_network& net, const std::string& path);

}  // namespace wavemig::io
