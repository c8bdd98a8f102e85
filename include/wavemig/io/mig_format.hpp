#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "wavemig/mig.hpp"

namespace wavemig::io {

/// Error thrown by all readers on malformed input; carries a line number.
class parse_error : public std::runtime_error {
public:
  parse_error(std::size_t line, const std::string& message)
      : std::runtime_error{"line " + std::to_string(line) + ": " + message}, line_{line} {}

  [[nodiscard]] std::size_t line() const { return line_; }

private:
  std::size_t line_;
};

/// Writes the native `.mig` netlist format:
///
///     # comment
///     .model <name>
///     .inputs <name> ...
///     <name> = MAJ(<op>, <op>, <op>)
///     <name> = BUF(<op>)
///     <name> = BUF(<op>, <length>)
///     <name> = FOG(<op>)
///     .output <name> = <op>
///
/// where an operand is `[!]<name>`, `0`, or `1`, and `BUF(<op>, <length>)`
/// is a buffer run of `<length>` stages (the writer emits the two-operand
/// form for runs longer than one). Definitions precede uses (the writer
/// emits topological order; the reader enforces it). `.inputs` lines may
/// appear anywhere: the writer emits every node at its index, a PI run as
/// one `.inputs` line, so a read-back network has the same node order and
/// the same `engine::network_fingerprint` as the one written.
void write_mig(const mig_network& net, std::ostream& os, const std::string& model_name = "mig");
void write_mig_file(const mig_network& net, const std::string& path,
                    const std::string& model_name = "mig");

/// Reads the native format. Round-trips with write_mig (structure, node
/// order and names preserved). Besides malformed lines, a
/// buffer run length of 0 or beyond 32 bits and runs whose unit-buffer
/// form would exceed the 31-bit node index space are parse errors. That
/// bound caps every level below 2^31, so nothing downstream ever levels a
/// netlist past the 32-bit range or expands more stages than a network can
/// index.
mig_network read_mig(std::istream& is);
mig_network read_mig_file(const std::string& path);

}  // namespace wavemig::io
