#include "wavemig/io/mig_format.hpp"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "wavemig/io/text_util.hpp"
#include "wavemig/levels.hpp"

namespace wavemig::io {

namespace {

std::string node_name(const mig_network& net, node_index n) {
  if (net.is_pi(n)) {
    return net.pi_name(net.pi_position(n));
  }
  return "n" + std::to_string(n);
}

std::string operand(const mig_network& net, signal s) {
  if (net.is_constant(s.index())) {
    return s.is_complemented() ? "1" : "0";
  }
  return (s.is_complemented() ? "!" : "") + node_name(net, s.index());
}

}  // namespace

void write_mig(const mig_network& net, std::ostream& os, const std::string& model_name) {
  os << "# wavemig netlist\n.model " << model_name << '\n';

  // PIs are written at their node positions, one `.inputs` line per run of
  // consecutive PIs, so the reader rebuilds every node at its own index.
  bool in_inputs = false;
  net.foreach_node([&](node_index n) {
    if (net.is_pi(n)) {
      os << (in_inputs ? " " : ".inputs ") << node_name(net, n);
      in_inputs = true;
      return;
    }
    if (in_inputs) {
      os << '\n';
      in_inputs = false;
    }
    switch (net.kind(n)) {
      case node_kind::majority: {
        const auto fis = net.fanins(n);
        os << node_name(net, n) << " = MAJ(" << operand(net, fis[0]) << ", "
           << operand(net, fis[1]) << ", " << operand(net, fis[2]) << ")\n";
        break;
      }
      case node_kind::buffer:
        os << node_name(net, n) << " = BUF(" << operand(net, net.fanins(n)[0]);
        if (net.length(n) != 1) {
          os << ", " << net.length(n);
        }
        os << ")\n";
        break;
      case node_kind::fanout:
        os << node_name(net, n) << " = FOG(" << operand(net, net.fanins(n)[0]) << ")\n";
        break;
      default:
        break;
    }
  });
  if (in_inputs) {
    os << '\n';
  }

  for (const auto& po : net.pos()) {
    os << ".output " << po.name << " = " << operand(net, po.driver) << '\n';
  }
}

void write_mig_file(const mig_network& net, const std::string& path,
                    const std::string& model_name) {
  std::ofstream os{path};
  if (!os) {
    throw std::runtime_error{"write_mig_file: cannot open '" + path + "'"};
  }
  write_mig(net, os, model_name);
}

namespace {

struct reader_state {
  mig_network net;
  std::unordered_map<std::string, signal> symbols;
  std::size_t line_no{0};

  /// Rejects a run that grows the network's unit-buffer form past the
  /// 31-bit node index space. Every level is bounded by that count, so no
  /// level of an accepted netlist can overflow either.
  signal checked_run(signal s) const {
    if (expanded_num_nodes(net) > std::numeric_limits<std::int32_t>::max()) {
      throw parse_error{line_no, "buffer runs exceed the node index space"};
    }
    return s;
  }

  /// A buffer run length: decimal digits only, 1 .. 2^32 - 1.
  std::uint32_t parse_length(const std::string& token) const {
    std::uint32_t value = 0;
    const char* end = token.data() + token.size();
    const auto [stop, error] = std::from_chars(token.data(), end, value);
    if (error != std::errc{} || stop != end || value == 0) {
      throw parse_error{line_no, "buffer run length '" + token + "' is not in 1 .. 2^32 - 1"};
    }
    return value;
  }

  signal parse_operand(std::string token) {
    if (token == "0") {
      return constant0;
    }
    if (token == "1") {
      return constant1;
    }
    bool complemented = false;
    if (!token.empty() && token[0] == '!') {
      complemented = true;
      token.erase(0, 1);
    }
    const auto it = symbols.find(token);
    if (it == symbols.end()) {
      throw parse_error{line_no, "use of undefined signal '" + token + "'"};
    }
    return it->second.complement_if(complemented);
  }
};

/// Splits "NAME = KIND(op, op, op)" into pieces; returns false if the line
/// is not an assignment.
bool split_assignment(const std::string& line, std::string& name, std::string& kind,
                      std::vector<std::string>& ops) {
  const auto eq = line.find('=');
  const auto open = line.find('(');
  const auto close = line.rfind(')');
  if (eq == std::string::npos || open == std::string::npos || close == std::string::npos ||
      open > close || eq > open) {
    return false;
  }
  auto trim = [](std::string s) {
    const auto begin = s.find_first_not_of(" \t");
    const auto end = s.find_last_not_of(" \t");
    return begin == std::string::npos ? std::string{} : s.substr(begin, end - begin + 1);
  };
  name = trim(line.substr(0, eq));
  kind = trim(line.substr(eq + 1, open - eq - 1));
  ops.clear();
  std::string inner = line.substr(open + 1, close - open - 1);
  std::stringstream ss{inner};
  std::string piece;
  while (std::getline(ss, piece, ',')) {
    ops.push_back(trim(piece));
  }
  return !name.empty() && !kind.empty();
}

}  // namespace

mig_network read_mig(std::istream& is) {
  reader_state st;
  std::string line;
  while (std::getline(is, line)) {
    ++st.line_no;
    const auto begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '#') {
      continue;
    }
    line = line.substr(begin);
    strip_line_ending(line);

    if (line.rfind(".model", 0) == 0) {
      continue;
    }
    if (line.rfind(".inputs", 0) == 0) {
      std::stringstream ss{line.substr(7)};
      std::string name;
      while (ss >> name) {
        if (st.symbols.count(name) != 0) {
          throw parse_error{st.line_no, "duplicate input '" + name + "'"};
        }
        st.symbols[name] = st.net.create_pi(name);
      }
      continue;
    }
    if (line.rfind(".output", 0) == 0) {
      const auto eq = line.find('=');
      if (eq == std::string::npos) {
        throw parse_error{st.line_no, ".output requires '<name> = <operand>'"};
      }
      std::stringstream left{line.substr(7, eq - 7)};
      std::string name;
      left >> name;
      std::stringstream right{line.substr(eq + 1)};
      std::string op;
      right >> op;
      if (name.empty() || op.empty()) {
        throw parse_error{st.line_no, ".output requires '<name> = <operand>'"};
      }
      st.net.create_po(st.parse_operand(op), name);
      continue;
    }

    std::string name;
    std::string kind;
    std::vector<std::string> ops;
    if (!split_assignment(line, name, kind, ops)) {
      throw parse_error{st.line_no, "unrecognized line '" + line + "'"};
    }
    if (st.symbols.count(name) != 0) {
      throw parse_error{st.line_no, "redefinition of '" + name + "'"};
    }
    signal s;
    if (kind == "MAJ") {
      if (ops.size() != 3) {
        throw parse_error{st.line_no, "MAJ requires three operands"};
      }
      s = st.net.create_maj(st.parse_operand(ops[0]), st.parse_operand(ops[1]),
                            st.parse_operand(ops[2]));
    } else if (kind == "BUF") {
      if (ops.size() != 1 && ops.size() != 2) {
        throw parse_error{st.line_no, "BUF requires one operand and an optional length"};
      }
      s = st.checked_run(st.net.create_buffer(st.parse_operand(ops[0]),
                                              ops.size() == 2 ? st.parse_length(ops[1]) : 1));
    } else if (kind == "FOG") {
      if (ops.size() != 1) {
        throw parse_error{st.line_no, "FOG requires one operand"};
      }
      s = st.net.create_fanout(st.parse_operand(ops[0]));
    } else {
      throw parse_error{st.line_no, "unknown component kind '" + kind + "'"};
    }
    st.symbols[name] = s;
  }
  return std::move(st.net);
}

mig_network read_mig_file(const std::string& path) {
  std::ifstream is{path};
  if (!is) {
    throw std::runtime_error{"read_mig_file: cannot open '" + path + "'"};
  }
  return read_mig(is);
}

}  // namespace wavemig::io
