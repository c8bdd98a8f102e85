#include "wavemig/io/dot.hpp"

#include <fstream>
#include <map>
#include <vector>

#include "wavemig/levels.hpp"

namespace wavemig::io {

void write_dot(const mig_network& net, std::ostream& os) {
  if (has_buffer_runs(net)) {
    write_dot(expand_buffer_runs(net), os);  // one box per stage
    return;
  }
  const auto levels = compute_levels(net);

  os << "digraph mig {\n  rankdir=BT;\n";
  std::map<std::uint32_t, std::vector<node_index>> by_level;

  net.foreach_node([&](node_index n) {
    switch (net.kind(n)) {
      case node_kind::primary_input:
        os << "  n" << n << " [label=\"" << net.pi_name(net.pi_position(n))
           << "\", shape=house, style=filled, fillcolor=lightblue];\n";
        break;
      case node_kind::majority:
        os << "  n" << n << " [label=\"MAJ\\n" << n << "\", shape=ellipse];\n";
        break;
      case node_kind::buffer:
        os << "  n" << n << " [label=\"BUF\\n" << n
           << "\", shape=box, style=filled, fillcolor=lightgray];\n";
        break;
      case node_kind::fanout:
        os << "  n" << n << " [label=\"FOG\\n" << n
           << "\", shape=invtriangle, style=filled, fillcolor=lightyellow];\n";
        break;
      case node_kind::constant:
        return;  // constants drawn per use would clutter; omit
    }
    by_level[levels[n]].push_back(n);
  });

  net.foreach_node([&](node_index n) {
    for (const signal f : net.fanins(n)) {
      if (net.is_constant(f.index())) {
        continue;
      }
      os << "  n" << f.index() << " -> n" << n
         << (f.is_complemented() ? " [style=dashed]" : "") << ";\n";
    }
  });

  for (std::size_t p = 0; p < net.num_pos(); ++p) {
    const signal driver = net.po_signal(p);
    os << "  po" << p << " [label=\"" << net.po_name(p)
       << "\", shape=invhouse, style=filled, fillcolor=lightgreen];\n";
    if (!net.is_constant(driver.index())) {
      os << "  n" << driver.index() << " -> po" << p
         << (driver.is_complemented() ? " [style=dashed]" : "") << ";\n";
    }
  }

  for (const auto& [lvl, nodes] : by_level) {
    os << "  { rank=same;";
    for (const node_index n : nodes) {
      os << " n" << n << ";";
    }
    os << " }  // level " << lvl << "\n";
  }
  os << "}\n";
}

void write_dot_file(const mig_network& net, const std::string& path) {
  std::ofstream os{path};
  if (!os) {
    throw std::runtime_error{"write_dot_file: cannot open '" + path + "'"};
  }
  write_dot(net, os);
}

}  // namespace wavemig::io
