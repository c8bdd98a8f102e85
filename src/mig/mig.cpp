#include "wavemig/mig.hpp"

#include <algorithm>
#include <stdexcept>

namespace wavemig {

namespace {

void check_signal(const std::vector<mig_network::node>& nodes, signal s, const char* what) {
  if (s.index() >= nodes.size()) {
    throw std::invalid_argument{std::string{what} + ": signal references unknown node"};
  }
}

}  // namespace

mig_network::mig_network() {
  nodes_.push_back(node{node_kind::constant, {}, 0});
}

signal mig_network::create_pi(std::string name) {
  const auto index = static_cast<node_index>(nodes_.size());
  node n;
  n.kind = node_kind::primary_input;
  n.aux = static_cast<std::uint32_t>(pis_.size());
  nodes_.push_back(n);
  pis_.push_back(index);
  pi_names_.push_back(name.empty() ? "pi" + std::to_string(pis_.size() - 1) : std::move(name));
  return signal{index, false};
}

std::size_t mig_network::strash_slot(const std::array<signal, 3>& fanin) const {
  // FNV-1a over the three raw signal words.
  std::uint64_t h = 1469598103934665603ull;
  for (const signal s : fanin) {
    h ^= s.raw();
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h ^ (h >> 32)) & (strash_.size() - 1);
}

void mig_network::rehash(std::size_t slots) {
  std::vector<node_index> old(slots, 0);
  strash_.swap(old);
  const std::size_t mask = strash_.size() - 1;
  for (const node_index n : old) {
    if (n != 0) {
      std::size_t slot = strash_slot(nodes_[n].fanin);
      while (strash_[slot] != 0) {
        slot = (slot + 1) & mask;
      }
      strash_[slot] = n;
    }
  }
}

void mig_network::reserve(std::size_t num_nodes, std::size_t num_majorities) {
  nodes_.reserve(num_nodes);
  std::size_t slots = strash_.empty() ? 64 : strash_.size();
  while (slots < 2 * num_majorities) {
    slots *= 2;
  }
  if (slots != strash_.size()) {
    rehash(slots);
  }
}

signal mig_network::create_maj(signal a, signal b, signal c) {
  check_signal(nodes_, a, "create_maj");
  check_signal(nodes_, b, "create_maj");
  check_signal(nodes_, c, "create_maj");

  // Functional reductions: M(x,x,y) = x and M(x,!x,y) = y.
  if (a == b) return a;
  if (a == c) return a;
  if (b == c) return b;
  if (a == !b) return c;
  if (a == !c) return b;
  if (b == !c) return a;

  // Complement-parity canonicalization via self-duality:
  // with two or more complemented fan-ins, flip all three and complement
  // the output, so stored nodes have at most one complemented fan-in.
  const int complemented = static_cast<int>(a.is_complemented()) +
                           static_cast<int>(b.is_complemented()) +
                           static_cast<int>(c.is_complemented());
  bool output_complemented = false;
  if (complemented >= 2) {
    a = !a;
    b = !b;
    c = !c;
    output_complemented = true;
  }
  return lookup_or_create_maj(a, b, c, output_complemented);
}

signal mig_network::lookup_or_create_maj(signal a, signal b, signal c, bool output_complemented) {
  std::array<signal, 3> in{a, b, c};
  std::sort(in.begin(), in.end());

  if (2 * (num_majorities_ + 1) > strash_.size()) {
    rehash(strash_.empty() ? 64 : 2 * strash_.size());
  }
  const std::size_t mask = strash_.size() - 1;
  std::size_t slot = strash_slot(in);
  for (; strash_[slot] != 0; slot = (slot + 1) & mask) {
    if (nodes_[strash_[slot]].fanin == in) {
      return signal{strash_[slot], output_complemented};
    }
  }

  const auto index = static_cast<node_index>(nodes_.size());
  node n;
  n.kind = node_kind::majority;
  n.fanin = in;
  nodes_.push_back(n);
  strash_[slot] = index;
  ++num_majorities_;
  return signal{index, output_complemented};
}

signal mig_network::create_xor(signal a, signal b) {
  // a ^ b = (a | b) & !(a & b) = M(M(a,b,1), !M(a,b,0), 0)
  const signal any = create_or(a, b);
  const signal both = create_and(a, b);
  return create_and(any, !both);
}

signal mig_network::create_xor3(signal a, signal b, signal c) {
  return create_full_adder(a, b, c).first;
}

signal mig_network::create_mux(signal sel, signal t, signal e) {
  if (t == e) {
    return t;
  }
  // sel ? t : e = (sel & t) | (!sel & e)
  return create_or(create_and(sel, t), create_and(!sel, e));
}

std::pair<signal, signal> mig_network::create_full_adder(signal a, signal b, signal c) {
  const signal carry = create_maj(a, b, c);
  const signal sum = create_maj(!carry, create_maj(a, b, !c), c);
  return {sum, carry};
}

signal mig_network::create_buffer(signal in, std::uint32_t length) {
  check_signal(nodes_, in, "create_buffer");
  if (length == 0) {
    throw std::invalid_argument{"create_buffer: a buffer run has at least one stage"};
  }
  const auto index = static_cast<node_index>(nodes_.size());
  node n;
  n.kind = node_kind::buffer;
  n.fanin[0] = in;
  n.aux = length;
  nodes_.push_back(n);
  num_buffers_ += length;
  ++num_buffer_nodes_;
  return signal{index, false};
}

signal mig_network::create_fanout(signal in) {
  check_signal(nodes_, in, "create_fanout");
  const auto index = static_cast<node_index>(nodes_.size());
  node n;
  n.kind = node_kind::fanout;
  n.fanin[0] = in;
  nodes_.push_back(n);
  ++num_fanouts_;
  return signal{index, false};
}

std::uint32_t mig_network::create_po(signal driver, std::string name) {
  check_signal(nodes_, driver, "create_po");
  const auto position = static_cast<std::uint32_t>(pos_.size());
  pos_.push_back(output{driver, name.empty() ? "po" + std::to_string(position) : std::move(name)});
  return position;
}

}  // namespace wavemig
