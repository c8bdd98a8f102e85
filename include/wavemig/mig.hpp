#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "wavemig/signal.hpp"

namespace wavemig {

/// Kind of a network node. `majority` nodes are the only logic primitive of
/// a MIG (§II-A of the paper); `buffer` and `fanout` are the physical
/// components inserted by the wave-pipelining passes (§III, §IV).
enum class node_kind : std::uint8_t {
  constant,       ///< node 0; signal polarity selects logic 0 / logic 1
  primary_input,  ///< circuit input
  majority,       ///< 3-input majority gate
  buffer,         ///< 1-input delay element (wave balancing)
  fanout,         ///< 1-input fan-out gate (FOG), k physical output ports
};

/// Majority-Inverter Graph.
///
/// The network is append-only: nodes are never removed or re-wired, and a
/// node's fan-ins always have smaller indices, so **node index order is a
/// topological order**. Optimization passes produce new networks (see
/// cleanup.hpp, depth_rewriting.hpp, and the wave-pipelining passes in
/// core/), which keeps every intermediate result valid and hashable.
///
/// Majority nodes are canonicalized (fan-ins sorted, at most one complemented
/// fan-in via the self-duality M(!a,!b,!c) = !M(a,b,c)) and structurally
/// hashed, so logically identical gates are created once. The functional
/// reductions M(x,x,y) = x and M(x,!x,y) = y are applied on construction.
/// Buffers and fan-out gates are *not* hashed: they are distinct physical
/// components even when fed by the same signal.
///
/// A buffer node is a *run*: k >= 1 unit buffers in series, each one level
/// after the previous, stored as one node whose `aux` holds k. Component
/// counts sum the lengths (a run of k is k buffers), so every count, level
/// and paper figure is that of the unit-buffer chain the run stands for
/// (expand_buffer_runs in levels.hpp rebuilds that chain).
class mig_network {
public:
  struct node {
    node_kind kind{node_kind::constant};
    /// Fan-in signals; used slots: majority = 3, buffer/fanout = 1, else 0.
    std::array<signal, 3> fanin{};
    /// Kind-specific payload: PI position for primary inputs, run length
    /// (>= 1) for buffers, 0 otherwise.
    std::uint32_t aux{0};
  };

  struct output {
    signal driver;
    std::string name;
  };

  mig_network();

  /// @name Construction
  /// @{

  /// Constant signal; the complement attribute encodes the value.
  [[nodiscard]] signal get_constant(bool value) const { return value ? constant1 : constant0; }

  /// Adds a primary input. `name` defaults to "pi<N>".
  signal create_pi(std::string name = {});

  /// Adds (or reuses) a canonicalized majority gate.
  signal create_maj(signal a, signal b, signal c);

  /// AND as M(a, b, 0).
  signal create_and(signal a, signal b) { return create_maj(a, b, constant0); }
  /// OR as M(a, b, 1).
  signal create_or(signal a, signal b) { return create_maj(a, b, constant1); }
  /// XOR from three majority gates.
  signal create_xor(signal a, signal b);
  /// Three-input XOR (the full-adder sum), four majority gates of which one
  /// is the carry M(a,b,c) and is shared with callers that also need it.
  signal create_xor3(signal a, signal b, signal c);
  /// Multiplexer sel ? t : e built from AND/OR majority gates.
  signal create_mux(signal sel, signal t, signal e);

  /// Full adder: returns {sum, carry} using the 3-gate MIG construction
  /// carry = M(a,b,c), sum = M(!carry, M(a,b,!c), c).
  std::pair<signal, signal> create_full_adder(signal a, signal b, signal c);

  /// Adds a run of `length` balancing buffers in series as one node (never
  /// hashed). Throws std::invalid_argument for a length of 0.
  signal create_buffer(signal in, std::uint32_t length = 1);

  /// Adds a fan-out gate / FOG (never hashed).
  signal create_fanout(signal in);

  /// Registers a primary output; returns its position. `name` defaults to
  /// "po<N>".
  std::uint32_t create_po(signal driver, std::string name = {});

  /// Reserves node storage for `num_nodes` nodes in total (the constant and
  /// the PIs included) and structural-hash room for `num_majorities`
  /// majority gates, so a pass that knows how large its output network
  /// grows appends without ever regrowing and copying the node array or
  /// rehashing. Adds no node and changes no query's result.
  void reserve(std::size_t num_nodes, std::size_t num_majorities = 0);

  /// @}
  /// @name Structure queries
  /// @{

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_pis() const { return pis_.size(); }
  [[nodiscard]] std::size_t num_pos() const { return pos_.size(); }
  [[nodiscard]] std::size_t num_majorities() const { return num_majorities_; }
  /// Unit buffers: the sum of the buffer run lengths.
  [[nodiscard]] std::size_t num_buffers() const { return num_buffers_; }
  /// Buffer nodes (runs); equals num_buffers() when every run has length 1.
  [[nodiscard]] std::size_t num_buffer_nodes() const { return num_buffer_nodes_; }
  [[nodiscard]] std::size_t num_fanout_gates() const { return num_fanouts_; }

  /// Majority + buffer + fanout count: the component count used in the
  /// paper's netlist-size metrics (PIs and constants are not components;
  /// a buffer run counts its length).
  [[nodiscard]] std::size_t num_components() const {
    return num_majorities_ + num_buffers_ + num_fanouts_;
  }

  [[nodiscard]] node_kind kind(node_index n) const { return nodes_[n].kind; }
  [[nodiscard]] bool is_constant(node_index n) const { return nodes_[n].kind == node_kind::constant; }
  [[nodiscard]] bool is_pi(node_index n) const { return nodes_[n].kind == node_kind::primary_input; }
  [[nodiscard]] bool is_majority(node_index n) const { return nodes_[n].kind == node_kind::majority; }
  [[nodiscard]] bool is_buffer(node_index n) const { return nodes_[n].kind == node_kind::buffer; }
  [[nodiscard]] bool is_fanout_gate(node_index n) const { return nodes_[n].kind == node_kind::fanout; }

  /// Fan-in signals of a node (empty span for constants and PIs).
  [[nodiscard]] std::span<const signal> fanins(node_index n) const {
    const auto& nd = nodes_[n];
    switch (nd.kind) {
      case node_kind::majority:
        return {nd.fanin.data(), 3};
      case node_kind::buffer:
      case node_kind::fanout:
        return {nd.fanin.data(), 1};
      default:
        return {};
    }
  }

  /// All PI node indices in creation order.
  [[nodiscard]] const std::vector<node_index>& pis() const { return pis_; }
  /// All primary outputs in creation order.
  [[nodiscard]] const std::vector<output>& pos() const { return pos_; }

  [[nodiscard]] signal po_signal(std::size_t position) const { return pos_[position].driver; }
  [[nodiscard]] const std::string& po_name(std::size_t position) const { return pos_[position].name; }
  [[nodiscard]] const std::string& pi_name(std::size_t position) const { return pi_names_[position]; }
  /// PI position of a primary-input node.
  [[nodiscard]] std::size_t pi_position(node_index n) const { return nodes_[n].aux; }
  /// Levels a component spans: its run length for a buffer, 1 for a
  /// majority gate or fan-out gate.
  [[nodiscard]] std::uint32_t length(node_index n) const {
    return nodes_[n].kind == node_kind::buffer ? nodes_[n].aux : 1;
  }

  /// @}
  /// @name Iteration (index order == topological order)
  /// @{

  template <typename Fn>
  void foreach_node(Fn&& fn) const {
    for (node_index n = 0; n < nodes_.size(); ++n) {
      fn(n);
    }
  }

  template <typename Fn>
  void foreach_gate(Fn&& fn) const {
    for (node_index n = 1; n < nodes_.size(); ++n) {
      if (nodes_[n].kind == node_kind::majority) {
        fn(n);
      }
    }
  }

  template <typename Fn>
  void foreach_component(Fn&& fn) const {
    for (node_index n = 1; n < nodes_.size(); ++n) {
      const auto k = nodes_[n].kind;
      if (k == node_kind::majority || k == node_kind::buffer || k == node_kind::fanout) {
        fn(n);
      }
    }
  }

  /// @}

private:
  signal lookup_or_create_maj(signal a, signal b, signal c, bool output_complemented);
  /// First strash slot of a sorted fan-in triple.
  [[nodiscard]] std::size_t strash_slot(const std::array<signal, 3>& fanin) const;
  /// Resizes the strash table to `slots` (a power of two) and re-inserts
  /// every majority node.
  void rehash(std::size_t slots);

  std::vector<node> nodes_;
  std::vector<node_index> pis_;
  std::vector<std::string> pi_names_;
  std::vector<output> pos_;
  /// Structural hash of the majority nodes: open addressing with linear
  /// probing over a power-of-two table of node indices. Slot value 0 (the
  /// constant node, never a majority) marks an empty slot, a slot's key is
  /// the fan-in triple of the node it names, and the load factor stays at
  /// or below 1/2. Plain arrays on both sides, so copying a network is a
  /// copy of its vectors.
  std::vector<node_index> strash_;
  std::size_t num_majorities_{0};
  std::size_t num_buffers_{0};
  std::size_t num_buffer_nodes_{0};
  std::size_t num_fanouts_{0};
};

}  // namespace wavemig
