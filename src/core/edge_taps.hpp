#pragma once

// Internal to the rebuilding passes of src/core (fan-out restriction and
// buffer insertion): the tap signal planned for every consumer edge of the
// network being rebuilt. Not installed.

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "wavemig/levels.hpp"
#include "wavemig/mig.hpp"

namespace wavemig::detail {

/// One tap per physical consumer connection of `net`: a flat array with
/// three slots per node (indexed `3 * consumer + slot`) and one per primary
/// output. A pass plans an edge's tap while visiting its driver and reads
/// it back while rebuilding the consumer, which index order puts later.
class edge_taps {
public:
  explicit edge_taps(const mig_network& net)
      : fanin_(3 * net.num_nodes(), unplanned), po_(net.num_pos(), unplanned) {}

  /// The tap slot of edge `e` of a driver's fan-out list.
  signal& operator[](const fanout_map::edge& e) {
    return e.consumer == fanout_map::po_consumer ? po_[e.slot]
                                                 : fanin_[3 * std::size_t{e.consumer} + e.slot];
  }

  /// The planned tap of fan-in `slot` of `consumer`.
  [[nodiscard]] signal fanin(node_index consumer, std::uint32_t slot) const {
    return planned(fanin_[3 * std::size_t{consumer} + slot]);
  }

  /// The planned tap of primary output `position`.
  [[nodiscard]] signal po(std::uint32_t position) const { return planned(po_[position]); }

private:
  // Node 2^31 - 1, complemented: a network would need 2^31 nodes (the
  // whole 31-bit index space) before a real tap could equal it.
  static constexpr signal unplanned = signal::from_raw(std::numeric_limits<std::uint32_t>::max());

  /// A rebuilt consumer asks for the taps of its edges only after their
  /// driver planned them; an unplanned read means the pass broke that order.
  static signal planned(signal tap) {
    if (tap == unplanned) {
      throw std::logic_error{"edge_taps: tap read before its driver planned it"};
    }
    return tap;
  }

  std::vector<signal> fanin_;
  std::vector<signal> po_;
};

}  // namespace wavemig::detail
