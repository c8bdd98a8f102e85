#pragma once

// The packed majority kernel: one template, instantiated per word width by
// the width switch in compiled_netlist.cpp, which is also where the ISA is
// chosen (see run_ops_block). Not installed; nothing outside src/engine
// includes this.
//
// Slot layout of a W-word block: `slots[s * W + j]` is word j (= chunk j of
// the block) of value slot s.

#include <cstddef>
#include <cstdint>

#include "wavemig/engine/compiled_netlist.hpp"

namespace wavemig::engine::detail {

/// Evaluates `num_ops` majority ops over W-word slot blocks. Per op, all W
/// words of all three operands are read into locals before any target word
/// is stored. That order is what lets the compiler vectorize each op as
/// whole-block loads, logic and stores without alias checks between the
/// operand and target pointers.
template <std::size_t W>
inline void eval_ops(const compiled_netlist::maj_op* ops, std::size_t num_ops,
                     std::uint64_t* slots) {
  for (std::size_t i = 0; i < num_ops; ++i) {
    const auto& o = ops[i];
    const std::uint64_t* pa = slots + static_cast<std::size_t>(o.a >> 1) * W;
    const std::uint64_t* pb = slots + static_cast<std::size_t>(o.b >> 1) * W;
    const std::uint64_t* pc = slots + static_cast<std::size_t>(o.c >> 1) * W;
    const std::uint64_t ma = complement_mask(o.a);
    const std::uint64_t mb = complement_mask(o.b);
    const std::uint64_t mc = complement_mask(o.c);
    std::uint64_t a[W];
    std::uint64_t b[W];
    std::uint64_t c[W];
    for (std::size_t j = 0; j < W; ++j) {
      a[j] = pa[j] ^ ma;
      b[j] = pb[j] ^ mb;
      c[j] = pc[j] ^ mc;
    }
    std::uint64_t* t = slots + static_cast<std::size_t>(o.target) * W;
    for (std::size_t j = 0; j < W; ++j) {
      t[j] = (a[j] & (b[j] | c[j])) | (b[j] & c[j]);  // 4-op majority
    }
  }
}

}  // namespace wavemig::engine::detail
