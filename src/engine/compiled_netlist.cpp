#include "wavemig/engine/compiled_netlist.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "packed_kernel.hpp"

// Prefetch is a pure hint; compile it out where the builtin is unavailable.
#if defined(__GNUC__) || defined(__clang__)
#define WAVEMIG_PREFETCH(addr, rw) __builtin_prefetch((addr), (rw))
#else
#define WAVEMIG_PREFETCH(addr, rw) ((void)0)
#endif

namespace wavemig::engine {

namespace {

// The kernel's ISA choice. On x86-64 GCC/Clang the width switch is cloned
// for AVX2 and for the baseline ISA, and the loader picks the clone the CPU
// supports; elsewhere (AArch64 ASIMD included) it is one plain function
// vectorized by -O3. ThreadSanitizer builds skip the clones: GCC
// instruments the loader-time resolver with TSan calls, which crash before
// the TSan runtime is up.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(__SANITIZE_THREAD__)
#define WAVEMIG_KERNEL_CLONES __attribute__((target_clones("avx2", "default"), flatten))
#else
#define WAVEMIG_KERNEL_CLONES
#endif

/// One pass of the majority program over a W-word slot block: the single
/// width switch, instantiating detail::eval_ops for W = 1..8. `flatten`
/// inlines the instances into each clone, so they compile for its ISA.
WAVEMIG_KERNEL_CLONES void run_ops_block(
    const compiled_netlist::maj_op* ops, std::size_t num_ops, std::uint64_t* slots,
    std::size_t w) {
  switch (w) {
    case 8:
      detail::eval_ops<8>(ops, num_ops, slots);
      break;
    case 7:
      detail::eval_ops<7>(ops, num_ops, slots);
      break;
    case 6:
      detail::eval_ops<6>(ops, num_ops, slots);
      break;
    case 5:
      detail::eval_ops<5>(ops, num_ops, slots);
      break;
    case 4:
      detail::eval_ops<4>(ops, num_ops, slots);
      break;
    case 3:
      detail::eval_ops<3>(ops, num_ops, slots);
      break;
    case 2:
      detail::eval_ops<2>(ops, num_ops, slots);
      break;
    default:
      detail::eval_ops<1>(ops, num_ops, slots);
      break;
  }
}

}  // namespace

compiled_netlist::compiled_netlist(const mig_network& net, unsigned fdm_lanes)
    : compiled_netlist{net, compute_levels(net), fdm_lanes} {}

compiled_netlist::compiled_netlist(const mig_network& net, const level_map& schedule,
                                   unsigned fdm_lanes)
    : fdm_lanes_{fdm_lanes} {
  if (schedule.level.size() != net.num_nodes()) {
    throw std::invalid_argument{"compiled_netlist: schedule does not match the network"};
  }
  lower(net, &schedule);
}

compiled_netlist compiled_netlist::comb_only(const mig_network& net) {
  compiled_netlist compiled;
  compiled.lower(net, nullptr);
  return compiled;
}

void compiled_netlist::lower(const mig_network& net, const level_map* schedule) {
  num_pis_ = static_cast<std::uint32_t>(net.num_pis());
  num_pos_ = static_cast<std::uint32_t>(net.num_pos());
  depth_ = schedule != nullptr ? schedule->depth : 0;

  // Combinational program: fold buffers/fan-out gates by reference
  // forwarding, so the hot loop touches majority gates only. `comb_ref[n]`
  // is the resolved slot reference of node n's regular (non-complemented)
  // output.
  std::vector<slot_ref> comb_ref(net.num_nodes(), 0);
  comb_slot_count_ = 1 + num_pis_;  // slot 0 = constant, then the PIs
  comb_ops_.clear();
  comb_ops_.reserve(net.num_majorities());

  // Edge spans, widened to 64 bits so a schedule below a run's length
  // reads as a non-advancing edge instead of wrapping.
  std::uint64_t min_span = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_span = 0;
  bool any_edge = false;

  const auto resolve = [&](signal s) -> slot_ref {
    return comb_ref[s.index()] ^ static_cast<slot_ref>(s.is_complemented());
  };
  const auto note_edge = [&](node_index consumer, signal fanin) {
    if (schedule == nullptr || net.is_constant(fanin.index())) {
      return;  // constant fan-ins carry no data wave
    }
    any_edge = true;
    // The edge into a run ends at its first stage, length - 1 levels up.
    const std::uint64_t first_stage = std::uint64_t{(*schedule)[consumer]} + 1;
    const std::uint64_t producer = std::uint64_t{(*schedule)[fanin.index()]} + net.length(consumer);
    const std::uint64_t span = first_stage > producer ? first_stage - producer : 0;
    min_span = std::min(min_span, span);
    max_span = std::max(max_span, span);
  };

  net.foreach_node([&](node_index n) {
    switch (net.kind(n)) {
      case node_kind::constant:
        comb_ref[n] = 0;  // slot 0, regular edge
        break;
      case node_kind::primary_input:
        comb_ref[n] = (1 + static_cast<std::uint32_t>(net.pi_position(n))) << 1u;
        break;
      case node_kind::majority: {
        const auto fis = net.fanins(n);
        const std::uint32_t slot = comb_slot_count_++;
        comb_ops_.push_back({slot, resolve(fis[0]), resolve(fis[1]), resolve(fis[2])});
        comb_ref[n] = slot << 1u;
        note_edge(n, fis[0]);
        note_edge(n, fis[1]);
        note_edge(n, fis[2]);
        break;
      }
      case node_kind::buffer:
      case node_kind::fanout: {
        const signal in = net.fanins(n)[0];
        comb_ref[n] = resolve(in);
        note_edge(n, in);
        break;
      }
    }
  });

  if (schedule == nullptr) {
    min_edge_span_ = 0;  // no schedule: never wave-coherent
    max_edge_span_ = 0;
  } else if (!any_edge) {
    min_edge_span_ = 1;  // vacuous coherence (constant / PI-only networks)
    max_edge_span_ = 1;
  } else {
    if (has_buffer_runs(net)) {
      min_span = std::min<std::uint64_t>(min_span, 1);  // the runs' inner edges
      max_span = std::max<std::uint64_t>(max_span, 1);
    }
    min_edge_span_ = static_cast<std::uint32_t>(min_span);
    max_edge_span_ = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(max_span, std::numeric_limits<std::uint32_t>::max()));
  }

  comb_po_refs_.assign(num_pos_, 0);
  po_levels_.assign(num_pos_, 0);
  po_constant_.assign(num_pos_, false);
  for (std::size_t p = 0; p < num_pos_; ++p) {
    const signal driver = net.po_signal(p);
    comb_po_refs_[p] = resolve(driver);
    po_levels_[p] = schedule != nullptr ? (*schedule)[driver.index()] : 0;
    po_constant_[p] = net.is_constant(driver.index());
  }
}

std::size_t compiled_netlist::memory_bytes() const {
  const auto vec_bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return sizeof(*this) + vec_bytes(comb_ops_) + vec_bytes(comb_po_refs_) +
         vec_bytes(po_levels_) + (po_constant_.capacity() + 7) / 8;
}

void compiled_netlist::eval_planes_block(const std::uint64_t* pi_planes, std::size_t pi_stride,
                                         std::uint64_t* po_planes, std::size_t po_stride,
                                         std::size_t num_chunks,
                                         std::vector<std::uint64_t>& slots) const {
  for (std::size_t done = 0; done < num_chunks;) {
    const std::size_t w = std::min(max_block_chunks, num_chunks - done);

    // Slot-major W-word blocks: slot s occupies slots[s*w .. s*w + w).
    slots.resize(static_cast<std::size_t>(comb_slot_count_) * w);
    std::uint64_t* s = slots.data();
    std::fill(s, s + w, 0);  // constant slot
    const bool more = done + w < num_chunks;
    for (std::size_t i = 0; i < num_pis_; ++i) {
      const std::uint64_t* src = pi_planes + i * pi_stride + done;
      // Each plane contributes one cache line per block, a full plane
      // stride apart from its neighbors — too many streams for hardware
      // prefetchers to track, so the next block's line is requested here,
      // with a whole kernel pass of latency to hide behind.
      if (more) {
        WAVEMIG_PREFETCH(src + w, 0);
      }
      // Plane-major input: the block's W words of PI i are already adjacent.
      // A plain loop, not memcpy — the runtime-sized call would cost more
      // than the 64-byte copy itself, per PI per block.
      std::uint64_t* dst = s + (1 + i) * w;
      for (std::size_t j = 0; j < w; ++j) {
        dst[j] = src[j];
      }
    }

    run_ops_block(comb_ops_.data(), comb_ops_.size(), s, w);

    for (std::size_t p = 0; p < num_pos_; ++p) {
      const slot_ref ref = comb_po_refs_[p];
      const std::uint64_t* out_slot = s + static_cast<std::size_t>(ref >> 1) * w;
      const std::uint64_t mask = complement_mask(ref);
      std::uint64_t* dst = po_planes + p * po_stride + done;
      if (more) {
        WAVEMIG_PREFETCH(dst + w, 1);
      }
      for (std::size_t j = 0; j < w; ++j) {
        dst[j] = out_slot[j] ^ mask;  // unit stride, no scatter
      }
    }
    done += w;
  }
}

std::vector<std::uint64_t> compiled_netlist::eval_words(
    const std::vector<std::uint64_t>& pi_words) const {
  if (pi_words.size() != num_pis_) {
    throw std::invalid_argument{"compiled_netlist: one word per primary input required"};
  }
  std::vector<std::uint64_t> po_words(num_pos_);
  std::vector<std::uint64_t> slots;
  eval_planes_block(pi_words.data(), 1, po_words.data(), 1, 1, slots);
  return po_words;
}

}  // namespace wavemig::engine
