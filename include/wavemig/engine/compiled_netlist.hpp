#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wavemig/levels.hpp"
#include "wavemig/mig.hpp"

namespace wavemig::engine {

/// Reference to a value slot with a complement attribute, mirroring the
/// encoding of wavemig::signal but resolved against the dense slot layout of
/// a compiled program: bit 0 is the complement, the remaining bits the slot.
using slot_ref = std::uint32_t;

/// All-ones when the reference carries a complement, zero otherwise — the
/// branch-free form of `ref & 1 ? ~v : v` for 64-bit words.
constexpr std::uint64_t complement_mask(slot_ref ref) {
  return static_cast<std::uint64_t>(0) - static_cast<std::uint64_t>(ref & 1u);
}

/// One-time lowering of a `mig_network` plus a clock schedule into flat
/// structure-of-arrays form: the **combinational program** (`comb` arrays),
/// majority gates only, with buffers, buffer runs and fan-out gates folded
/// away by reference forwarding. It is the engine behind `simulate_words`,
/// `simulate_truth_tables`, the packed wave path, the streams, the sharded
/// executors and the serving layer, where identity components contribute
/// nothing. Beside it the program keeps the clock metadata those paths
/// need: the scheduled depth, the edge-span bounds of the coherence check
/// and the level of every primary output.
///
/// A compiled netlist holds no tick program: the cycle-accurate simulator
/// (`engine::run_waves`) lowers its own from the network and schedule.
///
/// A compiled netlist is immutable and can be shared by any number of
/// concurrent evaluations; all mutable state lives in caller-provided
/// scratch vectors.
class compiled_netlist {
public:
  /// Majority operation of the combinational program. Fan-ins are
  /// `slot_ref`s into the combinational slot array.
  struct maj_op {
    std::uint32_t target;
    slot_ref a, b, c;
  };

  /// Compiles against the network's ASAP levels. `fdm_lanes` is the FDM
  /// lane count of the technology scenario the network was prepared for
  /// (tech_scenario::fdm_lanes; 1 = no multiplexing). It affects the clock
  /// metadata only: with n lanes a batch of w waves occupies ceil(w/n)
  /// physical slots and n waves ride each phase, so `ticks` shrinks and
  /// `waves_in_flight` grows n-fold while the computed outputs stay
  /// bit-identical.
  explicit compiled_netlist(const mig_network& net, unsigned fdm_lanes = 1);

  /// Compiles against an explicit clock schedule (required for
  /// tolerance-balanced netlists; see buffer_insertion_options::tolerance).
  /// Throws std::invalid_argument if the schedule does not match the network.
  compiled_netlist(const mig_network& net, const level_map& schedule, unsigned fdm_lanes = 1);

  /// Compiles only the combinational program — no level computation and no
  /// clock metadata (wave_coherent is always false). The cheap lowering for
  /// purely combinational consumers (simulate_words & friends).
  static compiled_netlist comb_only(const mig_network& net);

  /// @name Interface shape
  /// @{
  /// Resident bytes of the lowered programs (ops, references, PO metadata
  /// plus the object header) — what a bounded compiled-netlist cache charges
  /// an entry against its byte budget. Deterministic for a given network:
  /// every vector is sized exactly during lowering and never reallocates.
  [[nodiscard]] std::size_t memory_bytes() const;
  [[nodiscard]] std::size_t num_pis() const { return num_pis_; }
  [[nodiscard]] std::size_t num_pos() const { return num_pos_; }
  /// Majority operations in the combinational program: one per majority
  /// node of the network.
  [[nodiscard]] std::size_t num_comb_ops() const { return comb_ops_.size(); }
  /// Value slots of the combinational program: 1 (constant) + PIs + gate
  /// slots. This is the scratch working set of the packed kernel, per word
  /// of kernel width.
  [[nodiscard]] std::size_t comb_slot_count() const { return comb_slot_count_; }
  /// FDM lanes the clock metadata is scaled by (see the constructor).
  [[nodiscard]] unsigned fdm_lanes() const { return fdm_lanes_; }
  /// Scheduled depth (max level over all primary-output drivers).
  [[nodiscard]] std::uint32_t depth() const { return depth_; }
  /// @}

  /// @name Coherence metadata
  ///
  /// Span of a data edge = level(consumer) - level(producer), constants
  /// excluded; an edge into a buffer run of length k ends at its first
  /// stage, k - 1 levels above the run's level, and the run's inner edges
  /// span 1 (see level_map). Under a P-phase clock every wave stays
  /// coherent iff every edge span lies in [1, P] (DESIGN.md §2.2);
  /// `wave_coherent` is that predicate. Packed execution requires it; the
  /// cycle-accurate simulator does not.
  /// @{
  [[nodiscard]] std::uint32_t min_edge_span() const { return min_edge_span_; }
  [[nodiscard]] std::uint32_t max_edge_span() const { return max_edge_span_; }
  [[nodiscard]] bool wave_coherent(unsigned phases) const {
    return min_edge_span_ >= 1 && max_edge_span_ <= phases;
  }
  /// @}

  /// @name Combinational evaluation
  /// @{

  /// Evaluates the combinational program over any word type supporting
  /// `~`, `&` and `|` (e.g. `std::uint64_t`, `truth_table`). `pi_value(i)`
  /// returns the word of PI position i; `zero` is the all-zero word (it
  /// carries the width for `truth_table`). `slots` is reusable scratch;
  /// read results with `po_value`.
  template <typename Word, typename PiFn>
  void eval(PiFn&& pi_value, const Word& zero, std::vector<Word>& slots) const {
    slots.clear();
    slots.resize(comb_slot_count_, zero);
    for (std::uint32_t i = 0; i < num_pis_; ++i) {
      slots[1 + i] = pi_value(i);
    }
    for (const auto& o : comb_ops_) {
      const Word a = read_slot(slots, o.a);
      const Word b = read_slot(slots, o.b);
      const Word c = read_slot(slots, o.c);
      slots[o.target] = (a & b) | (b & c) | (a & c);
    }
  }

  /// Value of primary output `position` after `eval` filled `slots`.
  template <typename Word>
  [[nodiscard]] Word po_value(const std::vector<Word>& slots, std::size_t position) const {
    return read_slot(slots, comb_po_refs_[position]);
  }

  /// Word-blocks the multi-word kernel evaluates per pass: up to 8 chunks
  /// (512 waves) flow through the program together, so each op's three
  /// loads and one store amortize over 8 words — the software analogue of
  /// widening the datapath.
  static constexpr std::size_t max_block_chunks = 8;

  /// Chunks per task when sharding a `num_chunks`-chunk batch across
  /// `num_workers` workers — the partitioning every sharded front-end
  /// (run_waves_parallel, the serving dispatcher's fused pool passes)
  /// agrees on: full kernel width (`max_block_chunks`) on big batches so
  /// dispatch amortizes, shrinking toward one chunk per task when the batch
  /// is too small to feed every worker at full width (at least two tasks
  /// per worker where possible — parallelism beats kernel width when the
  /// batch cannot feed both).
  static constexpr std::size_t shard_block_chunks(std::size_t num_chunks,
                                                  std::size_t num_workers) {
    const std::size_t workers = num_workers == 0 ? 1 : num_workers;
    const std::size_t block = num_chunks / (2 * workers);
    return block == 0 ? 1 : (block > max_block_chunks ? max_block_chunks : block);
  }

  /// The native multi-word entry: evaluates `num_chunks` consecutive
  /// 64-wave chunks in word-blocks of up to `max_block_chunks`, with
  /// **plane-major** I/O — PI i's chunk words contiguous at
  /// `pi_planes + i * pi_stride`, PO p's at `po_planes + p * po_stride`
  /// (the layout of `wave_batch::view()` / `packed_wave_result`). Each
  /// block's PI words load into the slot-major kernel blocks with unit
  /// stride (one contiguous W-word copy per PI) and PO words store the same
  /// way — no strided gather or scatter anywhere. One majority kernel
  /// template serves every block width; on x86-64 it runs as AVX2 where the
  /// CPU has it. `slots` is reusable scratch; results are bit-identical
  /// across block widths (a one-chunk call with both strides 1 is the
  /// 64-pattern form behind `eval_words`).
  void eval_planes_block(const std::uint64_t* pi_planes, std::size_t pi_stride,
                         std::uint64_t* po_planes, std::size_t po_stride,
                         std::size_t num_chunks, std::vector<std::uint64_t>& slots) const;

  /// Bit-parallel evaluation of 64 input patterns: `pi_words[i]` packs 64
  /// values of PI i; returns one word per PO. Validates the input width.
  [[nodiscard]] std::vector<std::uint64_t> eval_words(
      const std::vector<std::uint64_t>& pi_words) const;

  /// @}
  /// @name Output clock metadata
  /// @{

  /// Per PO: scheduled level of the driver (0 for PIs and constants).
  [[nodiscard]] const std::vector<std::uint32_t>& po_levels() const { return po_levels_; }
  /// Per PO: true when driven by the constant node.
  [[nodiscard]] const std::vector<bool>& po_constant() const { return po_constant_; }

  /// @}

  template <typename Word>
  [[nodiscard]] static Word read_slot(const std::vector<Word>& slots, slot_ref ref) {
    const Word& v = slots[ref >> 1];
    return (ref & 1u) != 0 ? ~v : v;
  }

private:
  compiled_netlist() = default;

  /// Lowers the network; a null schedule skips the clock metadata
  /// (comb_only mode).
  void lower(const mig_network& net, const level_map* schedule);

  unsigned fdm_lanes_{1};
  std::uint32_t num_pis_{0};
  std::uint32_t num_pos_{0};
  std::uint32_t depth_{0};
  std::uint32_t min_edge_span_{0};
  std::uint32_t max_edge_span_{0};

  // Combinational program: slot 0 = constant 0, slots 1..num_pis = PIs,
  // then one slot per majority gate.
  std::uint32_t comb_slot_count_{0};
  std::vector<maj_op> comb_ops_;
  std::vector<slot_ref> comb_po_refs_;

  // Output clock metadata.
  std::vector<std::uint32_t> po_levels_;
  std::vector<bool> po_constant_;
};

}  // namespace wavemig::engine
