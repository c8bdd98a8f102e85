#pragma once

#include <cstdint>
#include <vector>

#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/wave_simulator.hpp"

namespace wavemig::engine {

/// @name Plane-major packed layout
///
/// Packed wave words are stored **plane-major** (word-transposed): for each
/// signal (PI of a batch, PO of a result) a contiguous run of chunk words —
/// `plane(s)[c]` packs waves [64c, 64c + 64) of signal s, wave w at bit
/// w % 64. The multi-word kernel consumes slot-major word blocks, so
/// plane-major I/O feeds it with unit-stride copies — no strided gather or
/// scatter on any block.
/// @{

/// Read-only view of a plane-major word block: `num_signals` planes of
/// `num_chunks` contiguous words each, consecutive planes `plane_stride`
/// words apart (the stride may exceed `num_chunks` — a batch keeps spare
/// chunk capacity, and a chunk slice of a wider block keeps the parent's
/// stride). Bits above the last valid wave in the final chunk are zero for
/// every view handed out by the engine's containers.
struct wave_block_view {
  const std::uint64_t* planes{nullptr};
  std::size_t plane_stride{0};
  std::size_t num_signals{0};
  std::size_t num_chunks{0};

  [[nodiscard]] const std::uint64_t* plane(std::size_t signal) const {
    return planes + signal * plane_stride;
  }
  /// The sub-view of chunks [first, first + count) — same planes, offset
  /// base, unchanged stride. This is how sharded executors slice work
  /// without copying: a slice is itself a valid plane-major block.
  [[nodiscard]] wave_block_view slice(std::size_t first, std::size_t count) const {
    return {planes + first, plane_stride, num_signals, count};
  }
};

/// Mutable counterpart of wave_block_view (what evaluation writes into).
struct wave_block_mut_view {
  std::uint64_t* planes{nullptr};
  std::size_t plane_stride{0};
  std::size_t num_signals{0};
  std::size_t num_chunks{0};

  [[nodiscard]] std::uint64_t* plane(std::size_t signal) const {
    return planes + signal * plane_stride;
  }
  [[nodiscard]] wave_block_mut_view slice(std::size_t first, std::size_t count) const {
    return {planes + first, plane_stride, num_signals, count};
  }
};

/// @}

/// Packed batch of input waves: 64 waves per 64-bit word, stored plane-major
/// (see above) — PI i owns the contiguous words `plane(i)[0 .. num_chunks())`,
/// wave w at bit w % 64 of word w / 64. Invariant maintained by every
/// mutator: words beyond `num_waves()` (the tail bits of the last chunk and
/// any spare capacity chunks) are zero, so views of the batch never expose
/// stray bits.
class wave_batch {
public:
  explicit wave_batch(std::size_t num_pis) : num_pis_{num_pis} {}

  [[nodiscard]] std::size_t num_pis() const { return num_pis_; }
  [[nodiscard]] std::size_t num_waves() const { return num_waves_; }
  [[nodiscard]] std::size_t num_chunks() const { return (num_waves_ + 63) / 64; }
  [[nodiscard]] bool empty() const { return num_waves_ == 0; }

  /// Appends one wave (one bool per PI): a one-row append_rows. Throws
  /// std::invalid_argument on a width mismatch and leaves the batch as it
  /// was. Bulk callers should prefer from_waves or append_rows, which
  /// transpose 64 waves per tile instead of one.
  void append(const std::vector<bool>& wave);

  /// Bulk-appends `num_waves` waves given as bit rows, the layout of a
  /// vector<bool>'s storage: wave w's PI i is bit i % 64 of
  /// `rows[w * row_words + i / 64]`. Bits at or above `num_pis()` in a row
  /// are ignored. Each 64-wave x 64-PI tile goes through one 64x64 bit
  /// transpose and is spliced in like append_planes, at any wave offset. This
  /// is the one bit-row ingestion path: append, from_waves and
  /// wave_stream::push all stage rows and call it. Throws std::invalid_argument when
  /// `row_words` is below ceil(num_pis / 64).
  void append_rows(const std::uint64_t* rows, std::size_t row_words, std::size_t num_waves);

  /// Bulk-appends `num_waves` packed waves given plane-major: PI i's words
  /// at `planes + i * plane_stride`, exactly the layout of `view()` /
  /// another batch's planes. When the batch holds a multiple of 64 waves it
  /// is one contiguous copy per plane; otherwise each word is spliced in
  /// with two shifts, never bit by bit. Bits above `num_waves` in each
  /// plane's last chunk are ignored. Throws std::invalid_argument when
  /// `plane_stride` is below ceil(num_waves / 64): each plane would read its
  /// neighbour's words, and the last would read past a
  /// `num_pis * plane_stride` buffer.
  void append_planes(const std::uint64_t* planes, std::size_t plane_stride,
                     std::size_t num_waves);

  /// What `from_plane_words` does with bits above `num_waves` in a plane's
  /// last chunk: `mask` (the default) zeroes them silently — right for
  /// trusted in-process producers reusing padded buffers; `reject` throws
  /// std::invalid_argument — right for untrusted payloads (the network
  /// front-end), where stray bits mean a corrupted or mis-declared frame.
  enum class tail_bits { mask, reject };

  /// Adopts `words` as plane-major storage without copying: `num_pis`
  /// planes of exactly ceil(num_waves / 64) words each (plane stride ==
  /// chunk count, PI i's words at `words[i * chunks .. (i+1) * chunks)`).
  /// Bits above `num_waves` in each plane's last chunk are masked off (or
  /// rejected, per `tail`). Throws std::invalid_argument when the vector's
  /// size does not match the declared shape — the check is division-based,
  /// so a hostile `num_waves` near SIZE_MAX cannot wrap the arithmetic
  /// into accepting a short buffer. This is the zero-copy ingestion path
  /// of serving_session::submit_packed.
  static wave_batch from_plane_words(std::vector<std::uint64_t> words, std::size_t num_pis,
                                     std::size_t num_waves, tail_bits tail = tail_bits::mask);

  /// Drops all waves but keeps the word storage for reuse (the allocation
  /// amortizer of wave_stream's flush path).
  void clear();

  /// Pre-allocates storage for `num_waves` waves.
  void reserve(std::size_t num_waves) { ensure_chunk_capacity((num_waves + 63) / 64); }

  [[nodiscard]] bool input(std::size_t wave, std::size_t pi) const {
    const std::uint64_t word = words_[pi * chunk_capacity_ + wave / 64];
    return ((word >> (wave % 64)) & 1u) != 0;
  }

  /// The contiguous chunk words of PI `pi` (plane-major native access).
  [[nodiscard]] const std::uint64_t* plane(std::size_t pi) const {
    return words_.data() + pi * chunk_capacity_;
  }

  /// Plane-major view of the whole batch — what the packed front-ends hand
  /// to the kernel. Valid until the next mutation.
  [[nodiscard]] wave_block_view view() const {
    return {words_.data(), chunk_capacity_, num_pis_, num_chunks()};
  }

  /// Packs `waves` (one bool per PI each) through append_rows, reading each
  /// vector<bool> 64 bits at a time. Throws std::invalid_argument on a
  /// width mismatch.
  static wave_batch from_waves(const std::vector<std::vector<bool>>& waves, std::size_t num_pis);

private:
  /// Grows the per-plane stride to at least `chunks` words (geometric), and
  /// re-strides the planes. New words are zero.
  void ensure_chunk_capacity(std::size_t chunks);

  std::size_t num_pis_;
  std::size_t num_waves_{0};
  std::size_t chunk_capacity_{0};  ///< plane stride in words
  std::vector<std::uint64_t> words_;  ///< num_pis_ * chunk_capacity_ words
};

/// Result of a packed wave run: 64 waves per word, plane-major like
/// wave_batch — PO p owns the contiguous words `plane(p)[0 .. num_chunks())`
/// (plane stride == chunk count exactly). Every engine front-end masks the
/// bits above `num_waves` in each plane's last chunk, so results uphold the
/// same tail-zero invariant as batches (hash or ship the words as-is).
/// Clocking metadata matches what the cycle-accurate simulator reports for
/// the same run.
struct packed_wave_result {
  std::size_t num_pos{0};
  std::size_t num_waves{0};
  std::vector<std::uint64_t> words;
  std::uint64_t ticks{0};
  std::uint32_t latency_ticks{0};
  std::uint32_t initiation_interval{0};
  std::uint32_t waves_in_flight{0};

  [[nodiscard]] std::size_t num_chunks() const { return (num_waves + 63) / 64; }

  [[nodiscard]] bool output(std::size_t wave, std::size_t po) const {
    const std::uint64_t word = words[po * num_chunks() + wave / 64];
    return ((word >> (wave % 64)) & 1u) != 0;
  }

  /// The contiguous chunk words of PO `po`.
  [[nodiscard]] const std::uint64_t* plane(std::size_t po) const {
    return words.data() + po * num_chunks();
  }

  [[nodiscard]] wave_block_view view() const {
    return {words.data(), num_chunks(), num_pos, num_chunks()};
  }

  /// Unpacks into the per-wave bool layout of wave_run_result::outputs:
  /// each 64-wave x 64-PO tile goes through one 64x64 bit transpose and is
  /// written into its 64 output rows a word at a time. Throws
  /// std::invalid_argument unless `words` holds exactly
  /// `num_pos * num_chunks()` words.
  [[nodiscard]] std::vector<std::vector<bool>> unpack() const;
};

/// Cycle-accurate wave simulation — the reference every other execution
/// path is checked against, and the only one that models wave interference
/// on unbalanced netlists. Each call lowers its own tick program from the
/// network and its clock schedule: one op per unit component. A network
/// with buffer runs is simulated as its unit-buffer form
/// (expand_buffer_runs, expand_schedule), so a run behaves exactly like the
/// chain of unit buffers it stands for. Ops are
/// pre-bucketed into per-clock-phase firing lists and, when every edge
/// advances at least one level per tick, updated in place in decreasing
/// level order instead of snapshotting the full state every tick.
/// `fdm_lanes` scales the clock metadata as compiled_netlist's `fdm_lanes`
/// does for the packed paths; the simulated ticks are lane-independent.
///
/// Throws std::invalid_argument when `phases == 0`, the schedule does not
/// match the network or a wave has the wrong width, and std::length_error
/// when the unit-buffer form would exceed max_expanded_nodes (levels.hpp).
wave_run_result run_waves(const mig_network& net, const level_map& schedule,
                          const std::vector<std::vector<bool>>& waves, unsigned phases,
                          unsigned fdm_lanes = 1);

/// @name Packed chunk kernel
///
/// The building blocks every packed front-end (`run_waves_packed`,
/// `wave_stream`, and the sharded executors in parallel_executor.hpp) is
/// assembled from: validation, clock metadata, and block evaluation over
/// plane-major views. Routing all paths through the same kernel is what
/// keeps single-threaded and multi-threaded results bit-identical.
/// @{

/// Throws std::invalid_argument unless `phases >= 1`, `batch_pis` matches
/// the netlist, and the netlist is wave-coherent under `phases`. `who` is
/// the prefix of the diagnostic messages.
void validate_packed_run(const compiled_netlist& net, std::size_t batch_pis, unsigned phases,
                         const char* who);

/// Fills ticks / latency / initiation interval / waves in flight exactly as
/// the cycle-accurate simulator reports them for the same run.
void fill_packed_clock_metrics(packed_wave_result& result, const compiled_netlist& net,
                               unsigned phases, std::size_t num_waves);

/// Evaluates a plane-major block: PI words read from `pis`, PO words written
/// into `pos` (both sides unit stride per signal — the zero-gather hot
/// path; see compiled_netlist::eval_planes_block). The chunk counts of the
/// two views must match, and their signal counts must match the netlist —
/// std::invalid_argument otherwise. `scratch` is reused across calls; after
/// the first call for a given netlist the kernel performs no allocation.
void eval_packed_planes(const compiled_netlist& net, const wave_block_view& pis,
                        const wave_block_mut_view& pos, std::vector<std::uint64_t>& scratch);

/// @}

/// Packed wave-pipelined execution: 64 independent waves per 64-bit word
/// per step. Requires `net.wave_coherent(phases)` — on a coherent netlist
/// every wave's sampled outputs equal the combinational evaluation of that
/// wave's inputs (§II-C), which the engine exploits to stream whole chunks
/// through the folded majority program. Throws std::invalid_argument when
/// the netlist is not coherent under `phases` (use the cycle-accurate
/// `run_waves` to observe interference) or when `phases == 0`.
packed_wave_result run_waves_packed(const compiled_netlist& net, const wave_batch& waves,
                                    unsigned phases);

/// Streaming front-end over the packed engine for workloads whose waves
/// arrive incrementally: pushed waves are staged as bit rows (a word copy
/// per 64 PIs) into a multi-chunk block (`block_waves` = 512 at the default
/// kernel width), which is transposed into planes (wave_batch::append_rows)
/// and evaluated in one multi-word pass the moment it fills. The staging,
/// pending and scratch storage is reused across blocks.
///
/// Each flushed block evaluates **directly into full-width result planes**
/// at its chunk offset. The plane stride starts at one block and doubles
/// whenever the stream outgrows it (one copy of the flushed words per
/// doubling, about one output's worth in total); finish() compacts the
/// planes down to the result stride in place when the last doubling
/// overshot, and otherwise hands the buffer over as-is.
class wave_stream {
public:
  /// Waves per evaluated block: one full pass of the multi-word kernel.
  static constexpr std::size_t block_waves = 64 * compiled_netlist::max_block_chunks;

  /// The compiled netlist must outlive the stream. Throws
  /// std::invalid_argument when the netlist is not wave-coherent under
  /// `phases` or `phases == 0`.
  wave_stream(const compiled_netlist& net, unsigned phases);

  /// Stages one wave; evaluates transparently once a block is staged.
  /// Throws std::invalid_argument on a width mismatch (the stream stays
  /// usable).
  void push(const std::vector<bool>& wave);

  [[nodiscard]] std::size_t waves_pushed() const { return pushed_; }
  /// Waves whose outputs are already available in the result.
  [[nodiscard]] std::size_t waves_completed() const { return completed_; }

  /// Flushes any pending partial block and returns the accumulated result
  /// for every pushed wave. The stream is reusable afterwards (resets).
  packed_wave_result finish();

private:
  void flush_pending();
  /// Grows `done_words_` (doubling the plane stride) so chunks
  /// [0, needed) fit.
  void ensure_capacity(std::size_t needed_chunks);

  const compiled_netlist& net_;
  unsigned phases_;
  /// Pushed waves not yet flushed, as bit rows of row_words_ words each
  /// (see wave_batch::append_rows); flush transposes them into pending_.
  std::size_t row_words_;
  std::vector<std::uint64_t> rows_;
  std::size_t staged_{0};
  wave_batch pending_;
  /// num_pos full-width result planes of `stride_` words each; flushed
  /// blocks land at their final chunk offset.
  std::vector<std::uint64_t> done_words_;
  std::size_t stride_{0};
  std::size_t flushed_chunks_{0};
  std::vector<std::uint64_t> scratch_;
  std::size_t pushed_{0};
  std::size_t completed_{0};
};

}  // namespace wavemig::engine
