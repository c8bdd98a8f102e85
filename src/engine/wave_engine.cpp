#include "wavemig/engine/wave_engine.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bit_rows.hpp"
#include "block_splice.hpp"

namespace wavemig::engine {

namespace {

/// Clocking metadata shared by the cycle-accurate and packed paths; the
/// formulas mirror the sampling schedule of the tick simulator exactly.
/// Even a depth-0 (PI-to-PO) network carries one wave at a time, matching
/// the latency_ticks fallback below.
template <typename Result>
void fill_clock_metrics(Result& result, const compiled_netlist& net, unsigned phases,
                        std::size_t num_waves) {
  const std::uint32_t depth = net.depth();
  // FDM scenarios (compiled_netlist::fdm_lanes() > 1) carry several logical
  // waves per physical conduit slot: wave w occupies slot w / lanes, and
  // every physical wave in flight holds `lanes` logical ones. Metadata only
  // — computed words are lane-independent.
  const unsigned lanes = std::max(1u, net.fdm_lanes());
  result.initiation_interval = phases;
  result.latency_ticks = depth > 0 ? depth : 1;
  result.waves_in_flight = std::max<std::uint32_t>(1, (depth + phases - 1) / phases) * lanes;
  if (num_waves == 0) {
    result.ticks = 0;
    return;
  }
  std::uint64_t last_tick = 0;
  const std::uint64_t last_wave = (num_waves - 1) / lanes;
  for (std::size_t p = 0; p < net.num_pos(); ++p) {
    if (net.po_constant()[p]) {
      continue;
    }
    const std::uint32_t lvl = net.po_levels()[p];
    last_tick = std::max(last_tick, last_wave * phases + (lvl > 0 ? lvl - 1 : 0));
  }
  result.ticks = last_tick + 1;
}

/// Splices one masked 64-wave word into a plane at wave offset
/// `base_wave` (the unaligned step of append_planes, and every store of
/// append_rows): a low part into the partially filled chunk and, when the
/// splice crosses a word boundary, a high part carried into the next one —
/// two shifts, never per-bit.
/// `total_chunks` bounds the carry store; when the carried bits would land
/// past the final chunk they are provably zero (offset + valid wave bits
/// <= 64), so the store is skipped.
inline void splice_word(std::uint64_t* plane, std::uint64_t word, std::size_t base_wave,
                        std::size_t total_chunks) {
  const std::size_t offset = base_wave % 64;
  const std::size_t lo_chunk = base_wave / 64;
  plane[lo_chunk] |= word << offset;
  if (offset != 0 && lo_chunk + 1 < total_chunks) {
    plane[lo_chunk + 1] |= word >> (64 - offset);
  }
}

}  // namespace

void validate_packed_run(const compiled_netlist& net, std::size_t batch_pis, unsigned phases,
                         const char* who) {
  if (phases == 0) {
    throw std::invalid_argument{std::string{who} + ": at least one clock phase required"};
  }
  if (batch_pis != net.num_pis()) {
    throw std::invalid_argument{std::string{who} +
                                ": each wave needs one value per primary input"};
  }
  if (!net.wave_coherent(phases)) {
    throw std::invalid_argument{
        std::string{who} + ": netlist is not wave-coherent under " + std::to_string(phases) +
        " phases (edge spans " + std::to_string(net.min_edge_span()) + ".." +
        std::to_string(net.max_edge_span()) +
        " must lie in [1, phases]); balance it with insert_buffers or use the "
        "cycle-accurate run_waves"};
  }
}

void fill_packed_clock_metrics(packed_wave_result& result, const compiled_netlist& net,
                               unsigned phases, std::size_t num_waves) {
  fill_clock_metrics(result, net, phases, num_waves);
}

void eval_packed_planes(const compiled_netlist& net, const wave_block_view& pis,
                        const wave_block_mut_view& pos, std::vector<std::uint64_t>& scratch) {
  if (pis.num_signals != net.num_pis() || pos.num_signals != net.num_pos() ||
      pis.num_chunks != pos.num_chunks) {
    throw std::invalid_argument{
        "eval_packed_planes: view shapes must match the netlist (PI/PO planes) and each "
        "other (chunk count)"};
  }
  // A stride below the chunk count would silently overlap adjacent planes —
  // the one shape error that corrupts output instead of reading wrong data.
  if ((pis.num_signals != 0 && pis.plane_stride < pis.num_chunks) ||
      (pos.num_signals != 0 && pos.plane_stride < pos.num_chunks)) {
    throw std::invalid_argument{
        "eval_packed_planes: plane stride must be at least the chunk count"};
  }
  net.eval_planes_block(pis.planes, pis.plane_stride, pos.planes, pos.plane_stride,
                        pis.num_chunks, scratch);
}

// --------------------------------------------------------- wave_batch ---

void wave_batch::ensure_chunk_capacity(std::size_t chunks) {
  if (chunks <= chunk_capacity_) {
    return;
  }
  // Geometric growth keeps per-wave append amortized O(1) even though a
  // re-stride moves every plane.
  const std::size_t new_capacity = std::max(chunks, 2 * chunk_capacity_);
  std::vector<std::uint64_t> grown(num_pis_ * new_capacity, 0);
  if (const std::size_t used = num_chunks(); used != 0) {
    for (std::size_t i = 0; i < num_pis_; ++i) {
      std::memcpy(grown.data() + i * new_capacity, words_.data() + i * chunk_capacity_,
                  used * sizeof(std::uint64_t));
    }
  }
  words_.swap(grown);
  chunk_capacity_ = new_capacity;
}

void wave_batch::clear() {
  // Zero only the words that carried waves — spare capacity is zero by
  // invariant — so the storage is immediately reusable.
  if (const std::size_t used = num_chunks(); used != 0) {
    for (std::size_t i = 0; i < num_pis_; ++i) {
      std::memset(words_.data() + i * chunk_capacity_, 0, used * sizeof(std::uint64_t));
    }
  }
  num_waves_ = 0;
}

void wave_batch::append(const std::vector<bool>& wave) {
  if (wave.size() != num_pis_) {
    throw std::invalid_argument{"wave_batch: each wave needs one value per primary input"};
  }
  std::vector<std::uint64_t> row(detail::row_words(num_pis_));
  detail::read_row(wave, row.data());
  append_rows(row.data(), row.size(), 1);
}

void wave_batch::append_rows(const std::uint64_t* rows, std::size_t row_words,
                             std::size_t num_waves) {
  const std::size_t pi_words = detail::row_words(num_pis_);
  if (row_words < pi_words) {
    throw std::invalid_argument{"wave_batch: a bit row needs ceil(num_pis / 64) words"};
  }
  if (num_waves == 0) {
    return;
  }
  const std::size_t total = num_waves_ + num_waves;
  const std::size_t total_chunks = (total + 63) / 64;
  ensure_chunk_capacity(total_chunks);
  // Each 64-wave x 64-PI tile is transposed once; its word b is PI
  // 64g + b's next 64 waves, spliced in at the batch's wave offset like
  // append_planes' unaligned step (at an aligned offset the splice is a
  // plain store). Padding rows past the last wave transpose to zero lanes,
  // and rows of PIs past num_pis are never stored.
  std::uint64_t tile[64];
  for (std::size_t c = 0; 64 * c < num_waves; ++c) {
    const std::size_t lanes = std::min<std::size_t>(64, num_waves - 64 * c);
    const std::uint64_t* src = rows + 64 * c * row_words;
    const std::size_t at = num_waves_ + 64 * c;
    for (std::size_t g = 0; g < pi_words; ++g) {
      for (std::size_t r = 0; r < lanes; ++r) {
        tile[r] = src[r * row_words + g];
      }
      std::fill(tile + lanes, tile + 64, 0);
      detail::transpose64(tile);
      const std::size_t pis = std::min<std::size_t>(64, num_pis_ - 64 * g);
      std::uint64_t* plane = words_.data() + 64 * g * chunk_capacity_;
      for (std::size_t b = 0; b < pis; ++b, plane += chunk_capacity_) {
        splice_word(plane, tile[b], at, total_chunks);
      }
    }
  }
  num_waves_ = total;
}

void wave_batch::append_planes(const std::uint64_t* planes, std::size_t plane_stride,
                               std::size_t num_waves) {
  if (num_waves == 0) {
    return;
  }
  const std::size_t in_chunks = (num_waves + 63) / 64;
  if (num_pis_ != 0 && plane_stride < in_chunks) {
    throw std::invalid_argument{
        "wave_batch: plane stride must be at least ceil(num_waves / 64)"};
  }
  const std::size_t offset = num_waves_ % 64;
  const std::size_t total = num_waves_ + num_waves;
  const std::size_t total_chunks = (total + 63) / 64;
  ensure_chunk_capacity(total_chunks);

  const std::size_t tail = num_waves % 64;
  const std::uint64_t tail_mask = tail == 0 ? ~std::uint64_t{0}
                                            : (std::uint64_t{1} << tail) - 1;
  if (offset == 0) {
    // Aligned: one contiguous copy per plane, then mask the incoming tail.
    // copy_words_small because wide-PI appends put only a few chunk words
    // in each of very many planes — the worst case for per-plane memcpy
    // call overhead.
    for (std::size_t i = 0; i < num_pis_; ++i) {
      std::uint64_t* dst = words_.data() + i * chunk_capacity_ + num_waves_ / 64;
      detail::copy_words_small(dst, planes + i * plane_stride, in_chunks);
      dst[in_chunks - 1] &= tail_mask;
    }
  } else {
    // Plane-outer iteration keeps the plane-major source sequential.
    for (std::size_t i = 0; i < num_pis_; ++i) {
      const std::uint64_t* src = planes + i * plane_stride;
      std::uint64_t* plane = words_.data() + i * chunk_capacity_;
      for (std::size_t c = 0; c < in_chunks; ++c) {
        splice_word(plane, c + 1 == in_chunks ? src[c] & tail_mask : src[c],
                    num_waves_ + c * 64, total_chunks);
      }
    }
  }
  num_waves_ = total;
}

wave_batch wave_batch::from_plane_words(std::vector<std::uint64_t> words, std::size_t num_pis,
                                        std::size_t num_waves, tail_bits tail) {
  // Overflow-proof shape check: (num_waves + 63) could wrap for a hostile
  // num_waves near SIZE_MAX, and chunks * num_pis could wrap right back
  // onto the attacker's buffer size. Divide instead of multiplying: the
  // buffer decides how many chunks per plane there are, and num_waves must
  // agree with that count exactly.
  const std::size_t chunks = num_waves / 64 + (num_waves % 64 != 0 ? 1 : 0);
  const bool size_matches = num_pis == 0
                                ? words.size() == 0
                                : words.size() % num_pis == 0 && words.size() / num_pis == chunks;
  if (!size_matches) {
    throw std::invalid_argument{
        "wave_batch: plane words must hold ceil(num_waves / 64) chunks per primary input"};
  }
  wave_batch batch{num_pis};
  batch.words_ = std::move(words);
  batch.chunk_capacity_ = chunks;
  batch.num_waves_ = num_waves;
  // Restore the tail invariant: the adopted buffer may carry stray bits
  // above num_waves in each plane's last chunk. Under `reject` they are a
  // shape error (an untrusted producer mis-declared its wave count).
  if (const std::size_t live = num_waves % 64; live != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << live) - 1;
    for (std::size_t i = 0; i < num_pis; ++i) {
      std::uint64_t& last = batch.words_[i * chunks + chunks - 1];
      if (tail == tail_bits::reject && (last & ~mask) != 0) {
        throw std::invalid_argument{
            "wave_batch: stray bits above num_waves in a plane's last chunk"};
      }
      last &= mask;
    }
  }
  return batch;
}

wave_batch wave_batch::from_waves(const std::vector<std::vector<bool>>& waves,
                                  std::size_t num_pis) {
  wave_batch batch{num_pis};
  batch.reserve(waves.size());
  // Rows are staged one kernel block at a time, so the staging buffer stays
  // small however many waves arrive.
  constexpr std::size_t stage_waves = 64 * compiled_netlist::max_block_chunks;
  const std::size_t row_words = detail::row_words(num_pis);
  std::vector<std::uint64_t> rows(std::min(stage_waves, waves.size()) * row_words);
  for (std::size_t first = 0; first < waves.size(); first += stage_waves) {
    const std::size_t count = std::min(stage_waves, waves.size() - first);
    for (std::size_t k = 0; k < count; ++k) {
      const auto& wave = waves[first + k];
      if (wave.size() != num_pis) {
        throw std::invalid_argument{"wave_batch: each wave needs one value per primary input"};
      }
      detail::read_row(wave, rows.data() + k * row_words);
    }
    batch.append_rows(rows.data(), row_words, count);
  }
  return batch;
}

// -------------------------------------------------- packed_wave_result ---

std::vector<std::vector<bool>> packed_wave_result::unpack() const {
  // Overflow-proof shape check (see wave_batch::from_plane_words): the
  // words must hold exactly ceil(num_waves / 64) chunks per PO.
  const std::size_t chunks = num_waves / 64 + (num_waves % 64 != 0 ? 1 : 0);
  const bool size_matches = chunks == 0 ? words.empty()
                                        : words.size() % chunks == 0 &&
                                              words.size() / chunks == num_pos;
  if (!size_matches) {
    throw std::invalid_argument{
        "packed_wave_result: words must hold ceil(num_waves / 64) chunks per primary output"};
  }
  std::vector<std::vector<bool>> out(num_waves, std::vector<bool>(num_pos, false));
  // Each 64-wave x 64-PO tile is transposed once and lands as one word in
  // each of its 64 output rows. Tail lanes above num_waves become rows
  // that are never written.
  const std::size_t po_words = detail::row_words(num_pos);
  std::uint64_t tile[64];
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lanes = std::min<std::size_t>(64, num_waves - 64 * c);
    for (std::size_t g = 0; g < po_words; ++g) {
      const std::size_t pos = std::min<std::size_t>(64, num_pos - 64 * g);
      for (std::size_t b = 0; b < pos; ++b) {
        tile[b] = words[(64 * g + b) * chunks + c];
      }
      std::fill(tile + pos, tile + 64, 0);
      detail::transpose64(tile);
      for (std::size_t r = 0; r < lanes; ++r) {
        detail::write_row_word(out[64 * c + r], g, tile[r]);
      }
    }
  }
  return out;
}

// --------------------------------------------------------- scalar path ---

namespace {

/// Component of the tick program. Fan-ins are `slot_ref`s into the state
/// array, one slot per network node (slot == node index).
struct tick_op {
  std::uint32_t target;
  slot_ref a, b, c;     ///< copy ops use only `a`
  std::uint32_t level;  ///< scheduled level (>= 1 for components)
  bool majority;
};

/// The tick program of a network of unit components under `schedule`: one
/// op per component, at its scheduled level.
std::vector<tick_op> lower_ticks(const mig_network& net, const level_map& schedule) {
  std::vector<tick_op> ops;
  ops.reserve(net.num_components());
  const auto ref = [](signal s) {
    return static_cast<slot_ref>(s.index() << 1u) | static_cast<slot_ref>(s.is_complemented());
  };
  net.foreach_component([&](node_index n) {
    const auto f = net.fanins(n);
    if (net.is_majority(n)) {
      ops.push_back({n, ref(f[0]), ref(f[1]), ref(f[2]), schedule[n], true});
    } else {
      ops.push_back({n, ref(f[0]), 0, 0, schedule[n], false});
    }
  });
  return ops;
}

}  // namespace

wave_run_result run_waves(const mig_network& net, const level_map& schedule,
                          const std::vector<std::vector<bool>>& waves, unsigned phases,
                          unsigned fdm_lanes) {
  if (phases == 0) {
    throw std::invalid_argument{"run_waves: at least one clock phase required"};
  }
  for (const auto& wave : waves) {
    if (wave.size() != net.num_pis()) {
      throw std::invalid_argument{"run_waves: each wave needs one value per primary input"};
    }
  }
  if (has_buffer_runs(net)) {
    // A run is simulated as the chain of unit buffers it stands for.
    const mig_network unit = expand_buffer_runs(net);
    return run_waves(unit, expand_schedule(net, schedule), waves, phases, fdm_lanes);
  }
  // The clock metadata — depth, PO levels, edge spans — is the packed
  // paths' own (which also checks the schedule against the network).
  const compiled_netlist clock{net, schedule, fdm_lanes};

  wave_run_result result;
  fill_clock_metrics(result, clock, phases, waves.size());
  result.outputs.assign(waves.size(), std::vector<bool>(net.num_pos(), false));
  if (waves.empty()) {
    return result;
  }
  // The tick simulator models a single physical lane: every wave occupies
  // its own initiation slot regardless of the FDM lane count, so the
  // simulated tick span is computed lane-agnostically. result.ticks carries
  // the (possibly FDM-compressed) clock metadata and must not bound the
  // simulation loop — that would drop waves past the first physical slot.
  const auto& po_levels = clock.po_levels();
  const auto& po_constant = clock.po_constant();
  std::uint64_t last_tick = 0;
  const std::uint64_t final_wave = waves.size() - 1;
  for (std::uint32_t p = 0; p < net.num_pos(); ++p) {
    if (po_constant[p]) {
      continue;
    }
    const std::uint32_t lvl = po_levels[p];
    last_tick = std::max(last_tick, final_wave * phases + (lvl > 0 ? lvl - 1 : 0));
  }

  const std::vector<tick_op> ops = lower_ticks(net, schedule);

  // Per-clock-phase firing lists, resolved once instead of per tick. Ops in
  // a list are ordered by decreasing level so the in-place update below
  // preserves synchronous (pre-tick snapshot) semantics: every data edge
  // spans >= 1 level, hence a consumer always updates before its producer
  // within the same tick. Only min(phases, max level) buckets can be
  // non-empty, so allocation stays bounded by the netlist, not by `phases`.
  std::uint32_t max_level = 0;
  for (const auto& o : ops) {
    max_level = std::max(max_level, o.level);
  }
  const std::size_t num_buckets = std::min<std::uint64_t>(phases, max_level);
  std::vector<std::vector<std::uint32_t>> phase_ops(num_buckets);
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    if (ops[i].level == 0) {
      continue;  // unscheduled component: never fires (matches interpreter)
    }
    phase_ops[(ops[i].level - 1) % phases].push_back(i);
  }
  for (auto& list : phase_ops) {
    std::stable_sort(list.begin(), list.end(), [&](std::uint32_t a, std::uint32_t b) {
      return ops[a].level > ops[b].level;
    });
  }
  // A custom schedule may contain non-advancing edges (a run scheduled
  // below its length among them); fall back to a full pre-tick snapshot in
  // that case to keep the semantics exact.
  const bool in_place = clock.min_edge_span() >= 1;

  // Per-tick PO sampling schedule, resolved once: output p (driver level
  // lvl) samples wave w at tick w * phases + start with start = lvl - 1, so
  // only the outputs whose start is congruent to t modulo `phases` can
  // sample at tick t. Bucketing them by that residue turns the former
  // every-tick rescan of all POs into O(actual samples) work.
  struct po_sample {
    std::uint32_t po;
    std::uint64_t start;
    signal driver;
  };
  // Like phase_ops above, allocation is bounded by the netlist, not by
  // `phases`: only residues up to the largest sampling start can be
  // occupied, so ticks beyond the bucket count simply sample nothing.
  std::uint64_t max_start = 0;
  for (std::uint32_t p = 0; p < net.num_pos(); ++p) {
    const std::uint32_t lvl = po_levels[p];
    max_start = std::max<std::uint64_t>(max_start, lvl > 0 ? lvl - 1 : 0);
  }
  std::vector<std::vector<po_sample>> sample_buckets(
      static_cast<std::size_t>(std::min<std::uint64_t>(phases, max_start + 1)));
  for (std::uint32_t p = 0; p < net.num_pos(); ++p) {
    if (po_constant[p]) {
      continue;
    }
    const std::uint32_t lvl = po_levels[p];
    const std::uint64_t start = lvl > 0 ? lvl - 1 : 0;
    sample_buckets[start % phases].push_back({p, start, net.po_signal(p)});
  }

  std::vector<std::uint8_t> value(net.num_nodes(), 0);
  std::vector<std::uint8_t> snapshot;

  const auto read = [](const std::vector<std::uint8_t>& state, slot_ref ref) -> std::uint8_t {
    return state[ref >> 1] ^ static_cast<std::uint8_t>(ref & 1u);
  };
  const auto apply = [&](const tick_op& o, const std::vector<std::uint8_t>& state) {
    if (o.majority) {
      const std::uint8_t a = read(state, o.a);
      const std::uint8_t b = read(state, o.b);
      const std::uint8_t c = read(state, o.c);
      value[o.target] = static_cast<std::uint8_t>((a & b) | (b & c) | (a & c));
    } else {
      value[o.target] = read(state, o.a);
    }
  };

  for (std::uint64_t t = 0; t <= last_tick; ++t) {
    // Present the input wave for this initiation slot (inputs hold their
    // value between injections).
    const std::uint64_t wave = t / phases;
    if (t % phases == 0 && wave < waves.size()) {
      for (std::size_t i = 0; i < net.num_pis(); ++i) {
        value[net.pis()[i]] = static_cast<std::uint8_t>(waves[wave][i]);
      }
    }

    if (const std::size_t bucket = t % phases; bucket < num_buckets) {
      const auto& fired = phase_ops[bucket];
      if (in_place) {
        for (const std::uint32_t i : fired) {
          apply(ops[i], value);
        }
      } else {
        snapshot = value;
        for (const std::uint32_t i : fired) {
          apply(ops[i], snapshot);
        }
      }
    }

    // Sample every output whose driver just latched its wave: exactly the
    // bucket of this tick's residue (start ≡ t mod phases there, so
    // t >= start already implies t lands on a sampling tick).
    if (const std::size_t residue = t % phases; residue < sample_buckets.size()) {
      for (const auto& s : sample_buckets[residue]) {
        if (t < s.start) {
          continue;  // before the first wave can arrive
        }
        const std::uint64_t w = (t - s.start) / phases;
        if (w < waves.size()) {
          result.outputs[w][s.po] = (value[s.driver.index()] != 0) != s.driver.is_complemented();
        }
      }
    }
  }

  // Constant-driven outputs are the same for every wave.
  for (std::size_t p = 0; p < net.num_pos(); ++p) {
    if (!po_constant[p]) {
      continue;
    }
    const bool v = net.po_signal(p).is_complemented();
    for (auto& out : result.outputs) {
      out[p] = v;
    }
  }

  return result;
}

// --------------------------------------------------------- packed path ---

packed_wave_result run_waves_packed(const compiled_netlist& net, const wave_batch& waves,
                                    unsigned phases) {
  validate_packed_run(net, waves.num_pis(), phases, "run_waves_packed");

  packed_wave_result result;
  result.num_pos = net.num_pos();
  result.num_waves = waves.num_waves();
  fill_clock_metrics(result, net, phases, waves.num_waves());
  result.words.resize(waves.num_chunks() * net.num_pos());

  // Plane-major on both sides: the whole run is one multi-word block
  // evaluation (internally split into word-blocks of
  // compiled_netlist::max_block_chunks) with unit-stride PI/PO word I/O.
  std::vector<std::uint64_t> scratch;
  eval_packed_planes(net, waves.view(),
                     {result.words.data(), waves.num_chunks(), net.num_pos(),
                      waves.num_chunks()},
                     scratch);
  detail::mask_result_tail(result);
  return result;
}

wave_stream::wave_stream(const compiled_netlist& net, unsigned phases)
    : net_{net},
      phases_{phases},
      row_words_{detail::row_words(net.num_pis())},
      rows_(block_waves * row_words_),
      pending_{net.num_pis()} {
  validate_packed_run(net, net.num_pis(), phases, "wave_stream");
  pending_.reserve(block_waves);
}

void wave_stream::push(const std::vector<bool>& wave) {
  if (wave.size() != net_.num_pis()) {
    throw std::invalid_argument{"wave_stream: each wave needs one value per primary input"};
  }
  detail::read_row(wave, rows_.data() + staged_ * row_words_);
  ++pushed_;
  if (++staged_ == block_waves) {
    flush_pending();
  }
}

void wave_stream::ensure_capacity(std::size_t needed_chunks) {
  if (stride_ >= needed_chunks) {
    return;
  }
  // The stride starts at one block and doubles: the re-stride copies add
  // up to about one output's worth of words, however long the stream runs.
  const std::size_t new_stride =
      std::max(needed_chunks, stride_ == 0 ? compiled_netlist::max_block_chunks : 2 * stride_);
  std::vector<std::uint64_t> grown(new_stride * net_.num_pos(), 0);
  if (flushed_chunks_ != 0) {
    for (std::size_t p = 0; p < net_.num_pos(); ++p) {
      std::memcpy(grown.data() + p * new_stride, done_words_.data() + p * stride_,
                  flushed_chunks_ * sizeof(std::uint64_t));
    }
  }
  done_words_.swap(grown);
  stride_ = new_stride;
}

void wave_stream::flush_pending() {
  pending_.append_rows(rows_.data(), row_words_, staged_);
  staged_ = 0;
  // Evaluate straight into the full-width result planes at this block's
  // chunk offset. Flushes are chunk-aligned except possibly the last
  // (block_waves is a multiple of 64; a partial block only flushes at
  // finish), so every block owns a whole chunk range of each plane.
  const std::size_t chunks = pending_.num_chunks();
  ensure_capacity(flushed_chunks_ + chunks);
  eval_packed_planes(net_, pending_.view(),
                     {done_words_.data() + flushed_chunks_, stride_, net_.num_pos(), chunks},
                     scratch_);
  flushed_chunks_ += chunks;
  completed_ += pending_.num_waves();
  pending_.clear();  // keeps the packed-word storage for the next block
}

packed_wave_result wave_stream::finish() {
  if (staged_ != 0) {
    flush_pending();
  }
  packed_wave_result out;
  out.num_pos = net_.num_pos();
  out.num_waves = completed_;
  fill_clock_metrics(out, net_, phases_, completed_);
  // Blocks already landed at their final chunk offsets. When the stride
  // overshot the chunk count, compact each plane down to the result stride
  // (ascending planes: the destination never overruns the source).
  const std::size_t total_chunks = out.num_chunks();
  if (stride_ > total_chunks) {
    for (std::size_t p = 0; p < out.num_pos; ++p) {
      std::memmove(done_words_.data() + p * total_chunks, done_words_.data() + p * stride_,
                   total_chunks * sizeof(std::uint64_t));
    }
  }
  done_words_.resize(total_chunks * out.num_pos);
  out.words = std::move(done_words_);
  detail::mask_result_tail(out);
  done_words_ = {};
  stride_ = 0;
  flushed_chunks_ = 0;
  pushed_ = 0;
  completed_ = 0;
  return out;
}

}  // namespace wavemig::engine
