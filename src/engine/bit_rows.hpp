#pragma once

// Internal primitive behind every vector<bool> <-> plane conversion of the
// packed front-ends (wave_batch::append_rows and its adapters,
// wave_stream::push, packed_wave_result::unpack): word-level access to a
// vector<bool> row and a 64x64 bit-matrix transpose that turns 64 rows of
// one 64-bit word into 64 plane words and back. Not installed; nothing
// outside src/engine (and the tests of this header) includes it.

#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__GLIBCXX__) && defined(__SIZEOF_LONG__) && __SIZEOF_LONG__ == 8
#define WAVEMIG_BIT_ROWS_WORD_ACCESS 1
#else
#define WAVEMIG_BIT_ROWS_WORD_ACCESS 0
#endif

namespace wavemig::engine::detail {

/// Storage words of a `width`-bit row.
[[nodiscard]] constexpr std::size_t row_words(std::size_t width) { return (width + 63) / 64; }

/// Transposes a 64x64 bit matrix in place: bit c of `a[r]` trades places
/// with bit r of `a[c]`. Six rounds of block swaps, each halving the block
/// (Hacker's Delight §7-3, with bit 0 as column 0).
inline void transpose64(std::uint64_t* a) {
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

/// Bits [64 * word, 64 * word + 64) of `row`, bit i of the row at bit i % 64,
/// zero above `row.size()` — one bit at a time. The portable path, and the
/// reference the word path is tested against.
[[nodiscard]] inline std::uint64_t read_row_word_bits(const std::vector<bool>& row,
                                                      std::size_t word) {
  const std::size_t first = 64 * word;
  const std::size_t live = row.size() - first < 64 ? row.size() - first : 64;
  std::uint64_t bits = 0;
  for (std::size_t b = 0; b < live; ++b) {
    bits |= static_cast<std::uint64_t>(row[first + b]) << b;
  }
  return bits;
}

/// Stores `bits` into bits [64 * word, 64 * word + 64) of `row`, dropping
/// the bits above `row.size()` — one bit at a time.
inline void write_row_word_bits(std::vector<bool>& row, std::size_t word, std::uint64_t bits) {
  const std::size_t first = 64 * word;
  const std::size_t live = row.size() - first < 64 ? row.size() - first : 64;
  for (std::size_t b = 0; b < live; ++b) {
    row[first + b] = ((bits >> b) & 1u) != 0;
  }
}

#if WAVEMIG_BIT_ROWS_WORD_ACCESS
// libstdc++ keeps a vector<bool> in 64-bit words, bit i at bit i % 64 of word
// i / 64, and its iterators expose the storage pointer. A shrinking resize
// leaves stale bits above size() in place, so reads mask them; writes keep
// them zero.
static_assert(sizeof(std::_Bit_type) == 8, "libstdc++ vector<bool> words are 64-bit here");

[[nodiscard]] inline std::uint64_t live_mask(std::size_t width, std::size_t word) {
  const std::size_t live = width - 64 * word;
  return live >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << live) - 1;
}
#endif

/// Word `word` of `row` (see read_row_word_bits): one load where the
/// standard library's layout is known, the per-bit loop elsewhere.
[[nodiscard]] inline std::uint64_t read_row_word(const std::vector<bool>& row, std::size_t word) {
#if WAVEMIG_BIT_ROWS_WORD_ACCESS
  return row.begin()._M_p[word] & live_mask(row.size(), word);
#else
  return read_row_word_bits(row, word);
#endif
}

/// Stores word `word` of `row` (see write_row_word_bits).
inline void write_row_word(std::vector<bool>& row, std::size_t word, std::uint64_t bits) {
#if WAVEMIG_BIT_ROWS_WORD_ACCESS
  row.begin()._M_p[word] = bits & live_mask(row.size(), word);
#else
  write_row_word_bits(row, word, bits);
#endif
}

/// Copies all of `row` into `dst[0 .. row_words(row.size()))`.
inline void read_row(const std::vector<bool>& row, std::uint64_t* dst) {
  const std::size_t words = row_words(row.size());
  for (std::size_t w = 0; w < words; ++w) {
    dst[w] = read_row_word(row, w);
  }
}

}  // namespace wavemig::engine::detail
