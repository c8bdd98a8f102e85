// The vector<bool> <-> plane primitive behind the packed front-ends: the
// 64x64 bit transpose and the word-level row access, checked against the
// per-bit fallback that is always compiled.

#include "../src/engine/bit_rows.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

namespace wavemig {
namespace {

using engine::detail::read_row;
using engine::detail::read_row_word;
using engine::detail::read_row_word_bits;
using engine::detail::row_words;
using engine::detail::transpose64;
using engine::detail::write_row_word;
using engine::detail::write_row_word_bits;

std::vector<bool> random_row(std::size_t width, std::mt19937_64& rng) {
  std::vector<bool> row(width);
  for (std::size_t i = 0; i < width; ++i) {
    row[i] = (rng() & 1u) != 0;
  }
  return row;
}

/// A copy of `row` whose storage is all ones above size(): what a
/// shrinking resize of an all-true vector leaves behind on libstdc++.
std::vector<bool> with_stale_padding(const std::vector<bool>& row) {
  std::vector<bool> stale(row.size() + 130, true);
  stale.resize(row.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    stale[i] = row[i];
  }
  return stale;
}

/// On libstdc++, the storage bits of `row` above size() are zero. (Other
/// standard libraries never see word writes, so there is nothing to check.)
bool padding_is_zero(const std::vector<bool>& row) {
#if WAVEMIG_BIT_ROWS_WORD_ACCESS
  if (row.size() % 64 == 0) {
    return true;
  }
  const std::uint64_t last = row.begin()._M_p[row.size() / 64];
  return (last >> (row.size() % 64)) == 0;
#else
  (void)row;
  return true;
#endif
}

TEST(bit_rows, transpose64_maps_a_known_matrix) {
  // Bit c of row r is set iff (3r + 5c) % 7 == 0; after the transpose,
  // bit r of row c carries it.
  const auto cell = [](unsigned r, unsigned c) { return (3 * r + 5 * c) % 7 == 0; };
  std::uint64_t a[64];
  for (unsigned r = 0; r < 64; ++r) {
    a[r] = 0;
    for (unsigned c = 0; c < 64; ++c) {
      a[r] |= static_cast<std::uint64_t>(cell(r, c)) << c;
    }
  }
  transpose64(a);
  for (unsigned c = 0; c < 64; ++c) {
    for (unsigned r = 0; r < 64; ++r) {
      ASSERT_EQ(((a[c] >> r) & 1u) != 0, cell(r, c)) << "row " << r << " column " << c;
    }
  }

  // A single set bit moves from (3, 17) to (17, 3).
  std::uint64_t b[64] = {};
  b[3] = std::uint64_t{1} << 17;
  transpose64(b);
  for (unsigned r = 0; r < 64; ++r) {
    EXPECT_EQ(b[r], r == 17 ? std::uint64_t{1} << 3 : 0u) << "row " << r;
  }
}

TEST(bit_rows, transpose64_is_an_involution) {
  std::mt19937_64 rng{64};
  for (int trial = 0; trial < 20; ++trial) {
    std::uint64_t a[64];
    std::uint64_t original[64];
    for (unsigned r = 0; r < 64; ++r) {
      a[r] = original[r] = rng();
    }
    transpose64(a);
    transpose64(a);
    for (unsigned r = 0; r < 64; ++r) {
      ASSERT_EQ(a[r], original[r]) << "trial " << trial << " row " << r;
    }
  }
}

TEST(bit_rows, word_reads_match_the_per_bit_fallback) {
  std::mt19937_64 rng{7};
  for (std::size_t width = 1; width <= 200; ++width) {
    const auto row = random_row(width, rng);
    const auto stale = with_stale_padding(row);
    std::vector<std::uint64_t> words(row_words(width));
    read_row(stale, words.data());
    for (std::size_t w = 0; w < row_words(width); ++w) {
      const std::uint64_t want = read_row_word_bits(row, w);
      ASSERT_EQ(read_row_word(row, w), want) << "width " << width << " word " << w;
      // Stale storage bits above size() never reach the caller.
      ASSERT_EQ(read_row_word(stale, w), want) << "width " << width << " word " << w;
      ASSERT_EQ(read_row_word_bits(stale, w), want) << "width " << width << " word " << w;
      ASSERT_EQ(words[w], want) << "width " << width << " word " << w;
    }
  }
}

TEST(bit_rows, word_writes_match_the_per_bit_fallback_and_keep_padding_zero) {
  std::mt19937_64 rng{11};
  for (std::size_t width = 1; width <= 200; ++width) {
    auto by_word = random_row(width, rng);
    auto by_bit = by_word;
    for (std::size_t w = 0; w < row_words(width); ++w) {
      const std::uint64_t bits = rng();  // set above size() too: must be dropped
      write_row_word(by_word, w, bits);
      write_row_word_bits(by_bit, w, bits);
      ASSERT_EQ(by_word, by_bit) << "width " << width << " word " << w;
      ASSERT_TRUE(padding_is_zero(by_word)) << "width " << width << " word " << w;
    }
    // Writes over stale padding clear it.
    auto stale = with_stale_padding(by_bit);
    write_row_word(stale, row_words(width) - 1, read_row_word_bits(by_bit, row_words(width) - 1));
    EXPECT_EQ(stale, by_bit) << "width " << width;
    EXPECT_TRUE(padding_is_zero(stale)) << "width " << width;
  }
}

}  // namespace
}  // namespace wavemig
