// Adversarial byte sequences shared by the featurization test suites:
// the stat scan's SIMD-vs-scalar parity (simd_test.cc) and the tokenizer's
// agreement with TokenizeCell (features_test.cc). Every case targets a
// specific failure mode of a byte classifier; the comments say which.

#ifndef SATO_TESTS_ADVERSARIAL_VALUES_H_
#define SATO_TESTS_ADVERSARIAL_VALUES_H_

#include <algorithm>
#include <string>
#include <vector>

#include "table/table.h"
#include "util/rng.h"

namespace sato::testdata {

/// The adversarial corpus. Every case targets a specific failure mode of
/// a 32-bytes-at-a-time kernel; the comments say which.
inline std::vector<std::string> AdversarialValues() {
  std::vector<std::string> values = {
      "",                // empty cell (kernels must not read the pointer)
      "a", "Z", "0", "9", " ", "\t", "(", ")", "_", "@", ":", "#",
      "1e",              // strtod consumes "1", leaves "e" -- trailing junk
      "+.",              // sign and dot but no digits
      "-",  "+", ".", ",",
      "1e5", "-3.75", "+0.5", "1,234,567.89", "(42)", "(1.5)",
      "NaN", "nan(chars)", "inf", "-Infinity",
      "∞",               // UTF-8 bytes >= 0x80: must classify as slot -1
      "caffè latte",     // multi-byte char inside an ASCII word
      "日本語テキスト",    // pure multi-byte: no alnum runs at all
      "héllo wörld naïve",
      "Ωmega Ω",         // capitalized check reads v[0] = 0xCE
      std::string("a\0b", 3),    // embedded NUL (the force_slow LUT row)
      std::string("12\0004", 4), // NUL splitting a digit run
      "  leading and trailing  ",
      "tab\tsep\tvals", "cr\rlf\nmix", "\v\f\r\n\t ",
      "several words separated by single spaces here",
  };

  // Exact vector-edge lengths: 31/32/33 and 63/64/65 bytes, as one run,
  // as all digits, and with a word boundary AT the lane edge.
  for (size_t len : {31u, 32u, 33u, 63u, 64u, 65u}) {
    values.push_back(std::string(len, 'x'));
    values.push_back(std::string(len, '7'));
    std::string boundary(len, 'a');
    boundary[len / 2] = ' ';
    values.push_back(boundary);
    std::string edge(len, 'b');
    if (len >= 33) {
      edge[31] = ' ';  // word ends exactly at the first lane edge
      edge[32] = 'C';  // next word starts in the second lane
    }
    values.push_back(edge);
    std::string mixed;
    for (size_t i = 0; i < len; ++i) {
      mixed.push_back("a7 .%\xc3\xa9-"[i % 8]);
    }
    values.push_back(mixed);
  }

  // Long cells: a numeric-looking one (maybe_numeric nibble LUT sweeps
  // many vectors) and free text with every punctuation slot.
  values.push_back(std::string(500, '3') + "." + std::string(500, '1'));
  std::string long_text;
  for (int i = 0; i < 40; ++i) {
    long_text += "The quick brown-fox (index #";
    long_text += std::to_string(i);
    long_text += ") jumps $12.50, 'quoted' & \"done\"; ";
  }
  values.push_back(long_text);

  // Every byte value, alone and packed into one 256-byte cell.
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) {
    values.push_back(std::string(1, static_cast<char>(b)));
    all_bytes.push_back(static_cast<char>(b));
  }
  values.push_back(all_bytes);

  // Random byte soup, deterministic: lengths straddling several vectors.
  util::Rng rng(99);
  for (size_t len : {7u, 40u, 100u, 333u}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::string s;
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng.UniformInt(0, 255)));
      }
      values.push_back(std::move(s));
    }
  }
  return values;
}

/// One table holding the whole adversarial corpus (plus duplicates, so
/// the interner's copy-first-cell's-span path runs), split over a few
/// columns to exercise per-column value spans.
inline Table AdversarialTable() {
  Table table("adversarial");
  std::vector<std::string> values = AdversarialValues();
  const size_t kColumns = 5;
  size_t per_column = values.size() / kColumns + 1;
  for (size_t c = 0; c < kColumns; ++c) {
    Column column;
    column.header = "col" + std::to_string(c);
    for (size_t i = c * per_column;
         i < std::min(values.size(), (c + 1) * per_column); ++i) {
      column.values.push_back(values[i]);
      if (i % 3 == 0) column.values.push_back(values[i]);  // duplicates
    }
    table.AddColumn(std::move(column));
  }
  return table;
}

}  // namespace sato::testdata

#endif  // SATO_TESTS_ADVERSARIAL_VALUES_H_
