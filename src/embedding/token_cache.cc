#include "embedding/token_cache.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstring>

#include "features/simd_load.h"

#if defined(SATO_FEATURES_HAS_AVX2)
#define SATO_TOKENIZE_HAS_AVX2 1
#endif

#include "features/config.h"
#include "util/string_util.h"

namespace sato::embedding {

namespace {

// Magnitude-bucket tokens for pure-digit runs, shared with TokenizeCell
// ("<num_1>" .. "<num_12>"; runs longer than 12 digits clamp to 12).
constexpr size_t kMaxNumDigits = 12;

struct NumTokens {
  std::string text[kMaxNumDigits];
  uint64_t hash[kMaxNumDigits];
  NumTokens() {
    for (size_t d = 0; d < kMaxNumDigits; ++d) {
      text[d] = "<num_" + std::to_string(d + 1) + ">";
      hash[d] = util::Fnv1aHash(text[d]);
    }
  }
};

const NumTokens& GetNumTokens() {
  static const NumTokens tokens;
  return tokens;
}

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

#if defined(SATO_TOKENIZE_HAS_AVX2)
/// AVX2 byte classifier for the tokenizer: builds one alnum bit and one
/// digit bit per value byte, 32 bytes per iteration (range compares +
/// movemask); the final partial block is one masked vector pass through
/// the shared tail loader (corpus values are mostly shorter than one
/// vector, so that block is the common case). Bytes >= 0x80 read negative
/// in the signed compares and classify as non-alnum, exactly like the
/// C-locale std::isalnum the scalar tokenizer uses. The caller must have
/// zeroed `alnum`/`digit` ((n+63)/64 words each).
__attribute__((target("avx2"))) void BuildAlnumMasksAvx2(
    const unsigned char* p, size_t n, uint64_t* alnum, uint64_t* digit) {
  const __m256i digit_lo = _mm256_set1_epi8('0' - 1);
  const __m256i digit_hi = _mm256_set1_epi8('9' + 1);
  const __m256i upper_lo = _mm256_set1_epi8('A' - 1);
  const __m256i upper_hi = _mm256_set1_epi8('Z' + 1);
  const __m256i lower_lo = _mm256_set1_epi8('a' - 1);
  const __m256i lower_hi = _mm256_set1_epi8('z' + 1);
  for (size_t i = 0; i < n; i += 32) {
    const size_t rem = n - i;
    const bool full = rem >= 32;
    const uint32_t valid = full ? 0xffffffffu : ((1u << rem) - 1u);
    __m256i v = full ? _mm256_loadu_si256(
                           reinterpret_cast<const __m256i*>(p + i))
                     : features::internal::LoadTailAvx2(p + i, rem);
    __m256i is_digit = _mm256_and_si256(_mm256_cmpgt_epi8(v, digit_lo),
                                        _mm256_cmpgt_epi8(digit_hi, v));
    __m256i is_alpha = _mm256_or_si256(
        _mm256_and_si256(_mm256_cmpgt_epi8(v, upper_lo),
                         _mm256_cmpgt_epi8(upper_hi, v)),
        _mm256_and_si256(_mm256_cmpgt_epi8(v, lower_lo),
                         _mm256_cmpgt_epi8(lower_hi, v)));
    uint64_t d =
        static_cast<uint32_t>(_mm256_movemask_epi8(is_digit)) & valid;
    uint64_t a = static_cast<uint32_t>(_mm256_movemask_epi8(
                     _mm256_or_si256(is_digit, is_alpha))) &
                 valid;
    size_t word = i / 64, shift = i % 64;
    digit[word] |= d << shift;
    alnum[word] |= a << shift;
  }
}
#endif  // SATO_TOKENIZE_HAS_AVX2

/// First set-bit index >= `from` in an n-bit mask, or n.
size_t NextSetBit(const uint64_t* mask, size_t from, size_t n) {
  size_t word = from / 64;
  uint64_t w = mask[word] & (~uint64_t{0} << (from % 64));
  const size_t nwords = (n + 63) / 64;
  while (w == 0) {
    if (++word >= nwords) return n;
    w = mask[word];
  }
  size_t bit = word * 64 + static_cast<size_t>(std::countr_zero(w));
  return bit < n ? bit : n;
}

/// First clear-bit index >= `from` in an n-bit mask, or n.
size_t NextClearBit(const uint64_t* mask, size_t from, size_t n) {
  size_t word = from / 64;
  uint64_t w = ~mask[word] & (~uint64_t{0} << (from % 64));
  const size_t nwords = (n + 63) / 64;
  while (w == 0) {
    if (++word >= nwords) return n;
    w = ~mask[word];
  }
  size_t bit = word * 64 + static_cast<size_t>(std::countr_zero(w));
  return bit < n ? bit : n;
}

}  // namespace

void TokenCache::SetContext(const WordEmbeddings* embeddings,
                            const TfIdf* tfidf, const Vocabulary* lda_vocab) {
  size_t dim = embeddings != nullptr ? embeddings->dim() : 0;
  // Cheap content fingerprint on top of pointer identity: a *new* context
  // allocated at a recycled address (pointer ABA) would otherwise keep
  // stale cached ids and dangling embedding-row pointers. Sizes catch the
  // realistic reload cases; contexts that swap content at the same
  // address with identical sizes are outside the cache's contract (one
  // FeatureScratch per context -- see the class comment).
  uint64_t fingerprint =
      (embeddings != nullptr ? embeddings->vocab_size() + 1 : 0) ^
      ((tfidf != nullptr ? tfidf->num_documents() + 1 : 0) << 20) ^
      ((lda_vocab != nullptr ? lda_vocab->size() + 1 : 0) << 40);
  if (embeddings != embeddings_ || tfidf != tfidf_ ||
      lda_vocab != lda_vocab_ || dim != dim_ ||
      fingerprint != context_fingerprint_ ||
      // Size bound: drop-and-re-resolve is always correct (entries are
      // pure functions of the token text) and keeps long-lived workers
      // bounded on high-cardinality text.
      DictionaryBytes() > max_dictionary_bytes_) {
    // Every cached id/idf/OOV row is (or may become) stale. Release the
    // storage outright: DictionaryBytes() counts capacities, so a
    // capacity-keeping clear would leave the size bound permanently
    // exceeded and reset on every Build.
    std::vector<Token>().swap(dictionary_);
    dictionary_bytes_ = 0;
    std::vector<double>().swap(oov_vectors_);
    oov_data_ = nullptr;
    std::vector<uint64_t>().swap(token_slots_);  // Reset() re-seeds it
  }
  embeddings_ = embeddings;
  tfidf_ = tfidf;
  lda_vocab_ = lda_vocab;
  dim_ = dim;
  context_fingerprint_ = fingerprint;
}

void TokenCache::Reset(size_t value_bytes, size_t cell_count,
                       const features::Config& config) {
  arena_.clear();
  if (value_bytes > arena_.capacity()) arena_.reserve(value_bytes);
  occurrences_.clear();
  cells_.clear();
  if (cell_count > cells_.capacity()) cells_.reserve(cell_count);
  columns_.clear();
  value_views_.clear();
  value_counts_.clear();
  value_first_cell_.clear();
  if (token_slots_.empty()) token_slots_.assign(1024, 0);
  use_simd_ = features::SimdEnabled(config);
}

void TokenCache::FinishBuild(size_t capacity_before) {
  if (CapacityBytes() > capacity_before) ++growth_events_;
}

void TokenCache::Build(const Table& table, const WordEmbeddings* embeddings,
                       const TfIdf* tfidf, const Vocabulary* lda_vocab,
                       const features::Config& config) {
  size_t capacity_before = CapacityBytes();
  SetContext(embeddings, tfidf, lda_vocab);

  size_t value_bytes = 0, cell_count = 0;
  for (const Column& column : table.columns()) {
    cell_count += column.values.size();
    for (const std::string& value : column.values) value_bytes += value.size();
  }
  Reset(value_bytes, cell_count, config);
  columns_.reserve(table.num_columns());
  for (const Column& column : table.columns()) AddColumn(column);
  FinishBuild(capacity_before);
}

void TokenCache::BuildColumn(const Column& column,
                             const WordEmbeddings* embeddings,
                             const TfIdf* tfidf, const Vocabulary* lda_vocab) {
  size_t capacity_before = CapacityBytes();
  SetContext(embeddings, tfidf, lda_vocab);

  size_t value_bytes = 0;
  for (const std::string& value : column.values) value_bytes += value.size();
  Reset(value_bytes, column.values.size(), features::DefaultConfig());
  AddColumn(column);
  FinishBuild(capacity_before);
}

void TokenCache::AddColumn(const Column& column) {
  ColumnSpan span;
  span.cell_begin = static_cast<uint32_t>(cells_.size());
  span.value_begin = static_cast<uint32_t>(value_counts_.size());

  // Presize the value interner so it never grows mid-column: clearing is a
  // generation bump, so re-use costs nothing.
  size_t want = NextPow2(std::max<size_t>(16, 2 * column.values.size()));
  if (value_slots_.size() < want) value_slots_.assign(want, 0);
  ++value_generation_;
  const size_t vmask = value_slots_.size() - 1;

  for (const std::string& value : column.values) {
    Cell cell;
    cell.value = value;

    if (value.empty()) {
      cell.occ_begin = cell.occ_end =
          static_cast<uint32_t>(occurrences_.size());
      cell.value_slot = kNoValue;
      cells_.push_back(cell);
      continue;
    }

    // Intern the raw value within this column (uniqueness + entropy)
    // BEFORE tokenising: a repeated value produces the exact occurrence
    // sequence its first cell did (token indices are a pure function of
    // the value's bytes), so duplicates copy that span instead of paying
    // classification + lower-casing + hashing + dictionary probes again.
    bool duplicate = false;
    uint64_t h = util::Fnv1aHash(value);
    size_t pos = static_cast<size_t>(h) & vmask;
    for (;;) {
      uint64_t entry = value_slots_[pos];
      uint32_t idx = static_cast<uint32_t>(entry & 0xffffffffu);
      if ((entry >> 32) != value_generation_ || idx == 0) {
        uint32_t slot = static_cast<uint32_t>(value_counts_.size());
        value_views_.push_back(cell.value);
        value_counts_.push_back(1.0);
        value_first_cell_.push_back(static_cast<uint32_t>(cells_.size()));
        value_slots_[pos] =
            (static_cast<uint64_t>(value_generation_) << 32) |
            (slot - span.value_begin + 1);
        cell.value_slot = slot;
        break;
      }
      uint32_t slot = span.value_begin + idx - 1;
      if (slot < value_views_.size() && value_views_[slot] == cell.value) {
        value_counts_[slot] += 1.0;
        cell.value_slot = slot;
        duplicate = true;
        break;
      }
      pos = (pos + 1) & vmask;
    }

    if (duplicate) {
      const Cell& first = cells_[value_first_cell_[cell.value_slot]];
      uint32_t len = first.occ_end - first.occ_begin;
      cell.occ_begin = static_cast<uint32_t>(occurrences_.size());
      cell.occ_end = cell.occ_begin + len;
      // resize-then-copy: self-referential insert() would be UB when the
      // vector reallocates mid-read.
      occurrences_.resize(occurrences_.size() + len);
      std::copy(occurrences_.begin() + first.occ_begin,
                occurrences_.begin() + first.occ_end,
                occurrences_.begin() + cell.occ_begin);
    } else {
      TokenizeInto(value, &cell.occ_begin, &cell.occ_end);
    }
    cells_.push_back(cell);
  }

  span.cell_end = static_cast<uint32_t>(cells_.size());
  span.value_end = static_cast<uint32_t>(value_counts_.size());
  columns_.push_back(span);
}

void TokenCache::EmitToken(std::string_view value, size_t start, size_t end,
                           bool all_digits) {
  uint32_t index;
  if (all_digits) {
    size_t digits = std::min(end - start, kMaxNumDigits);
    const NumTokens& nt = GetNumTokens();
    index = InternToken(nt.text[digits - 1], nt.hash[digits - 1]);
  } else {
    // Lower-case into the arena (capacity was reserved up front, so the
    // view stays put while we probe the dictionary with it).
    size_t arena_start = arena_.size();
    uint64_t h = util::kFnv1aOffset;
    for (size_t j = start; j < end; ++j) {
      char c = static_cast<char>(
          std::tolower(static_cast<unsigned char>(value[j])));
      arena_.push_back(c);
      h = util::Fnv1aAppend(h, static_cast<unsigned char>(c));
    }
    std::string_view text(arena_.data() + arena_start, end - start);
    index = InternToken(text, h);
  }
  occurrences_.push_back(index);
}

void TokenCache::TokenizeInto(std::string_view value, uint32_t* occ_begin,
                              uint32_t* occ_end) {
#if defined(SATO_TOKENIZE_HAS_AVX2)
  // One vector's worth of bytes is the break-even point; short values go
  // through the scalar loop either way.
  if (use_simd_ && value.size() >= 32) {
    TokenizeWithMasks(value, occ_begin, occ_end);
    return;
  }
#endif
  *occ_begin = static_cast<uint32_t>(occurrences_.size());
  size_t i = 0;
  const size_t n = value.size();
  while (i < n) {
    // Skip to the next alnum run.
    while (i < n && !std::isalnum(static_cast<unsigned char>(value[i]))) ++i;
    size_t start = i;
    bool all_digits = true;
    while (i < n && std::isalnum(static_cast<unsigned char>(value[i]))) {
      if (!std::isdigit(static_cast<unsigned char>(value[i]))) {
        all_digits = false;
      }
      ++i;
    }
    if (i == start) break;
    EmitToken(value, start, i, all_digits);
  }
  *occ_end = static_cast<uint32_t>(occurrences_.size());
}

void TokenCache::TokenizeWithMasks(std::string_view value,
                                   uint32_t* occ_begin, uint32_t* occ_end) {
  *occ_begin = static_cast<uint32_t>(occurrences_.size());
#if defined(SATO_TOKENIZE_HAS_AVX2)
  const size_t n = value.size();
  const size_t nwords = (n + 63) / 64;
  if (mask_alnum_.size() < nwords) {
    mask_alnum_.resize(nwords);
    mask_digit_.resize(nwords);
  }
  std::memset(mask_alnum_.data(), 0, nwords * sizeof(uint64_t));
  std::memset(mask_digit_.data(), 0, nwords * sizeof(uint64_t));
  BuildAlnumMasksAvx2(reinterpret_cast<const unsigned char*>(value.data()), n,
                      mask_alnum_.data(), mask_digit_.data());

  // Walk the set-bit runs: each is one alnum token; it is all-digits iff
  // every one of its digit bits is set. Token emission (lower-case + FNV
  // or the <num_k> bucket) is the same code the scalar path runs, so the
  // occurrence stream is bitwise identical.
  size_t i = 0;
  while (i < n) {
    size_t start = NextSetBit(mask_alnum_.data(), i, n);
    if (start >= n) break;
    size_t end = NextClearBit(mask_alnum_.data(), start, n);
    bool all_digits = true;
    for (size_t w = start; w < end && all_digits;) {
      size_t word = w / 64;
      size_t upto = std::min(end, (word + 1) * 64);
      uint64_t want = (~uint64_t{0} >> (64 - (upto - w))) << (w % 64);
      all_digits = (mask_digit_[word] & want) == want;
      w = upto;
    }
    EmitToken(value, start, end, all_digits);
    i = end;
  }
#else
  (void)value;
#endif
  *occ_end = static_cast<uint32_t>(occurrences_.size());
}

uint32_t TokenCache::InternToken(std::string_view text, uint64_t hash) {
  if ((dictionary_.size() + 1) * 2 > token_slots_.size()) GrowTokenSlots();
  const size_t mask = token_slots_.size() - 1;
  size_t pos = static_cast<size_t>(hash) & mask;
  for (;;) {
    uint64_t entry = token_slots_[pos];
    if (entry == 0) break;  // empty slot: token not in the dictionary yet
    const Token& t = dictionary_[entry - 1];
    if (t.hash == hash && t.text == text) {
      return static_cast<uint32_t>(entry - 1);
    }
    pos = (pos + 1) & mask;
  }
  return AddDictionaryEntry(text, hash, pos);
}

uint32_t TokenCache::AddDictionaryEntry(std::string_view text, uint64_t hash,
                                        size_t slot) {
  // New distinct token: resolve everything the extractors will ever ask
  // about it, once per workload.
  Token t;
  t.text = std::string(text);
  t.hash = hash;
  t.row = nullptr;
  t.embed_id = -1;
  t.lda_id = -1;
  t.idf = tfidf_ != nullptr ? tfidf_->Idf(text) : 0.0;
  t.oov_slot = -1;
  if (embeddings_ != nullptr) {
    if (auto id = embeddings_->vocab().Id(text); id.has_value()) {
      t.embed_id = *id;
      t.row = embeddings_->vectors().Row(static_cast<size_t>(*id));
    } else {
      t.oov_slot = static_cast<int32_t>(oov_vectors_.size() /
                                        std::max<size_t>(1, dim_));
      oov_vectors_.resize(oov_vectors_.size() + dim_);
      embeddings_->OovVectorInto(
          hash,
          oov_vectors_.data() + static_cast<size_t>(t.oov_slot) * dim_);
      t.row = oov_vectors_.data() + static_cast<size_t>(t.oov_slot) * dim_;
      if (oov_vectors_.data() != oov_data_) {
        // The pool re-allocated: re-wire every earlier OOV entry's row
        // pointer to the new base (rare, amortised by doubling growth).
        oov_data_ = oov_vectors_.data();
        for (Token& prev : dictionary_) {
          if (prev.oov_slot >= 0) {
            prev.row =
                oov_data_ + static_cast<size_t>(prev.oov_slot) * dim_;
          }
        }
      }
    }
  }
  if (lda_vocab_ != nullptr) {
    if (auto id = lda_vocab_->Id(text); id.has_value()) t.lda_id = *id;
  }
  uint32_t index = static_cast<uint32_t>(dictionary_.size());
  dictionary_bytes_ += sizeof(Token) + t.text.capacity();
  dictionary_.push_back(std::move(t));
  token_slots_[slot] = index + 1;
  return index;
}

void TokenCache::GrowTokenSlots() {
  size_t want = std::max<size_t>(1024, token_slots_.size() * 2);
  token_slots_.assign(want, 0);
  const size_t mask = want - 1;
  for (size_t i = 0; i < dictionary_.size(); ++i) {
    size_t pos = static_cast<size_t>(dictionary_[i].hash) & mask;
    while (token_slots_[pos] != 0) pos = (pos + 1) & mask;
    token_slots_[pos] = i + 1;
  }
}

void TokenCache::CollectLdaIds(size_t max_tokens,
                               std::vector<TokenId>* out) const {
  for (uint32_t index : occurrences_) {
    if (out->size() >= max_tokens) break;
    TokenId id = dictionary_[index].lda_id;
    if (id >= 0) out->push_back(id);
  }
}

size_t TokenCache::CapacityBytes() const {
  return arena_.capacity() * sizeof(char) +
         occurrences_.capacity() * sizeof(uint32_t) +
         cells_.capacity() * sizeof(Cell) +
         columns_.capacity() * sizeof(ColumnSpan) +
         value_views_.capacity() * sizeof(std::string_view) +
         value_counts_.capacity() * sizeof(double) +
         value_first_cell_.capacity() * sizeof(uint32_t) +
         (mask_alnum_.capacity() + mask_digit_.capacity()) * sizeof(uint64_t) +
         dictionary_bytes_ + oov_vectors_.capacity() * sizeof(double) +
         token_slots_.capacity() * sizeof(uint64_t) +
         value_slots_.capacity() * sizeof(uint64_t);
}

}  // namespace sato::embedding
