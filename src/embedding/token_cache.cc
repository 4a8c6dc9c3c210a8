#include "embedding/token_cache.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "util/string_util.h"

namespace sato::embedding {

namespace {

// Magnitude-bucket tokens for pure-digit runs, shared with TokenizeCell
// ("<num_1>" .. "<num_12>"; runs longer than 12 digits clamp to 12).
constexpr size_t kMaxNumDigits = 12;

/// 64x64 -> 128-bit multiply, folded to 64 bits: one multiply mixes every
/// input bit into the low bits the probe sequences mask with.
inline uint64_t MulFold(uint64_t a, uint64_t b) {
  const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(r) ^ static_cast<uint64_t>(r >> 64);
}

inline uint64_t Load64(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

inline uint64_t Load32(const char* p) {
  uint32_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// Probe hash of the value interner and the token dictionary: 8 bytes per
/// multiply-fold step, the last 1-8 bytes read by two overlapping 4-byte
/// loads (or three single bytes under 4), never past the end of `s`. It
/// only picks probe slots -- every hit is confirmed by comparing the text
/// -- so no output depends on it; the OOV vector seed stays
/// util::Fnv1aHash (see AddDictionaryEntry).
uint64_t ProbeHash(std::string_view s) {
  constexpr uint64_t kK0 = 0xa0761d6478bd642full;
  constexpr uint64_t kK1 = 0xe7037ed1a0b428dbull;
  constexpr uint64_t kK2 = 0x8ebc6af09c88c6e3ull;
  const char* p = s.data();
  size_t n = s.size();
  uint64_t h = kK0 + n;
  for (; n > 8; p += 8, n -= 8) h = MulFold(Load64(p) ^ kK1, h ^ kK2);
  uint64_t tail = 0;
  if (n >= 4) {
    tail = (Load32(p) << 32) | Load32(p + n - 4);
  } else if (n > 0) {
    const auto* u = reinterpret_cast<const unsigned char*>(p);
    tail = (uint64_t{u[0]} << 16) | (uint64_t{u[n / 2]} << 8) | u[n - 1];
  }
  return MulFold(tail ^ kK1, h ^ kK2);
}

struct NumTokens {
  std::string text[kMaxNumDigits];
  uint64_t hash[kMaxNumDigits];
  NumTokens() {
    for (size_t d = 0; d < kMaxNumDigits; ++d) {
      text[d] = "<num_" + std::to_string(d + 1) + ">";
      hash[d] = ProbeHash(text[d]);
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

}  // namespace

const std::array<TokenCache::ByteClass, 256>& TokenCache::ByteClasses() {
  static const std::array<ByteClass, 256> table = [] {
    std::array<ByteClass, 256> t{};
    for (int c = 0; c < 256; ++c) {
      ByteClass& b = t[static_cast<size_t>(c)];
      b.flags = static_cast<uint8_t>((std::isalnum(c) ? kAlnum : 0) |
                                     (std::isdigit(c) ? kDigit : 0));
      b.lower = static_cast<char>(std::tolower(c));
    }
    return t;
  }();
  return table;
}

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

void TokenCache::Reset(size_t max_value_bytes, size_t cell_count) {
  if (max_value_bytes > lower_buf_.size()) lower_buf_.resize(max_value_bytes);
  occurrences_.clear();
  cells_.clear();
  if (cell_count > cells_.capacity()) cells_.reserve(cell_count);
  columns_.clear();
  value_views_.clear();
  value_counts_.clear();
  value_first_cell_.clear();
  if (token_slots_.empty()) token_slots_.assign(1024, 0);
}

void TokenCache::FinishBuild(size_t capacity_before) {
  if (CapacityBytes() > capacity_before) ++growth_events_;
}

void TokenCache::Build(const Table& table, const WordEmbeddings* embeddings,
                       const TfIdf* tfidf, const Vocabulary* lda_vocab) {
  size_t capacity_before = CapacityBytes();
  SetContext(embeddings, tfidf, lda_vocab);

  size_t max_value_bytes = 0, cell_count = 0;
  for (const Column& column : table.columns()) {
    cell_count += column.values.size();
    for (const std::string& value : column.values) {
      max_value_bytes = std::max(max_value_bytes, value.size());
    }
  }
  Reset(max_value_bytes, cell_count);
  columns_.reserve(table.num_columns());
  for (const Column& column : table.columns()) AddColumn(column);
  FinishBuild(capacity_before);
}

void TokenCache::BuildColumn(const Column& column,
                             const WordEmbeddings* embeddings,
                             const TfIdf* tfidf, const Vocabulary* lda_vocab) {
  size_t capacity_before = CapacityBytes();
  SetContext(embeddings, tfidf, lda_vocab);

  size_t max_value_bytes = 0;
  for (const std::string& value : column.values) {
    max_value_bytes = std::max(max_value_bytes, value.size());
  }
  Reset(max_value_bytes, column.values.size());
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
    uint64_t h = ProbeHash(value);
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

void TokenCache::EmitToken(std::string_view lowered, bool all_digits) {
  uint32_t index;
  if (all_digits) {
    size_t digits = std::min(lowered.size(), kMaxNumDigits);
    const NumTokens& nt = GetNumTokens();
    index = InternToken(nt.text[digits - 1], nt.hash[digits - 1]);
  } else {
    index = InternToken(lowered, ProbeHash(lowered));
  }
  occurrences_.push_back(index);
}

void TokenCache::TokenizeInto(std::string_view value, uint32_t* occ_begin,
                              uint32_t* occ_end) {
  *occ_begin = static_cast<uint32_t>(occurrences_.size());
  const ByteClass* cls = ByteClasses().data();
  const auto* p = reinterpret_cast<const unsigned char*>(value.data());
  // Each run is lower-cased into the reused token buffer (sized to the
  // longest value by Reset) while it is scanned; the dictionary copies the
  // text only for a new entry.
  char* lowered = lower_buf_.data();
  size_t i = 0;
  const size_t n = value.size();
  while (i < n) {
    // Skip to the next alnum run.
    while (i < n && (cls[p[i]].flags & kAlnum) == 0) ++i;
    size_t start = i;
    // The run is all digits iff every byte's flags keep the digit bit.
    uint8_t run = kDigit;
    for (; i < n; ++i) {
      const ByteClass b = cls[p[i]];
      if ((b.flags & kAlnum) == 0) break;
      run &= b.flags;
      lowered[i - start] = b.lower;
    }
    if (i == start) break;
    EmitToken(std::string_view(lowered, i - start), run != 0);
  }
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
  // about it, once per workload. `hash` is only the probe hash; the OOV
  // vector is seeded from util::Fnv1aHash, like WordEmbeddings::Lookup.
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
          util::Fnv1aHash(text),
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
  return lower_buf_.capacity() * sizeof(char) +
         occurrences_.capacity() * sizeof(uint32_t) +
         cells_.capacity() * sizeof(Cell) +
         columns_.capacity() * sizeof(ColumnSpan) +
         value_views_.capacity() * sizeof(std::string_view) +
         value_counts_.capacity() * sizeof(double) +
         value_first_cell_.capacity() * sizeof(uint32_t) +
         dictionary_bytes_ + oov_vectors_.capacity() * sizeof(double) +
         token_slots_.capacity() * sizeof(uint64_t) +
         value_slots_.capacity() * sizeof(uint64_t);
}

}  // namespace sato::embedding
