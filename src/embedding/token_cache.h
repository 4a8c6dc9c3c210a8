#ifndef SATO_EMBEDDING_TOKEN_CACHE_H_
#define SATO_EMBEDDING_TOKEN_CACHE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "embedding/tfidf.h"
#include "embedding/vocabulary.h"
#include "embedding/word_embeddings.h"
#include "table/table.h"

namespace sato::embedding {

/// Tokenize-once cache for one table: every cell is tokenised exactly once
/// (the reference pipeline re-tokenised each cell 3-4 times -- word
/// features, paragraph features, the LDA document, and tf-idf weighting),
/// and every per-token question the feature extractors ask -- embedding
/// row, OOV vector, idf weight, LDA vocabulary id -- is answered from a
/// *persistent token dictionary* that resolves each distinct token string
/// once per workload, not once per occurrence or even once per table.
///
/// Two lifetimes coexist:
///  * **per table** (cleared by Build): occurrence list, cell spans,
///    column spans, per-column unique-value counts;
///  * **persistent** (survives Build; invalidated only when the embedding
///    /tf-idf/LDA context changes): the token dictionary and the OOV
///    vector pool. Both are keyed by the token's full text, and every
///    cached quantity (vocabulary ids, idf, the hash-seeded OOV vector) is
///    a pure function of that text, so cross-table reuse is exact.
///
/// Tokenisation is byte-identical to TokenizeCell: lower-cased alnum runs,
/// pure-digit runs mapped to "<num_k>" magnitude buckets. Bytes are
/// classified and lower-cased through one 256-entry table (ByteClasses())
/// built once from the C-locale std::isalnum/isdigit/tolower. Each token is
/// lower-cased into one reused buffer sized to the table's longest value;
/// the dictionary copies the text only when it adds a new entry.
///
/// Hashing: the per-column value interner and the dictionary probe use a
/// word-at-a-time multiply-fold hash (8 bytes per step). It only picks
/// probe slots, so no output depends on it. FNV-1a survives only as the
/// seed of a new entry's OOV vector, where the embedding contract fixes it.
///
/// The cache is scratch: a warm cache re-built over tables whose tokens
/// are already in the dictionary performs no heap allocation (growth is
/// observable through growth_events()). Cell-value views borrow from the
/// source Table and stay valid until it dies or the next Build.
///
/// Contract: a cache (and any FeatureScratch holding one) is bound to one
/// resolution context at a time. Passing different pointers (or a context
/// whose sizes changed) resets the dictionary automatically; mutating a
/// context in place behind an unchanged pointer-and-size identity is not
/// supported.
class TokenCache {
 public:
  /// Cell::value_slot for empty cells (empty values never join the
  /// per-column unique-value statistics, matching the reference Stat path).
  static constexpr uint32_t kNoValue = 0xffffffffu;

  /// C-locale class of one byte, as the tokenizer reads it.
  struct ByteClass {
    uint8_t flags;  ///< kAlnum | kDigit bits
    char lower;     ///< std::tolower of the byte
  };
  static constexpr uint8_t kAlnum = 1;
  static constexpr uint8_t kDigit = 2;

  /// The tokenizer's 256-entry byte table, built once from std::isalnum,
  /// std::isdigit and std::tolower in the C locale.
  static const std::array<ByteClass, 256>& ByteClasses();

  /// One dictionary entry: a distinct token with everything pre-resolved.
  struct Token {
    std::string text;
    uint64_t hash;      ///< probe hash of text (not the OOV seed, which
                        ///< is util::Fnv1aHash(text))
    const double* row;  ///< embedding row (shared matrix or OOV pool)
    TokenId embed_id;   ///< embedding-vocabulary id, -1 when OOV
    TokenId lda_id;     ///< LDA-vocabulary id, -1 when OOV
    double idf;         ///< smoothed idf, 0 when no TfIdf supplied
    int32_t oov_slot;   ///< OOV-pool row, -1 for in-vocabulary tokens
  };

  /// One cell of the source table.
  struct Cell {
    std::string_view value;  ///< borrowed from the source Column
    uint32_t occ_begin;      ///< range in occurrences()
    uint32_t occ_end;
    uint32_t value_slot;     ///< index into value_counts(), kNoValue if empty
  };

  /// One column: a span of cells and a span of unique-value counts.
  struct ColumnSpan {
    uint32_t cell_begin;
    uint32_t cell_end;
    uint32_t value_begin;  ///< range in value_counts()
    uint32_t value_end;
  };

  /// Tokenises a whole table (columns in order, cells top to bottom --
  /// the LDA document order of §4.2). Any of `tfidf`/`lda_vocab` may be
  /// null; `embeddings` may be null only if no word/para extraction will
  /// consume the cache. Changing any of the three pointers (or the
  /// embedding dimensionality) resets the persistent dictionary.
  void Build(const Table& table, const WordEmbeddings* embeddings,
             const TfIdf* tfidf, const Vocabulary* lda_vocab);

  /// Single-column convenience used by the per-column compatibility API.
  void BuildColumn(const Column& column, const WordEmbeddings* embeddings,
                   const TfIdf* tfidf, const Vocabulary* lda_vocab);

  size_t num_columns() const { return columns_.size(); }
  const ColumnSpan& column_span(size_t c) const { return columns_[c]; }
  const Cell& cell(size_t i) const { return cells_[i]; }

  /// Dictionary entry for a token index from occurrences(). The reference
  /// is valid until the next Build (dictionary growth may relocate
  /// entries).
  const Token& token(uint32_t token_index) const {
    return dictionary_[token_index];
  }

  /// Number of distinct tokens the dictionary has resolved so far (an
  /// upper bound for any occurrence's token index).
  size_t dictionary_size() const { return dictionary_.size(); }

  /// Dictionary token index per token occurrence, flat over the table.
  const std::vector<uint32_t>& occurrences() const { return occurrences_; }

  /// Occurrence counts of each unique non-empty cell value, grouped per
  /// column (see ColumnSpan::value_begin/value_end), in first-occurrence
  /// order.
  const std::vector<double>& value_counts() const { return value_counts_; }

  /// First-occurrence text of a unique-value slot from value_counts().
  /// Borrowed from the source Table; valid until it dies or the next
  /// Build. Never empty (empty cells are not interned).
  std::string_view value_view(uint32_t slot) const {
    return value_views_[slot];
  }

  /// Embedding row for a token index: the shared embedding-matrix row for
  /// in-vocabulary tokens, the persistent OOV pool row otherwise. The
  /// pointer spans embedding_dim() doubles and is valid until the next
  /// Build.
  const double* EmbeddingRow(uint32_t token_index) const {
    return dictionary_[token_index].row;
  }

  size_t embedding_dim() const { return dim_; }

  /// Appends the table's in-vocabulary LDA token ids in document order,
  /// truncated to `max_tokens` -- exactly Encode(TableToDocument(table)).
  void CollectLdaIds(size_t max_tokens, std::vector<TokenId>* out) const;

  /// Upper bound on the persistent dictionary + OOV pool, in bytes. When
  /// a Build finds the bound exceeded it drops the whole dictionary and
  /// re-resolves from scratch -- always correct (entries are pure
  /// functions of the token text), and it keeps long-lived serving
  /// workers bounded under high-cardinality text (UUIDs, free text) where
  /// the distinct-token stream never converges. The default is generous:
  /// typical vocabularies converge orders of magnitude below it.
  static constexpr size_t kDefaultMaxDictionaryBytes = 64u << 20;  // 64 MiB

  void set_max_dictionary_bytes(size_t bytes) {
    max_dictionary_bytes_ = bytes;
  }

  /// Bytes currently held by the persistent dictionary + OOV pool.
  size_t DictionaryBytes() const {
    return dictionary_bytes_ + oov_vectors_.capacity() * sizeof(double) +
           token_slots_.capacity() * sizeof(uint64_t);
  }

  /// Number of Build calls that had to grow some buffer or add dictionary
  /// entries. Stable counts across repeated builds prove the steady state
  /// allocates nothing.
  size_t growth_events() const { return growth_events_; }

  /// Total heap bytes currently held by the cache (table-local buffers,
  /// dictionary, OOV pool).
  size_t CapacityBytes() const;

 private:
  void SetContext(const WordEmbeddings* embeddings, const TfIdf* tfidf,
                  const Vocabulary* lda_vocab);
  void Reset(size_t max_value_bytes, size_t cell_count);
  void AddColumn(const Column& column);
  void TokenizeInto(std::string_view value, uint32_t* occ_begin,
                    uint32_t* occ_end);
  void EmitToken(std::string_view lowered, bool all_digits);
  uint32_t InternToken(std::string_view text, uint64_t hash);
  uint32_t AddDictionaryEntry(std::string_view text, uint64_t hash,
                              size_t slot);
  void GrowTokenSlots();
  void FinishBuild(size_t capacity_before);

  const WordEmbeddings* embeddings_ = nullptr;
  const TfIdf* tfidf_ = nullptr;
  const Vocabulary* lda_vocab_ = nullptr;
  size_t dim_ = 0;
  uint64_t context_fingerprint_ = 0;  ///< size-based ABA guard, see .cc

  // -- table-local state, rebuilt by every Build --
  std::vector<char> lower_buf_;  ///< the current token, lower-cased;
                                 ///< sized to the longest value
  std::vector<uint32_t> occurrences_;
  std::vector<Cell> cells_;
  std::vector<ColumnSpan> columns_;
  std::vector<std::string_view> value_views_;  ///< first-occurrence values
  std::vector<double> value_counts_;
  std::vector<uint32_t> value_first_cell_;  ///< cell that first held each
                                            ///< unique value; duplicates
                                            ///< copy its occurrence span
                                            ///< instead of re-tokenising

  // -- persistent state, keyed by token text --
  std::vector<Token> dictionary_;
  std::vector<double> oov_vectors_;   ///< [num_oov x dim_] materialised rows
  const double* oov_data_ = nullptr;  ///< pool base when rows were wired
  std::vector<uint64_t> token_slots_; ///< open addressing hash -> index + 1
  size_t dictionary_bytes_ = 0;       ///< entries + owned text bytes

  size_t max_dictionary_bytes_ = kDefaultMaxDictionaryBytes;

  // Per-column value interner (linear probing, power-of-two capacity).
  // Slot entries pack (generation << 32 | index + 1) so "clearing" between
  // columns is a generation bump, not an O(capacity) fill.
  std::vector<uint64_t> value_slots_;
  uint32_t value_generation_ = 0;

  size_t growth_events_ = 0;
};

}  // namespace sato::embedding

#endif  // SATO_EMBEDDING_TOKEN_CACHE_H_
