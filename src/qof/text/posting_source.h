#ifndef QOF_TEXT_POSTING_SOURCE_H_
#define QOF_TEXT_POSTING_SOURCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "qof/text/corpus.h"
#include "qof/util/result.h"

namespace qof {

/// A backing tier a WordIndex can load posting lists from on demand (the
/// disk-resident paged store implements this; see qof/store/). Unlike
/// region names, words number in the hundreds of thousands, so the index
/// never enumerates them eagerly: presence and counts are dictionary
/// probes, prefix search asks the source's sorted dictionary, and
/// Entries() exists only for full materialization (serialization,
/// mutations).
///
/// Implementations must be thread-safe.
class PostingSource {
 public:
  virtual ~PostingSource() = default;

  struct Entry {
    std::string word;
    uint64_t count = 0;  // postings for the word
  };

  virtual uint64_t distinct_words() const = 0;
  virtual uint64_t total_postings() const = 0;
  /// Encoded bytes of all posting lists (footprint reporting).
  virtual uint64_t approx_bytes() const = 0;

  /// The word's sorted postings, or nullopt when the word is not stored
  /// (absence is an answer, not an error).
  virtual Result<std::optional<std::vector<TextPos>>> Load(
      std::string_view word) const = 0;

  /// The word's posting count from the dictionary alone (0 when the word
  /// is not stored) — never reads the postings themselves, so planning
  /// can size a selection without paging its list in.
  virtual Result<uint64_t> Count(std::string_view word) const = 0;

  /// Stored words beginning with `prefix`, sorted.
  virtual Result<std::vector<std::string>> WordsWithPrefix(
      std::string_view prefix) const = 0;

  /// Every stored word with its cardinality, sorted — the full-
  /// materialization path only.
  virtual Result<std::vector<Entry>> Entries() const = 0;
};

}  // namespace qof

#endif  // QOF_TEXT_POSTING_SOURCE_H_
