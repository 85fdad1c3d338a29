#ifndef QOF_TEXT_WORD_INDEX_H_
#define QOF_TEXT_WORD_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "qof/text/corpus.h"
#include "qof/text/posting_source.h"
#include "qof/text/tokenizer.h"
#include "qof/util/thread_pool.h"

namespace qof {

/// Options controlling word-index construction.
struct WordIndexOptions {
  /// Fold tokens to lower case before indexing and lookup.
  bool fold_case = false;
  /// When set, only tokens for which the filter returns true are indexed
  /// (the paper's "selective indexing can also be done for words", §2/§7).
  /// Parallel builds call the filter from several worker threads at once,
  /// so it must be thread-safe (pure predicates are).
  std::function<bool(const WordToken&)> token_filter;
};

/// The word index of the paper's PAT-like engine: for every word in the
/// corpus, the sorted list of its occurrence start positions ("match
/// points"). All postings for a word share the word's byte length, so a
/// posting `p` denotes the corpus span [p, p + word.size()).
class WordIndex {
 public:
  /// Builds the index over the whole corpus. When `pool` is non-null and
  /// has more than one worker, documents are tokenized in parallel and
  /// the per-document postings merged in document order; the result is
  /// identical to the serial build (documents never share a token — the
  /// corpus separates them with '\n').
  static WordIndex Build(const Corpus& corpus, WordIndexOptions options = {},
                         ThreadPool* pool = nullptr);

  /// Sorted start positions of `word`'s occurrences (empty if absent).
  /// With a backing source attached (disk-resident mode) the first lookup
  /// of a word pages its postings in; an I/O failure answers empty here —
  /// fallible callers run EnsureLoaded() first to observe the error.
  const std::vector<TextPos>& Lookup(std::string_view word) const;

  // --- disk-resident backing (see src/qof/store/) -----------------------

  /// Attaches a backing source; posting lists materialize lazily from it
  /// on first Lookup. Words are never enumerated eagerly — presence is a
  /// dictionary probe against the source. Call on a freshly constructed
  /// index, before sharing it.
  void AttachSource(std::shared_ptr<const PostingSource> source) {
    source_ = std::move(source);
  }

  /// True while some posting list may still live only in the source.
  bool disk_resident() const {
    return source_ != nullptr &&
           !all_resident_.load(std::memory_order_acquire);
  }

  /// Number of `word`'s postings without paging them in: the resident
  /// list's size when loaded, else the source dictionary's count. Fails
  /// only when a dictionary probe does.
  Result<uint64_t> CountPostings(std::string_view word) const;

  /// Sum of CountPostings over every indexed word beginning with
  /// `prefix` (the size LookupPrefix would answer), equally I/O-free on
  /// the posting lists.
  Result<uint64_t> CountPrefixPostings(std::string_view prefix) const;

  /// Pages `word`'s postings in (no-op when already resident or the word
  /// is absent) — the fallible face of Lookup().
  Status EnsureLoaded(std::string_view word) const;

  /// Materializes every stored posting list. Idempotent. Mutators and
  /// serialization (ForEachWord) require this first.
  Status EnsureResident() const;

  /// Merged, sorted start positions of every indexed word beginning with
  /// `prefix` — PAT's lexical/prefix search. Uses a lazily built sorted
  /// word directory; O(log W + hits). Safe to call from concurrent
  /// readers sharing an otherwise-immutable index (snapshot queries).
  std::vector<TextPos> LookupPrefix(std::string_view prefix) const;

  // Hand-written copy/move: the directory cache both embeds a mutex
  // (per-instance) and holds pointers into this instance's postings_
  // keys, so it must never travel with the data — it is dropped and
  // lazily rebuilt in the destination.
  WordIndex() = default;
  WordIndex(const WordIndex& other) {
    std::lock_guard<std::mutex> lock(other.lazy_mu_);
    postings_ = other.postings_;
    num_postings_ = other.num_postings_;
    options_ = other.options_;
    source_ = other.source_;
    absent_ = other.absent_;
    all_resident_.store(other.all_resident_.load(std::memory_order_acquire),
                        std::memory_order_release);
  }
  WordIndex& operator=(const WordIndex& other) {
    if (this == &other) return *this;
    std::lock_guard<std::mutex> lock(other.lazy_mu_);
    postings_ = other.postings_;
    num_postings_ = other.num_postings_;
    options_ = other.options_;
    source_ = other.source_;
    absent_ = other.absent_;
    all_resident_.store(other.all_resident_.load(std::memory_order_acquire),
                        std::memory_order_release);
    sorted_words_.clear();
    return *this;
  }
  WordIndex(WordIndex&& other) noexcept
      : postings_(std::move(other.postings_)),
        num_postings_(other.num_postings_),
        options_(std::move(other.options_)),
        source_(std::move(other.source_)),
        absent_(std::move(other.absent_)) {
    all_resident_.store(other.all_resident_.load(std::memory_order_acquire),
                        std::memory_order_release);
    other.sorted_words_.clear();  // its pointers moved away with the map
  }
  WordIndex& operator=(WordIndex&& other) noexcept {
    postings_ = std::move(other.postings_);
    num_postings_ = other.num_postings_;
    options_ = std::move(other.options_);
    source_ = std::move(other.source_);
    absent_ = std::move(other.absent_);
    all_resident_.store(other.all_resident_.load(std::memory_order_acquire),
                        std::memory_order_release);
    sorted_words_.clear();
    other.sorted_words_.clear();
    return *this;
  }

  /// True when the word occurs at least once.
  bool Contains(std::string_view word) const {
    return !Lookup(word).empty();
  }

  size_t num_distinct_words() const {
    // Disk-resident: the store's dictionary knows the count without any
    // list being materialized (loaded words are a subset of stored ones).
    if (disk_resident()) return source_->distinct_words();
    return postings_.size();
  }
  uint64_t num_postings() const {
    if (disk_resident()) return source_->total_postings();
    return num_postings_;
  }

  /// Approximate memory footprint in bytes (keys + postings), used by the
  /// index-size/efficiency tradeoff experiments.
  uint64_t ApproxBytes() const;

  const WordIndexOptions& options() const { return options_; }

  /// Iterates (word, postings) pairs in unspecified order — serialization
  /// support. Disk-resident indexes require EnsureResident() first (only
  /// materialized lists are visible here).
  template <typename Fn>
  void ForEachWord(Fn&& fn) const {
    for (const auto& [word, postings] : postings_) fn(word, postings);
  }

  /// Reassembles an index from serialized entries. Postings must be
  /// sorted; `fold_case` must match the original build options (a
  /// token_filter, being code, is not serializable and is dropped).
  static WordIndex FromEntries(
      std::vector<std::pair<std::string, std::vector<TextPos>>> entries,
      bool fold_case);

  // --- incremental maintenance (see src/qof/maintain/) ------------------
  //
  // Documents occupy disjoint spans of the corpus address space, so one
  // document's postings form a contiguous run inside each word's sorted
  // list: adding or removing a document is a per-word run insert/erase,
  // never a rebuild. A word whose last posting is erased loses its entry
  // entirely, so a maintained index stays indistinguishable from a fresh
  // build over the live documents.

  /// Tokenizes `doc_text` (with this index's options) and splices the
  /// postings in; `base` is the document's corpus offset.
  void AddDocPostings(std::string_view doc_text, TextPos base);

  /// Erases the postings of a document whose text is known: tokenizes
  /// `doc_text` to find the affected words, then range-erases each one's
  /// [begin, end) run. Exact (erases precisely the document's postings).
  void EraseDocPostings(std::string_view doc_text, TextPos begin,
                        TextPos end);

  /// Erases every posting in [begin, end) without knowing the document's
  /// text — walks all words. Same result as EraseDocPostings, used by
  /// journal replay when the tombstoned document's bytes are unknown.
  void EraseSpanPostings(TextPos begin, TextPos end);

  /// Compaction support: remaps every posting through `map` (documents
  /// shift as dead spans are squeezed out) and restores per-word sorted
  /// order. When `pool` has more than one worker, word lists are rebased
  /// in parallel.
  void RebasePostings(const std::function<TextPos(TextPos)>& map,
                      ThreadPool* pool = nullptr);

 private:
  /// Pages `key` (already case-folded) in from the source; returns the
  /// resident list, or null when the word is absent. Caller holds
  /// lazy_mu_.
  Result<const std::vector<TextPos>*> LoadLocked(const std::string& key) const;

  /// CountPostings for `key` (already case-folded) while a source is
  /// attached. Caller holds lazy_mu_.
  Result<uint64_t> CountLocked(const std::string& key) const;

  /// Mutable: Lookup materializes lazily under lazy_mu_ while a source is
  /// attached. Node-based, so references handed out survive later
  /// insertions.
  mutable std::unordered_map<std::string, std::vector<TextPos>> postings_;
  mutable uint64_t num_postings_ = 0;
  WordIndexOptions options_;
  /// Backing source; null for a fully in-memory index. Set once before
  /// the index is shared, never reassigned by const paths.
  std::shared_ptr<const PostingSource> source_;
  /// Serializes lazy materialization between concurrent readers. Taken by
  /// const paths only while a source is attached.
  mutable std::mutex lazy_mu_;
  /// Words probed and found absent in the source (negative cache, guarded
  /// by lazy_mu_).
  mutable std::unordered_set<std::string> absent_;
  /// Flipped (release) once every stored list is materialized; readers
  /// that observe it (acquire) may touch postings_ without the lock.
  mutable std::atomic<bool> all_resident_{false};
  // Lazily built sorted directory of the words in postings_, for prefix
  // lookups. The mutex serializes the build between concurrent readers of
  // a shared immutable index; maintenance mutators (which require
  // external exclusion anyway) clear the directory.
  mutable std::mutex sorted_words_mu_;
  mutable std::vector<const std::string*> sorted_words_;
};

}  // namespace qof

#endif  // QOF_TEXT_WORD_INDEX_H_
