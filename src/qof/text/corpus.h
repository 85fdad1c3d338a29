#ifndef QOF_TEXT_CORPUS_H_
#define QOF_TEXT_CORPUS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

/// Identifies a document within a Corpus.
using DocId = uint32_t;

/// A byte offset into the corpus-wide virtual address space (all documents
/// concatenated in insertion order, separated by a single '\n' so that word
/// tokens never straddle documents).
using TextPos = uint64_t;

/// Corpus owns the raw text of every file handed to the system and exposes a
/// single flat address space over it. Region and word indices store offsets
/// into this space; TextOf() maps a span back to bytes.
///
/// This stands in for "the file system" in the paper: the engine's goal is to
/// touch as few of these bytes as possible when answering a query, and the
/// Corpus keeps a counter of bytes actually read so experiments can report
/// scanned-byte savings.
///
/// Mutation model (index maintenance, see src/qof/maintain/): the address
/// space is append-only. Replacing or removing a document *tombstones* its
/// span — the entry stays in the table (so the space stays laid out and
/// DocumentAt stays a binary search) but is no longer live; a replacement
/// appends the new text at the tail as a fresh entry under the same name.
/// Dead bytes linger until the maintainer compacts the corpus. Everything
/// that iterates documents must skip non-live entries.
class Corpus {
 public:
  Corpus() = default;

  // Corpus is the unique owner of the text; copies would silently duplicate
  // megabytes, so it is move-only.
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;
  // Hand-written moves: the scanned-byte counter is atomic (parallel
  // two-phase workers scan candidates concurrently) and the fingerprint
  // memo has a mutex; neither is movable by default. The memo itself
  // lives in docs_, so it moves with the table.
  Corpus(Corpus&& other) noexcept
      : text_(std::move(other.text_)),
        docs_(std::move(other.docs_)),
        dead_docs_(other.dead_docs_),
        dead_bytes_(other.dead_bytes_),
        bytes_read_(other.bytes_read_.load(std::memory_order_relaxed)) {}
  Corpus& operator=(Corpus&& other) noexcept {
    text_ = std::move(other.text_);
    docs_ = std::move(other.docs_);
    dead_docs_ = other.dead_docs_;
    dead_bytes_ = other.dead_bytes_;
    bytes_read_.store(other.bytes_read_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    return *this;
  }

  /// Explicit deep copy, for copy-on-write snapshot publication (see
  /// FileQuerySystem::AcquireSnapshot): a mutation arriving while a
  /// snapshot pins the current corpus clones it and mutates the clone,
  /// leaving the pinned original immutable. Deliberately not a copy
  /// constructor — accidental copies would silently duplicate megabytes.
  /// The clone's scanned-byte counter starts at zero; it keeps the
  /// fingerprints computed so far.
  Corpus Clone() const {
    Corpus copy;
    copy.text_ = text_;
    {
      std::lock_guard<std::mutex> lock(fingerprint_mu_);
      copy.docs_ = docs_;
    }
    copy.dead_docs_ = dead_docs_;
    copy.dead_bytes_ = dead_bytes_;
    return copy;
  }

  /// Appends a document; returns its id. Rejects names of *live*
  /// documents (a removed document's name may be reused).
  Result<DocId> AddDocument(std::string name, std::string_view text);

  /// Tombstones the live document `name` and appends `text` under the
  /// same name at the tail of the address space; returns the new id.
  /// NotFound when no live document has that name.
  Result<DocId> ReplaceDocument(std::string_view name,
                                std::string_view text);

  /// Tombstones the live document `name`. NotFound when absent.
  Result<DocId> RemoveDocument(std::string_view name);

  /// The live document named `name`, or NotFound.
  Result<DocId> FindDocument(std::string_view name) const;

  /// Entries in the table, dead ones included (iteration bound).
  size_t num_documents() const { return docs_.size(); }
  size_t num_live_documents() const { return docs_.size() - dead_docs_; }
  /// Tombstoned entries not yet compacted away.
  size_t num_dead_documents() const { return dead_docs_; }
  bool is_live(DocId id) const { return docs_[id].live; }
  /// True once any document was tombstoned: the address space has dead
  /// spans, full_text() is no longer equal to the live text, and whole-
  /// corpus shortcuts must fall back to per-document iteration.
  bool fragmented() const { return dead_docs_ > 0; }

  /// Total size of the virtual address space, separators included.
  TextPos size() const { return text_.size(); }
  /// Bytes belonging to tombstoned documents (compaction would reclaim
  /// them, separators excluded).
  uint64_t dead_bytes() const { return dead_bytes_; }

  const std::string& document_name(DocId id) const { return docs_[id].name; }
  /// [start, end) span of a document in the corpus address space.
  TextPos document_start(DocId id) const { return docs_[id].start; }
  TextPos document_end(DocId id) const { return docs_[id].end; }

  /// FNV-1a of document `id`'s bytes (the fingerprint a saved index's
  /// document table records). Computed on the first request and memoized:
  /// an id's bytes never change (a replacement is a new id), so the memo
  /// always equals a rehash. Safe for concurrent const callers.
  uint64_t DocumentFingerprint(DocId id) const;

  /// The document containing `pos` (live or tombstoned), or an error for
  /// separator/out-of-range positions.
  Result<DocId> DocumentAt(TextPos pos) const;

  /// Raw bytes of [start, end). Does not count towards bytes_read().
  std::string_view RawText(TextPos start, TextPos end) const {
    return std::string_view(text_).substr(start, end - start);
  }

  /// Bytes of [start, end), *accounted* as scanned: experiments use
  /// bytes_read() to compare how much text each query plan had to touch.
  /// When a ScanCounterScope is active on the calling thread, accounting
  /// goes to its counter instead of this corpus's — that is how
  /// queries (which each install one) keep independent per-query byte
  /// totals (stats and byte budgets) over a shared corpus.
  std::string_view ScanText(TextPos start, TextPos end) const {
    std::atomic<uint64_t>* counter =
        tls_scan_counter_ != nullptr ? tls_scan_counter_ : &bytes_read_;
    counter->fetch_add(end - start, std::memory_order_relaxed);
    return RawText(start, end);
  }

  /// Charges `bytes` to the calling thread's active scan counter, if any
  /// (see ScanCounterScope). The disk-resident index tier accounts the
  /// *decompressed* bytes of the posting blocks it materializes this way,
  /// so a governed query's byte budget covers index I/O like it covers
  /// text scans. Outside a scope the charge is dropped — there is no
  /// corpus instance to attribute it to.
  static void ChargeScanBytes(uint64_t bytes) {
    if (tls_scan_counter_ != nullptr) {
      tls_scan_counter_->fetch_add(bytes, std::memory_order_relaxed);
    }
  }

  /// The calling thread's active scan counter, or null outside any scope.
  /// Parallel executors capture this on the query thread and install it
  /// on their pool workers so morsel scans account like serial ones.
  static std::atomic<uint64_t>* CurrentThreadScanCounter() {
    return tls_scan_counter_;
  }

  /// RAII override routing this thread's ScanText accounting into
  /// `counter` (applies to every Corpus touched by the thread while the
  /// scope is active; a query only ever scans its own snapshot's corpus).
  /// Scopes nest; each restores the previous counter on destruction.
  class ScanCounterScope {
   public:
    explicit ScanCounterScope(std::atomic<uint64_t>* counter)
        : prev_(tls_scan_counter_) {
      tls_scan_counter_ = counter;
    }
    ~ScanCounterScope() { tls_scan_counter_ = prev_; }
    ScanCounterScope(const ScanCounterScope&) = delete;
    ScanCounterScope& operator=(const ScanCounterScope&) = delete;

   private:
    std::atomic<uint64_t>* prev_;
  };

  /// Full corpus view (used by index builders; indexing cost is reported
  /// separately from query-time scanning, so this is unaccounted). On a
  /// fragmented corpus this still includes dead spans — builders must
  /// iterate live documents instead.
  std::string_view full_text() const { return text_; }

  uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  void ResetBytesRead() {
    bytes_read_.store(0, std::memory_order_relaxed);
  }
  /// The live counter itself, so a byte budget (ExecContext) can watch
  /// scanning progress without a dependency on this class.
  const std::atomic<uint64_t>& bytes_read_counter() const {
    return bytes_read_;
  }

 private:
  struct Doc {
    std::string name;
    TextPos start;
    TextPos end;
    bool live = true;
    /// Fingerprint memo (see DocumentFingerprint), guarded by
    /// fingerprint_mu_.
    mutable bool fingerprinted = false;
    mutable uint64_t fingerprint = 0;
  };

  std::string text_;
  std::vector<Doc> docs_;
  /// Guards every Doc's fingerprint memo; the rest of docs_ changes only
  /// under a non-const call.
  mutable std::mutex fingerprint_mu_;
  size_t dead_docs_ = 0;
  uint64_t dead_bytes_ = 0;
  mutable std::atomic<uint64_t> bytes_read_{0};
  /// Per-thread scan-accounting override (see ScanCounterScope).
  static thread_local std::atomic<uint64_t>* tls_scan_counter_;
};

}  // namespace qof

#endif  // QOF_TEXT_CORPUS_H_
