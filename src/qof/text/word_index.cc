#include "qof/text/word_index.h"

#include <algorithm>
#include <cctype>

namespace qof {
namespace {

std::string FoldCase(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// Per-document postings in first-occurrence key order, so that merging
/// shards in document order reproduces the serial build's insertion
/// sequence exactly.
struct DocPostings {
  std::unordered_map<std::string, std::vector<TextPos>> map;
  std::vector<const std::string*> order;  // keys in first-occurrence order
};

void TokenizeInto(std::string_view text, TextPos base,
                  const WordIndexOptions& options, DocPostings* out) {
  Tokenizer::ForEachToken(text, base, [&](const WordToken& t) {
    if (options.token_filter && !options.token_filter(t)) return;
    std::string key =
        options.fold_case ? FoldCase(t.text) : std::string(t.text);
    auto [it, inserted] = out->map.try_emplace(std::move(key));
    if (inserted) out->order.push_back(&it->first);
    it->second.push_back(t.start);
  });
}

}  // namespace

WordIndex WordIndex::Build(const Corpus& corpus, WordIndexOptions options,
                           ThreadPool* pool) {
  WordIndex index;
  index.options_ = options;
  if (pool == nullptr || pool->size() <= 1 || corpus.num_documents() < 2) {
    // Serial build: one pass over the whole corpus — unless tombstoned
    // spans fragment it, in which case only live documents are read
    // (identical output: the '\n' separators mean no token straddles a
    // document boundary).
    auto take = [&](const WordToken& t) {
      if (options.token_filter && !options.token_filter(t)) return;
      std::string key =
          options.fold_case ? FoldCase(t.text) : std::string(t.text);
      index.postings_[std::move(key)].push_back(t.start);
      ++index.num_postings_;
    };
    if (!corpus.fragmented()) {
      Tokenizer::ForEachToken(corpus.full_text(), /*base=*/0, take);
    } else {
      for (DocId doc = 0; doc < corpus.num_documents(); ++doc) {
        if (!corpus.is_live(doc)) continue;
        TextPos begin = corpus.document_start(doc);
        Tokenizer::ForEachToken(
            corpus.RawText(begin, corpus.document_end(doc)), begin, take);
      }
    }
  } else {
    // Parallel build: tokenize each document on the pool, then merge in
    // document order. Documents are contiguous ascending spans, so
    // appending a document's postings after its predecessors' keeps
    // every list sorted, and inserting keys in (document, first
    // occurrence) order matches the serial insertion sequence.
    std::vector<DocPostings> docs(corpus.num_documents());
    pool->ParallelFor(corpus.num_documents(), [&](int, size_t d) {
      DocId doc = static_cast<DocId>(d);
      if (!corpus.is_live(doc)) return;
      TextPos begin = corpus.document_start(doc);
      TokenizeInto(corpus.RawText(begin, corpus.document_end(doc)), begin,
                   options, &docs[d]);
    });
    for (DocPostings& doc : docs) {
      for (const std::string* key : doc.order) {
        std::vector<TextPos>& shard = doc.map.at(*key);
        index.num_postings_ += shard.size();
        std::vector<TextPos>& list = index.postings_[*key];
        if (list.empty()) {
          list = std::move(shard);
        } else {
          list.insert(list.end(), shard.begin(), shard.end());
        }
      }
    }
  }
  // Tokens are produced in text order, so postings are already sorted;
  // keep an assertion-friendly invariant anyway.
  for (auto& [word, list] : index.postings_) {
    (void)word;
    if (!std::is_sorted(list.begin(), list.end())) {
      std::sort(list.begin(), list.end());
    }
  }
  return index;
}

Result<const std::vector<TextPos>*> WordIndex::LoadLocked(
    const std::string& key) const {
  auto it = postings_.find(key);
  if (it != postings_.end()) return &it->second;
  if (all_resident_.load(std::memory_order_acquire) ||
      absent_.count(key) > 0) {
    return static_cast<const std::vector<TextPos>*>(nullptr);
  }
  QOF_ASSIGN_OR_RETURN(std::optional<std::vector<TextPos>> loaded,
                       source_->Load(key));
  if (!loaded.has_value()) {
    absent_.insert(key);
    return static_cast<const std::vector<TextPos>*>(nullptr);
  }
  num_postings_ += loaded->size();
  auto [pos, inserted] = postings_.emplace(key, std::move(*loaded));
  return &pos->second;
}

const std::vector<TextPos>& WordIndex::Lookup(std::string_view word) const {
  static const std::vector<TextPos> kEmpty;
  std::string key = options_.fold_case ? FoldCase(word) : std::string(word);
  if (source_ != nullptr &&
      !all_resident_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    auto loaded = LoadLocked(key);
    // An I/O error answers empty; EnsureLoaded() is the fallible face.
    if (!loaded.ok() || *loaded == nullptr) return kEmpty;
    return **loaded;
  }
  auto it = postings_.find(key);
  return it == postings_.end() ? kEmpty : it->second;
}

Result<uint64_t> WordIndex::CountLocked(const std::string& key) const {
  auto it = postings_.find(key);
  if (it != postings_.end()) return uint64_t{it->second.size()};
  if (all_resident_.load(std::memory_order_acquire) ||
      absent_.count(key) > 0) {
    return uint64_t{0};
  }
  return source_->Count(key);
}

Result<uint64_t> WordIndex::CountPostings(std::string_view word) const {
  if (!disk_resident()) return uint64_t{Lookup(word).size()};
  std::string key = options_.fold_case ? FoldCase(word) : std::string(word);
  std::lock_guard<std::mutex> lock(lazy_mu_);
  return CountLocked(key);
}

Result<uint64_t> WordIndex::CountPrefixPostings(
    std::string_view prefix) const {
  if (!disk_resident()) return uint64_t{LookupPrefix(prefix).size()};
  std::string key = options_.fold_case ? FoldCase(prefix)
                                       : std::string(prefix);
  QOF_ASSIGN_OR_RETURN(std::vector<std::string> words,
                       source_->WordsWithPrefix(key));
  std::lock_guard<std::mutex> lock(lazy_mu_);
  uint64_t total = 0;
  for (const std::string& word : words) {
    QOF_ASSIGN_OR_RETURN(uint64_t n, CountLocked(word));
    total += n;
  }
  return total;
}

Status WordIndex::EnsureLoaded(std::string_view word) const {
  if (source_ == nullptr || all_resident_.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  std::string key = options_.fold_case ? FoldCase(word) : std::string(word);
  std::lock_guard<std::mutex> lock(lazy_mu_);
  return LoadLocked(key).status();
}

Status WordIndex::EnsureResident() const {
  if (source_ == nullptr || all_resident_.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(lazy_mu_);
  QOF_ASSIGN_OR_RETURN(std::vector<PostingSource::Entry> entries,
                       source_->Entries());
  for (const auto& e : entries) {
    QOF_ASSIGN_OR_RETURN(const std::vector<TextPos>* list, LoadLocked(e.word));
    if (list == nullptr || list->size() != e.count) {
      return Status::Internal(
          "word '" + e.word + "' materialized " +
          std::to_string(list == nullptr ? 0 : list->size()) +
          " postings, store dictionary promised " + std::to_string(e.count));
    }
  }
  absent_.clear();
  all_resident_.store(true, std::memory_order_release);
  return Status::OK();
}

std::vector<TextPos> WordIndex::LookupPrefix(
    std::string_view prefix) const {
  std::string key = options_.fold_case ? FoldCase(prefix)
                                       : std::string(prefix);
  if (source_ != nullptr &&
      !all_resident_.load(std::memory_order_acquire)) {
    // Ask the source's sorted dictionary which words qualify, then page
    // each one in. Errors degrade to the empty answer (prefix search has
    // no fallible signature); governed queries surface the underlying
    // failure through their byte/deadline checks instead.
    std::vector<TextPos> out;
    auto words = source_->WordsWithPrefix(key);
    if (!words.ok()) return out;
    std::lock_guard<std::mutex> lock(lazy_mu_);
    for (const std::string& word : *words) {
      auto loaded = LoadLocked(word);
      if (!loaded.ok() || *loaded == nullptr) continue;
      out.insert(out.end(), (*loaded)->begin(), (*loaded)->end());
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  // Prefix search is cold; holding the lock across the whole walk keeps
  // the lazy directory build race-free under concurrent snapshot readers.
  std::lock_guard<std::mutex> lock(sorted_words_mu_);
  if (sorted_words_.empty() && !postings_.empty()) {
    sorted_words_.reserve(postings_.size());
    for (const auto& [word, list] : postings_) {
      sorted_words_.push_back(&word);
    }
    std::sort(sorted_words_.begin(), sorted_words_.end(),
              [](const std::string* a, const std::string* b) {
                return *a < *b;
              });
  }
  auto lo = std::lower_bound(
      sorted_words_.begin(), sorted_words_.end(), key,
      [](const std::string* w, const std::string& k) { return *w < k; });
  std::vector<TextPos> out;
  for (auto it = lo; it != sorted_words_.end(); ++it) {
    if ((*it)->compare(0, key.size(), key) != 0) break;
    const std::vector<TextPos>& list = postings_.at(**it);
    out.insert(out.end(), list.begin(), list.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

WordIndex WordIndex::FromEntries(
    std::vector<std::pair<std::string, std::vector<TextPos>>> entries,
    bool fold_case) {
  WordIndex index;
  index.options_.fold_case = fold_case;
  for (auto& [word, postings] : entries) {
    index.num_postings_ += postings.size();
    index.postings_.emplace(std::move(word), std::move(postings));
  }
  return index;
}

void WordIndex::AddDocPostings(std::string_view doc_text, TextPos base) {
  DocPostings doc;
  TokenizeInto(doc_text, base, options_, &doc);
  for (const std::string* key : doc.order) {
    std::vector<TextPos>& run = doc.map.at(*key);
    num_postings_ += run.size();
    std::vector<TextPos>& list = postings_[*key];
    if (list.empty() || list.back() < run.front()) {
      list.insert(list.end(), run.begin(), run.end());
    } else {
      // The document's span is disjoint from every other document's, so
      // the whole run lands at a single insertion point.
      auto at = std::lower_bound(list.begin(), list.end(), run.front());
      list.insert(at, run.begin(), run.end());
    }
  }
  sorted_words_.clear();
}

void WordIndex::EraseDocPostings(std::string_view doc_text, TextPos begin,
                                 TextPos end) {
  DocPostings doc;
  TokenizeInto(doc_text, begin, options_, &doc);
  for (const std::string* key : doc.order) {
    auto it = postings_.find(*key);
    if (it == postings_.end()) continue;
    std::vector<TextPos>& list = it->second;
    auto lo = std::lower_bound(list.begin(), list.end(), begin);
    auto hi = std::lower_bound(lo, list.end(), end);
    num_postings_ -= static_cast<uint64_t>(hi - lo);
    list.erase(lo, hi);
    if (list.empty()) postings_.erase(it);
  }
  sorted_words_.clear();
}

void WordIndex::EraseSpanPostings(TextPos begin, TextPos end) {
  for (auto it = postings_.begin(); it != postings_.end();) {
    std::vector<TextPos>& list = it->second;
    auto lo = std::lower_bound(list.begin(), list.end(), begin);
    auto hi = std::lower_bound(lo, list.end(), end);
    num_postings_ -= static_cast<uint64_t>(hi - lo);
    list.erase(lo, hi);
    it = list.empty() ? postings_.erase(it) : std::next(it);
  }
  sorted_words_.clear();
}

void WordIndex::RebasePostings(const std::function<TextPos(TextPos)>& map,
                               ThreadPool* pool) {
  std::vector<std::vector<TextPos>*> lists;
  lists.reserve(postings_.size());
  for (auto& [word, list] : postings_) lists.push_back(&list);
  auto rebase_one = [&map](std::vector<TextPos>* list) {
    for (TextPos& p : *list) p = map(p);
    // A document moved toward the front of the address space can land its
    // run below a physically earlier (but logically later) one.
    std::sort(list->begin(), list->end());
  };
  if (pool != nullptr && pool->size() > 1 && lists.size() > 1) {
    pool->ParallelFor(lists.size(),
                      [&](int, size_t i) { rebase_one(lists[i]); });
  } else {
    for (auto* list : lists) rebase_one(list);
  }
  sorted_words_.clear();
}

uint64_t WordIndex::ApproxBytes() const {
  if (source_ != nullptr &&
      !all_resident_.load(std::memory_order_acquire)) {
    // Disk-resident: report the store's encoded footprint plus whatever
    // has been materialized so far.
    std::lock_guard<std::mutex> lock(lazy_mu_);
    uint64_t bytes = source_->approx_bytes();
    for (const auto& [word, list] : postings_) {
      bytes += word.size() + sizeof(std::string) +
               list.size() * sizeof(TextPos) + sizeof(list);
    }
    return bytes;
  }
  uint64_t bytes = 0;
  for (const auto& [word, list] : postings_) {
    bytes += word.size() + sizeof(std::string) +
             list.size() * sizeof(TextPos) + sizeof(list);
  }
  return bytes;
}

}  // namespace qof
