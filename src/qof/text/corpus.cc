#include "qof/text/corpus.h"

#include <algorithm>

#include "qof/util/wire.h"

namespace qof {

thread_local std::atomic<uint64_t>* Corpus::tls_scan_counter_ = nullptr;

Result<DocId> Corpus::AddDocument(std::string name, std::string_view text) {
  for (const Doc& d : docs_) {
    if (d.live && d.name == name) {
      return Status::AlreadyExists("document already in corpus: " + name);
    }
  }
  if (!text_.empty()) text_.push_back('\n');
  TextPos start = text_.size();
  text_.append(text);
  docs_.push_back(Doc{std::move(name), start, text_.size(), /*live=*/true});
  return static_cast<DocId>(docs_.size() - 1);
}

Result<DocId> Corpus::FindDocument(std::string_view name) const {
  for (size_t i = 0; i < docs_.size(); ++i) {
    if (docs_[i].live && docs_[i].name == name) {
      return static_cast<DocId>(i);
    }
  }
  return Status::NotFound("no live document named '" + std::string(name) +
                          "'");
}

Result<DocId> Corpus::RemoveDocument(std::string_view name) {
  QOF_ASSIGN_OR_RETURN(DocId id, FindDocument(name));
  Doc& doc = docs_[id];
  doc.live = false;
  ++dead_docs_;
  dead_bytes_ += doc.end - doc.start;
  return id;
}

Result<DocId> Corpus::ReplaceDocument(std::string_view name,
                                      std::string_view text) {
  QOF_ASSIGN_OR_RETURN(DocId old_id, RemoveDocument(name));
  (void)old_id;
  return AddDocument(std::string(name), text);
}

uint64_t Corpus::DocumentFingerprint(DocId id) const {
  std::lock_guard<std::mutex> lock(fingerprint_mu_);
  const Doc& doc = docs_[id];
  if (!doc.fingerprinted) {
    doc.fingerprint = Fnv1a(RawText(doc.start, doc.end));
    doc.fingerprinted = true;
  }
  return doc.fingerprint;
}

Result<DocId> Corpus::DocumentAt(TextPos pos) const {
  // Binary search over document start offsets (tombstoned entries keep
  // their spans, so the table stays sorted by start).
  auto it = std::upper_bound(
      docs_.begin(), docs_.end(), pos,
      [](TextPos p, const Doc& d) { return p < d.start; });
  if (it == docs_.begin()) {
    return Status::OutOfRange("position before first document");
  }
  --it;
  if (pos >= it->end) {
    return Status::OutOfRange("position falls between documents");
  }
  return static_cast<DocId>(it - docs_.begin());
}

}  // namespace qof
