#include "qof/store/store_index_source.h"

#include <utility>

#include "qof/text/corpus.h"

namespace qof {

Result<std::vector<RegionSource::Entry>> StoreRegionSource::Entries() const {
  QOF_ASSIGN_OR_RETURN(auto dict, store_->AllRegionEntries());
  std::vector<Entry> out;
  out.reserve(dict.size());
  for (auto& e : dict) out.push_back({std::move(e.key), e.count});
  return out;
}

uint64_t StoreRegionSource::approx_bytes() const {
  // The postings section holds regions then words; apportion by the
  // uncompressed share (footprint reporting only).
  const StoreMeta& m = store_->meta();
  uint64_t total = m.total_regions * 16 + m.total_postings * 8;
  if (total == 0) return 0;
  return store_->meta().section(StoreSection::kPostings).byte_len *
         (m.total_regions * 16) / total;
}

Result<std::unique_ptr<RegionCursor>> StoreRegionSource::OpenCursor(
    std::string_view name) const {
  QOF_ASSIGN_OR_RETURN(auto entry, store_->FindRegionEntry(name));
  if (!entry.has_value()) {
    return Status::NotFound("region name '" + std::string(name) +
                            "' is not in the paged store");
  }
  // Budget accounting: materializing (or cursor-scanning) this instance
  // can decode up to count regions — charge the decompressed equivalent.
  Corpus::ChargeScanBytes(entry->count * 16);
  return PagedStore::OpenRegionCursor(store_, *entry);
}

uint64_t StorePostingSource::approx_bytes() const {
  const StoreMeta& m = store_->meta();
  uint64_t total = m.total_regions * 16 + m.total_postings * 8;
  if (total == 0) return 0;
  return store_->meta().section(StoreSection::kPostings).byte_len *
         (m.total_postings * 8) / total;
}

Result<std::optional<std::vector<TextPos>>> StorePostingSource::Load(
    std::string_view word) const {
  QOF_ASSIGN_OR_RETURN(auto entry, store_->FindWordEntry(word));
  if (!entry.has_value()) return std::optional<std::vector<TextPos>>();
  QOF_ASSIGN_OR_RETURN(std::vector<uint64_t> postings,
                       store_->LoadPostings(*entry));
  Corpus::ChargeScanBytes(postings.size() * 8);
  return std::optional<std::vector<TextPos>>(std::move(postings));
}

Result<uint64_t> StorePostingSource::Count(std::string_view word) const {
  QOF_ASSIGN_OR_RETURN(auto entry, store_->FindWordEntry(word));
  return entry.has_value() ? entry->count : uint64_t{0};
}

Result<std::vector<std::string>> StorePostingSource::WordsWithPrefix(
    std::string_view prefix) const {
  return store_->WordsWithPrefix(prefix);
}

Result<std::vector<PostingSource::Entry>> StorePostingSource::Entries()
    const {
  QOF_ASSIGN_OR_RETURN(auto dict, store_->AllWordEntries());
  std::vector<Entry> out;
  out.reserve(dict.size());
  for (auto& e : dict) out.push_back({std::move(e.key), e.count});
  return out;
}

}  // namespace qof
