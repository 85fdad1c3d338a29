#ifndef QOF_STORE_STORE_INDEX_SOURCE_H_
#define QOF_STORE_STORE_INDEX_SOURCE_H_

#include <memory>

#include "qof/region/region_source.h"
#include "qof/store/paged_store.h"
#include "qof/text/posting_source.h"

namespace qof {

/// RegionSource over a paged store: Entries() scans the (small) region
/// dictionary; OpenCursor probes it and hands back a block-skipping disk
/// cursor. Materialized bytes are charged to the calling thread's scan
/// counter (byte budgets cover decompressed index I/O).
class StoreRegionSource : public RegionSource {
 public:
  explicit StoreRegionSource(std::shared_ptr<const PagedStore> store)
      : store_(std::move(store)) {}

  Result<std::vector<Entry>> Entries() const override;
  uint64_t approx_bytes() const override;
  Result<std::unique_ptr<RegionCursor>> OpenCursor(
      std::string_view name) const override;

 private:
  std::shared_ptr<const PagedStore> store_;
};

/// PostingSource over a paged store: presence and loads are fence-guided
/// dictionary probes; prefix search walks only the dict pages the fences
/// admit.
class StorePostingSource : public PostingSource {
 public:
  explicit StorePostingSource(std::shared_ptr<const PagedStore> store)
      : store_(std::move(store)) {}

  uint64_t distinct_words() const override {
    return store_->meta().distinct_words;
  }
  uint64_t total_postings() const override {
    return store_->meta().total_postings;
  }
  uint64_t approx_bytes() const override;
  Result<std::optional<std::vector<TextPos>>> Load(
      std::string_view word) const override;
  Result<uint64_t> Count(std::string_view word) const override;
  Result<std::vector<std::string>> WordsWithPrefix(
      std::string_view prefix) const override;
  Result<std::vector<Entry>> Entries() const override;

 private:
  std::shared_ptr<const PagedStore> store_;
};

}  // namespace qof

#endif  // QOF_STORE_STORE_INDEX_SOURCE_H_
