#ifndef QOF_STORE_STORE_FORMAT_H_
#define QOF_STORE_STORE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "qof/store/page.h"
#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

/// The paged store's file layout ("QOFSTOR1"): page 0 is the meta page;
/// the seven sections follow as contiguous page extents in StoreSection
/// order. Byte-stream sections (spec, doc table, fences, postings) are
/// chopped at the page payload capacity, so stream offset → page is plain
/// arithmetic; dictionary sections are page-packed (each page is a
/// self-contained sorted run of whole entries) with a fence section —
/// every dict page's first key — loaded eagerly at open to direct lookups
/// to a single dict page.
///
/// Meta page payload:
///   8 bytes  magic "QOFSTOR1"
///   u32      page_size
///   u64      generation        (maintenance generation, as in QOFIDX3)
///   u64      doc_count
///   u64      universe_size     (|union of region instances|; a census
///                               figure no query reads)
///   u64      region_names
///   u64      total_regions
///   u64      distinct_words
///   u64      total_postings
///   u64      body_bytes        (uncompressed v3-body-equivalent bytes of
///                               the postings payload, for ratio reporting)
///   u8       section count (7)
///   per section: u8 id, u32 first_page, u32 num_pages, u64 byte_len
///
/// Dict page payload: u32 entry count, then per entry PutString(key),
/// varint byte_off (into the postings section), varint byte_len, varint
/// header_len (bytes of the stream's header + skip table), varint count.
/// Fence stream: u32 dict page count, then PutString(first key) per page.

inline constexpr char kStoreMagic[] = "QOFSTOR1";
inline constexpr size_t kStoreMagicLen = 8;
/// Store pages must be multiples of this (and at least this big): the
/// meta page is decoded from the file's first 256 bytes before the true
/// page size is known.
inline constexpr uint32_t kMinStorePageSize = 256;

enum class StoreSection : uint8_t {
  kSpec = 0,
  kDocTable = 1,
  kRegionFence = 2,
  kRegionDict = 3,
  kWordFence = 4,
  kWordDict = 5,
  kPostings = 6,
};
inline constexpr int kNumStoreSections = 7;

inline PageType SectionPageType(StoreSection s) {
  switch (s) {
    case StoreSection::kSpec: return PageType::kSpec;
    case StoreSection::kDocTable: return PageType::kDocTable;
    case StoreSection::kRegionFence: return PageType::kFence;
    case StoreSection::kRegionDict: return PageType::kRegionDict;
    case StoreSection::kWordFence: return PageType::kFence;
    case StoreSection::kWordDict: return PageType::kWordDict;
    case StoreSection::kPostings: return PageType::kPostings;
  }
  return PageType::kFree;
}

struct SectionInfo {
  uint32_t first_page = 0;
  uint32_t num_pages = 0;
  uint64_t byte_len = 0;
};

struct StoreMeta {
  uint32_t page_size = kDefaultPageSize;
  uint64_t generation = 0;
  uint64_t doc_count = 0;
  uint64_t universe_size = 0;
  uint64_t region_names = 0;
  uint64_t total_regions = 0;
  uint64_t distinct_words = 0;
  uint64_t total_postings = 0;
  uint64_t body_bytes = 0;
  SectionInfo sections[kNumStoreSections];

  const SectionInfo& section(StoreSection s) const {
    return sections[static_cast<int>(s)];
  }
};

void EncodeStoreMeta(const StoreMeta& meta, std::string* out);
Result<StoreMeta> DecodeStoreMeta(std::string_view payload);

}  // namespace qof

#endif  // QOF_STORE_STORE_FORMAT_H_
