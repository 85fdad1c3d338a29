#ifndef QOF_REGION_REGION_SOURCE_H_
#define QOF_REGION_REGION_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "qof/region/region_cursor.h"
#include "qof/util/result.h"

namespace qof {

/// A backing tier a RegionIndex can load instances from on demand (the
/// disk-resident paged store implements this; see qof/store/). The index
/// learns every name and its cardinality up front — cheap, region names
/// number in the dozens — and materializes an instance through a
/// RegionCursor only when a query first touches the name, so selective
/// queries on a store-backed index page in only what they reference.
///
/// Implementations must be thread-safe: concurrent queries materialize
/// different names at once.
class RegionSource {
 public:
  virtual ~RegionSource() = default;

  struct Entry {
    std::string name;
    uint64_t count = 0;  // regions in the instance
  };

  /// Every stored instance, sorted by name.
  virtual Result<std::vector<Entry>> Entries() const = 0;

  /// Encoded bytes of all region instances (footprint reporting).
  virtual uint64_t approx_bytes() const = 0;

  /// A cursor over `name`'s instance; NotFound if the name is not stored.
  virtual Result<std::unique_ptr<RegionCursor>> OpenCursor(
      std::string_view name) const = 0;
};

}  // namespace qof

#endif  // QOF_REGION_REGION_SOURCE_H_
