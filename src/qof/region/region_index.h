#ifndef QOF_REGION_REGION_INDEX_H_
#define QOF_REGION_REGION_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "qof/region/region_set.h"
#include "qof/region/region_source.h"
#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

/// An *instance* of a region index (paper §3.1): a mapping from region
/// names R1..Rn to sets of regions. The union of all instances is the
/// "universe" of indexed regions, which defines direct inclusion (⊃d/⊂d:
/// no *indexed* region strictly in between). The index keeps no universe
/// itself: the query engine scopes ⊃d/⊂d to RIG encloser sets (see
/// PassEnclosers), and the few callers that need the whole union build it
/// with IndexedUniverse().
///
/// Disk-resident mode: AttachSource() hands the index a backing
/// RegionSource (the paged store). Instances then materialize lazily on
/// first Get() — a selective query pages in only the names it touches —
/// while Names()/Has()/counts answer from the source's dictionary without
/// any posting I/O. EnsureResident() forces every instance into memory;
/// mutations and serialization require it first (the mutators below keep
/// their resident-only contract).
class RegionIndex {
 public:
  RegionIndex() = default;

  // Hand-written copy/move: the index is a value (copy-on-write snapshots
  // duplicate it, builds move it), but the mutex guarding the lazy
  // materialization is neither copyable nor movable — each instance gets
  // its own.
  RegionIndex(const RegionIndex& other) {
    std::lock_guard<std::mutex> lock(other.lazy_mu_);
    sets_ = other.sets_;
    source_ = other.source_;
    unloaded_ = other.unloaded_;
  }
  RegionIndex& operator=(const RegionIndex& other) {
    if (this == &other) return *this;
    std::lock_guard<std::mutex> lock(other.lazy_mu_);
    sets_ = other.sets_;
    source_ = other.source_;
    unloaded_ = other.unloaded_;
    return *this;
  }
  RegionIndex(RegionIndex&& other) noexcept
      : sets_(std::move(other.sets_)),
        source_(std::move(other.source_)),
        unloaded_(std::move(other.unloaded_)) {}
  RegionIndex& operator=(RegionIndex&& other) noexcept {
    sets_ = std::move(other.sets_);
    source_ = std::move(other.source_);
    unloaded_ = std::move(other.unloaded_);
    return *this;
  }

  /// Registers (or extends) the instance of a region name.
  void Add(std::string name, RegionSet regions);

  // --- incremental maintenance (see src/qof/maintain/) ------------------

  /// Erases from every instance the regions starting in [begin, end) — a
  /// tombstoned document's contribution. Names stay registered (possibly
  /// with empty instances): "indexed but absent" must survive removals.
  /// Returns the number of regions erased.
  uint64_t EraseSpan(uint64_t begin, uint64_t end);

  /// Splices one document's contribution in: for each (name, run) the run
  /// is inserted at its canonical position. Runs must be canonically
  /// sorted, duplicate-free, and confined to a span no existing region
  /// starts in. Unknown names are registered.
  void InsertDocRegions(
      const std::map<std::string, std::vector<Region>>& by_name);

  bool Has(std::string_view name) const;

  /// `name`'s cardinality without materializing it: resident instances
  /// answer from memory, unloaded ones from the backing source's
  /// dictionary counts. 0 for unregistered names — the shape the cost
  /// estimators want, and the reason a disk-backed index can be planned
  /// against without a single posting read.
  uint64_t InstanceCount(std::string_view name) const;

  /// The instance of `name`; NotFound if the name was never registered.
  /// With a backing source attached this may page the instance in, so it
  /// can also fail on I/O or corruption. The returned pointer stays valid
  /// for the life of the index (map nodes are stable; materialized
  /// instances are immutable until EnsureResident precedes mutation).
  Result<const RegionSet*> Get(std::string_view name) const;

  /// Region names in registration-independent (sorted) order.
  std::vector<std::string> Names() const;

  // --- disk-resident backing (see src/qof/store/) -----------------------

  /// Attaches a backing source; instances materialize lazily from it on
  /// first Get(). Call on a freshly constructed index, before sharing it.
  Status AttachSource(std::shared_ptr<const RegionSource> source);

  /// A block cursor over `name`'s still-unmaterialized instance, or null
  /// when the instance is already resident (read it via Get(), which is
  /// then free) — the executor's block-skipping kernels probe the cursor
  /// so a selective query never materializes the name at all. NotFound
  /// for unregistered names, like Get().
  Result<std::unique_ptr<RegionCursor>> OpenCursor(
      std::string_view name) const;

  /// True while some instance still lives only in the source.
  bool disk_resident() const;

  /// True when `name`'s instance is in memory: built there, or already
  /// paged in from the source. False for unregistered names.
  bool IsResident(std::string_view name) const;

  /// Materializes every not-yet-loaded instance. Idempotent. Mutators and
  /// serialization require this first.
  Status EnsureResident() const;

  size_t num_names() const;
  uint64_t num_regions() const;

  /// Approximate memory footprint (for the indexing-amount tradeoff
  /// experiments, §6–§7).
  uint64_t ApproxBytes() const;

 private:
  /// Pages `name` in from the source. Caller holds lazy_mu_.
  Status MaterializeLocked(const std::string& name, uint64_t count) const;

  /// Mutable: Get() materializes lazily under lazy_mu_. Node-based, so
  /// pointers handed out by Get() survive later insertions.
  mutable std::map<std::string, RegionSet, std::less<>> sets_;
  /// Backing source; null for a fully in-memory index. Set once before
  /// the index is shared, never reassigned by const paths (readers may
  /// test it without the lock).
  std::shared_ptr<const RegionSource> source_;
  /// Serializes lazy materialization between concurrent readers. Taken
  /// by const paths only while source_ is attached.
  mutable std::mutex lazy_mu_;
  /// name → region count for instances not yet materialized. Guarded by
  /// lazy_mu_; empty once EnsureResident() has run.
  mutable std::map<std::string, uint64_t, std::less<>> unloaded_;
};

/// Union of every instance of `index` — the indexed-region universe the
/// paper's ⊃d/⊂d are defined against. Built on each call from Names() and
/// Get() (no caching), so on a disk-backed index it pages every instance
/// in and can fail on I/O or corruption. For the tree-evaluator oracle,
/// the store writer's persisted universe size and tests; queries never
/// need it.
Result<RegionSet> IndexedUniverse(const RegionIndex& index);

}  // namespace qof

#endif  // QOF_REGION_REGION_INDEX_H_
