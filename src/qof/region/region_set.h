#ifndef QOF_REGION_REGION_SET_H_
#define QOF_REGION_REGION_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "qof/region/cost_model.h"
#include "qof/region/region.h"

namespace qof {

/// A set of regions in canonical order (start ascending, end descending)
/// with no duplicate spans. Overlapping and nested members are allowed
/// (paper §3.1: "with no restrictions on overlaps").
///
/// All the region-algebra primitives of §3.1 are provided as free functions
/// below; each is a sorted-merge / sweep algorithm whose cost is linear or
/// O(n log n) in its inputs — never proportional to the underlying text.
class RegionSet {
 public:
  RegionSet() = default;

  /// Takes arbitrary regions; sorts and deduplicates.
  static RegionSet FromUnsorted(std::vector<Region> regions);

  /// Adopts a vector that is already canonically sorted and duplicate-free
  /// (checked in debug builds). Used by the algorithms below.
  static RegionSet FromSortedUnique(std::vector<Region> regions);

  bool empty() const { return regions_.empty(); }
  size_t size() const { return regions_.size(); }
  const Region& operator[](size_t i) const { return regions_[i]; }
  const std::vector<Region>& regions() const { return regions_; }

  std::vector<Region>::const_iterator begin() const {
    return regions_.begin();
  }
  std::vector<Region>::const_iterator end() const { return regions_.end(); }

  bool ContainsRegion(const Region& r) const;

  // --- incremental maintenance (see src/qof/maintain/) ------------------
  // Parse-derived instances never cross document boundaries, so one
  // document's members form a contiguous slice of the canonical order;
  // document-level maintenance is a slice erase / slice insert.

  /// Erases members whose start lies in [begin, end); returns how many.
  size_t EraseStartsIn(uint64_t begin, uint64_t end);

  /// Splices in a canonically sorted, duplicate-free run whose start
  /// window is disjoint from every existing member's start (one
  /// document's contribution). Debug-checked.
  void InsertRun(const std::vector<Region>& run);

  /// Sum of member lengths (bytes covered, counting nested spans multiply).
  uint64_t TotalLength() const;

  /// True when members are pairwise nested-or-disjoint (no partial
  /// overlaps). Parse-tree-derived indices always are; the fast direct
  /// -inclusion algorithms require a laminar universe.
  bool IsLaminar() const;

  friend bool operator==(const RegionSet& a, const RegionSet& b) {
    return a.regions_ == b.regions_;
  }

  std::string ToString() const;

 private:
  std::vector<Region> regions_;
};

/// Which merge kernel the binary set operations (∪ ∩ − ⊃ ⊂) use.
///
/// The linear kernels cost O(m + n) or O(n log n) regardless of operand
/// skew; the galloping (exponential-search) kernels probe the small
/// operand into the large one in O(m log n), which wins exactly when
/// min(m, n) ≪ max(m, n) — the shape indexed containment queries produce
/// (a handful of selected regions against a full instance).
enum class KernelPolicy {
  /// Per call: gallop when the size ratio crosses kGallopRatio (default).
  kAdaptive,
  /// Always the linear merge / full-table path.
  kLinear,
  /// Always the galloping path (when one exists for the operation).
  kGalloping,
};

/// Crossover ratio for kAdaptive: gallop when small * ratio < large.
/// Aliased from the shared CostModel table so every layer (kernels,
/// evaluator dispatch, cost estimation, IR passes) agrees on it.
inline constexpr size_t kGallopRatio = CostModel::kGallopRatio;

/// Sets the process-wide kernel policy (default kAdaptive) — tests and
/// benches pin either path with it. Results are identical under every
/// policy; only cost changes.
void SetKernelPolicy(KernelPolicy policy);
KernelPolicy kernel_policy();

/// Set-theoretic union of two region sets.
RegionSet Union(const RegionSet& a, const RegionSet& b);
/// Set-theoretic intersection (identical spans).
RegionSet Intersect(const RegionSet& a, const RegionSet& b);
/// Members of `a` whose span does not occur in `b`.
RegionSet Difference(const RegionSet& a, const RegionSet& b);

/// ι(R): members that contain no *other* member (paper's innermost).
RegionSet Innermost(const RegionSet& r);
/// ω(R): members contained in no *other* member (paper's outermost).
RegionSet Outermost(const RegionSet& r);

/// R ⊃ S: members of `r` that (weakly) contain some member of `s`.
RegionSet Including(const RegionSet& r, const RegionSet& s);
/// R ⊂ S: members of `r` (weakly) contained in some member of `s`.
RegionSet IncludedIn(const RegionSet& r, const RegionSet& s);

/// Strict variants (the containing/contained member must differ). Used by
/// the direct-inclusion machinery; not part of the paper's surface algebra.
RegionSet IncludingStrict(const RegionSet& r, const RegionSet& s);
RegionSet IncludedInStrict(const RegionSet& r, const RegionSet& s);

/// For every member of `queries`, the innermost member of `universe` that
/// *strictly* contains it, or {0,0} sentinel when none exists.
/// Precondition: `universe` is laminar (checked in debug builds).
std::vector<Region> InnermostStrictEnclosers(const RegionSet& queries,
                                             const RegionSet& universe);

/// The same against the union of `parts` without materializing it: one
/// sweep per part, keeping per query the deepest of the per-part answers
/// (in a laminar union every strict encloser of a query lies on one
/// containment chain). Precondition: the union of the parts and the
/// queries is laminar. When `shares_span` is non-null it is set to
/// whether some query's span occurs in some part.
std::vector<Region> InnermostStrictEnclosers(
    const RegionSet& queries, const std::vector<const RegionSet*>& parts,
    bool* shares_span = nullptr);

/// R ⊃d S: members of `r` that directly include some member of `s`, where
/// "directly" means no region of `universe` lies strictly between the two
/// (paper §3.1). Preconditions (debug-checked): `universe` is laminar and
/// the spans of `r` and `s` occur in `universe` — which holds whenever the
/// arguments were produced by evaluating algebra expressions over the
/// region indices that make up the universe.
RegionSet DirectlyIncluding(const RegionSet& r, const RegionSet& s,
                            const RegionSet& universe);

/// R ⊂d S: members of `r` directly included in some member of `s`.
RegionSet DirectlyIncluded(const RegionSet& r, const RegionSet& s,
                           const RegionSet& universe);

/// Encloser-scoped ⊃d/⊂d: the universe is replaced by the union of
/// `enclosers`, a subset of it. The answer equals the universe answer
/// whenever the enclosers hold the universe's innermost strict encloser
/// of every member of the inner operand (`s` for ⊃d, `r` for ⊂d) — the
/// deepest encloser within a subset that holds the universe's deepest one
/// is that same region. The IR executor scopes the enclosers to the region
/// names the RIG allows as a direct parent; `shares_span` (as for
/// InnermostStrictEnclosers) reports the one case that guarantee needs
/// checked at run time.
RegionSet DirectlyIncluding(const RegionSet& r, const RegionSet& s,
                            const std::vector<const RegionSet*>& enclosers,
                            bool* shares_span = nullptr);
RegionSet DirectlyIncluded(const RegionSet& r, const RegionSet& s,
                           const std::vector<const RegionSet*>& enclosers,
                           bool* shares_span = nullptr);

/// The paper's §3.1 reference implementation of ⊃d: iterate over nested
/// layers of `r` via ω, and for each layer subtract the `s` members that
/// have an indexed region between themselves and the layer. `other_indices`
/// plays the role of "I − {S}" in the paper's program: it must cover every
/// indexed region that is not a member of `s`, and `s` must be the complete
/// instance of its region name (members of `s` never act as separators; the
/// returned r-set still matches the definition, because an r whose only
/// separators are `s`-members directly includes the outermost of them).
/// Quadratic in the nesting depth; exists to measure the cost the paper
/// attributes to ⊃d (experiment E3) and to cross-check DirectlyIncluding.
RegionSet DirectlyIncludingLayered(
    const RegionSet& r, const RegionSet& s,
    const std::vector<const RegionSet*>& other_indices);

}  // namespace qof

#endif  // QOF_REGION_REGION_SET_H_
