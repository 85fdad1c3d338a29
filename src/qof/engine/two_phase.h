#ifndef QOF_ENGINE_TWO_PHASE_H_
#define QOF_ENGINE_TWO_PHASE_H_

#include <vector>

#include "qof/compiler/query_compiler.h"
#include "qof/db/object_store.h"
#include "qof/exec/exec_context.h"
#include "qof/region/region_set.h"
#include "qof/rig/rig.h"
#include "qof/schema/structuring_schema.h"
#include "qof/text/corpus.h"
#include "qof/util/result.h"
#include "qof/util/thread_pool.h"

namespace qof {

/// Output of phase 2 over candidate regions.
struct TwoPhaseResult {
  std::vector<Region> regions;   // candidates that survived the filter
  std::vector<Value> projected;  // fully materialized, store-independent
  uint64_t candidates_parsed = 0;
  /// Soft-fail mode only: a governance limit tripped mid-phase-2 and the
  /// result holds the candidate prefix verified before `interrupted`.
  bool truncated = false;
  Status interrupted;
};

/// Phase 2 of partial-index evaluation (§6.2): parse each *candidate*
/// region with the structuring schema (rooted at the view symbol),
/// construct its database image, and re-evaluate the WHERE clause on the
/// object to filter out false positives. Scanned bytes are exactly the
/// candidates' text — the saving the paper claims over whole-file scans.
///
/// When `pool` is non-null with more than one worker, candidates are
/// parsed and filtered in parallel (each worker building objects in its
/// own scratch store); output order, surviving regions, projected values
/// and the reported error are identical to the serial path.
/// `ctx` (optional) is checked per candidate and polled by ParallelFor
/// workers, so deadlines/cancellation/budgets interrupt phase 2 promptly;
/// with `soft_fail` a tripped limit returns the verified candidate prefix
/// with `truncated` set instead of the typed error.
Result<TwoPhaseResult> RunTwoPhase(const StructuringSchema& schema,
                                   const Corpus& corpus,
                                   const QueryPlan& plan,
                                   const RegionSet& candidates,
                                   const Rig& full_rig, ObjectStore* store,
                                   ThreadPool* pool = nullptr,
                                   const ExecContext* ctx = nullptr,
                                   bool soft_fail = false);

}  // namespace qof

#endif  // QOF_ENGINE_TWO_PHASE_H_
