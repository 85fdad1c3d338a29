#ifndef QOF_IR_EXECUTOR_H_
#define QOF_IR_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "qof/algebra/evaluator.h"
#include "qof/cache/eval_cache.h"
#include "qof/exec/exec_context.h"
#include "qof/ir/ir.h"
#include "qof/region/region_cursor.h"
#include "qof/region/region_index.h"
#include "qof/region/region_set.h"
#include "qof/text/corpus.h"
#include "qof/text/word_index.h"
#include "qof/util/result.h"
#include "qof/util/thread_pool.h"

namespace qof {

/// Wall-time spent computing nodes of one IR operator kind (exclusive of
/// input evaluation), how many nodes of that kind ran, and the disk I/O
/// their cursor-path kernels did (zeros for memory-resident execution).
struct IrOpTiming {
  uint64_t count = 0;
  uint64_t micros = 0;
  /// Pages actually pulled from disk for this operator's cursor reads.
  uint64_t pages_read = 0;
  /// VFS read invocations those pages took (batched prefetch makes this
  /// much smaller than pages_read).
  uint64_t read_calls = 0;
  /// Page fetches served by a frame the operator's own prefetch hints
  /// had already admitted.
  uint64_t prefetch_hits = 0;
};

/// Keyed by IrOpName(); std::map so renderings are deterministic.
using IrOpTimings = std::map<std::string, IrOpTiming>;

/// Evaluates an optimized IrProgram. Nodes are computed demand-driven
/// from a requested root and memoized in per-node slots that persist
/// across EvaluateRoot calls, so a subexpression shared between legs
/// (candidates / projection / join attributes) is computed once per
/// query regardless of cache state — the executor-level guarantee the
/// CSE pass creates.
///
/// Governance, caching and statistics are per algebra operator: one
/// ExecContext::Check() per operator, every composite node looked up in /
/// published to the shared EvalCache under its canonical key (the
/// equivalent expression's ToString(), so the key names the same result
/// as the tree-evaluator oracle does), cache hits charging their own
/// result size, and kLoad borrowing index instances uncharged.
/// kProject/kJoin are engine rungs, not algebra operators: never cached,
/// checked or charged.
///
/// Parallel execution (SetThreadPool with workers > 1) is morsel-driven:
/// ready IR nodes — nodes whose hard inputs are all computed — run as a
/// wave on the pool, and within a node, large n-ary set folds and select
/// scans split into per-range morsels merged back in canonical order.
/// Results are byte-identical at every worker count; see DESIGN.md §5k
/// for the determinism argument. Charges and EvalStats for morselized
/// nodes are reconstructed from per-range sizes so they match the serial
/// fold exactly (bytes_scanned is the one exception: the select kernel's
/// scan/posting dispatch depends on child size, so per-morsel dispatch
/// may scan different byte totals while selecting identical members).
class IrExecutor {
 public:
  /// All pointers are borrowed. `words`/`corpus` may be null when no node
  /// needs them. `ctx` (optional) is polled once per operator and charged
  /// for every region an operator produces; `cache` (optional) serves and
  /// stores composite nodes under `epoch`.
  IrExecutor(const IrProgram* program, const RegionIndex* regions,
             const WordIndex* words, const Corpus* corpus,
             const ExecContext* ctx = nullptr, EvalCache* cache = nullptr,
             CacheEpoch epoch = {});

  /// Callback evaluating a kJoin node (candidates, lhs attrs, rhs attrs)
  /// — injected by the engine so qof_ir does not depend on qof_engine.
  using JoinFn = std::function<Result<std::vector<Region>>(
      const RegionSet& candidates, const RegionSet& lhs_attrs,
      const RegionSet& rhs_attrs)>;
  void SetJoinFn(JoinFn fn) { join_fn_ = std::move(fn); }

  /// Runs roots on `pool` with `workers` logical workers. Null pool or
  /// workers <= 1 keeps the exact serial path. The pool is borrowed and
  /// must outlive the executor; the executor is its only ParallelFor
  /// caller while a root evaluates (ParallelFor is not reentrant).
  void SetThreadPool(ThreadPool* pool, int workers) {
    pool_ = pool;
    workers_ = workers;
  }

  /// Minimum input size (regions) before a node's internal work is worth
  /// splitting into morsels; a node splits once its driving input holds
  /// at least two grains. Tests and the fuzzer lower this to exercise
  /// morsel merging on small corpora.
  void set_morsel_grain(size_t grain) { morsel_grain_ = grain > 0 ? grain : 1; }

  /// Planted bug for the fuzz harness (`--inject racy-merge`): the morsel
  /// merge "loses" the first range's results, modeling the lost-update
  /// outcome of an unsynchronized result merge. The damaged set keeps
  /// every RegionSet invariant (sorted, unique) so the corruption travels
  /// all the way to the differential oracle instead of tripping a debug
  /// assert at the merge site.
  void set_inject_racy_merge(bool inject) { inject_racy_merge_ = inject; }

  /// Evaluates the node `root` (a root id from the program) and returns a
  /// copy of its result. Re-entrant across roots: previously computed
  /// nodes are served from their slots.
  Result<RegionSet> EvaluateRoot(int root, EvalStats* stats = nullptr);

  /// Per-operator timing counters accumulated over every node computed so
  /// far (slot-memoized re-reads do not re-count).
  const IrOpTimings& timings() const { return timings_; }

 private:
  /// Memoized per-node result: a computed set (owned), a borrowed index
  /// instance, or a shared EvalCache entry.
  struct Slot {
    bool done = false;
    RegionSet owned;
    const RegionSet* borrowed = nullptr;
    std::shared_ptr<const RegionSet> shared;
    const RegionSet& set() const {
      if (shared != nullptr) return *shared;
      return borrowed != nullptr ? *borrowed : owned;
    }
  };

  /// Ensures node `id`'s slot is filled; returns its set.
  Result<const RegionSet*> EvalNode(int id, EvalStats* stats);
  /// The uncached computation of one composite node.
  Result<Slot> ComputeNode(int id, EvalStats* stats);
  /// Disk fast path for kSelect/kIncluding/kIncluded/kProject whose bulk
  /// input is a load of a still-unmaterialized disk instance: probes the
  /// instance through a block-skipping RegionCursor instead of forcing it
  /// into memory, so a selective query pages in only the blocks its probe
  /// regions land in. Returns nullopt when inapplicable (the caller then
  /// computes the node normally); results are byte-identical either way.
  Result<std::optional<Slot>> TryCursorPath(int id, EvalStats* stats);
  Result<Slot> ComputeFused(const IrNode& node, EvalStats* stats);
  /// ⊃d/⊂d over the union of the node's encloser instances (E, set by
  /// PassEnclosers) instead of the whole indexed universe — exact, and a
  /// disk-backed index pages in only E's names.
  Result<RegionSet> ComputeDirect(const IrNode& node, const RegionSet& r,
                                  const RegionSet& s) const;
  Status Charge(EvalStats* stats, const RegionSet& produced) const;

  /// True when `node` matches TryCursorPath's statically decidable
  /// eligibility tests (runtime fallbacks — no cursor for the name —
  /// still possible).
  bool CursorCandidate(const IrNode& node) const;
  /// Whether node `id` should prefer the cursor path this evaluation.
  /// Serial mode reads the load slot live; parallel mode uses the
  /// snapshot ScheduleParallel took before dispatch, so the choice does
  /// not depend on wave timing.
  bool CursorPathWanted(int id, int load_id) const;

  /// Wavefront scheduler: computes every not-yet-done node reachable from
  /// `root` on the thread pool, wave by ready wave, merging worker stats
  /// and errors deterministically (node-id order). On success every
  /// reachable slot is done and EvalNode(root) is a slot read.
  Status ScheduleParallel(int root, EvalStats* stats);

  /// Morselized n-ary set fold (kUnion/kIntersect/kDifference): range-
  /// partitions the inputs by pivots from the largest input, folds each
  /// range independently, concatenates in range order, and replays the
  /// serial fold's per-step charges from the per-range sizes. Engages
  /// only from a thread that may call ParallelFor.
  Result<Slot> MorselSetFold(const IrNode& node,
                             const std::vector<const RegionSet*>& inputs,
                             EvalStats* stats);
  /// Morselized select: index-partitions the child (members are filtered
  /// independently), runs the kernel per range, concatenates in range
  /// order. One select_op and one charge, like the serial kernel.
  Result<Slot> MorselSelect(const IrNode& node, const RegionSet& child,
                            EvalStats* stats);
  /// True when morsel splitting may run here: pool configured, calling
  /// thread not already inside a ParallelFor task (ParallelFor is not
  /// reentrant), and the driving input spans at least two grains.
  bool MorselEligible(size_t driving_size) const;

  /// Thread-safe accumulation into timings_ (one lock per computed node;
  /// contention is trivial next to kernel work).
  void AddTiming(IrOp op, uint64_t micros,
                 const CursorIoStats* io = nullptr);

  const IrProgram* program_;
  const RegionIndex* regions_;
  const WordIndex* words_;
  const Corpus* corpus_;
  const ExecContext* ctx_;
  EvalCache* cache_;
  CacheEpoch epoch_;
  JoinFn join_fn_;
  std::vector<Slot> slots_;
  IrOpTimings timings_;

  ThreadPool* pool_ = nullptr;
  int workers_ = 1;
  size_t morsel_grain_ = 2048;
  bool inject_racy_merge_ = false;

  /// True while ScheduleParallel is dispatching waves — switches the
  /// load-slot accesses below to their locked variants.
  bool parallel_active_ = false;
  /// Guards load slots only: a cursor-path fallback materializing its
  /// load input is the one slot write that can race (soft edges exclude
  /// loads from the wave ordering). Every other slot is written by
  /// exactly one wave task and read only after its wave's barrier.
  std::mutex slot_mu_;
  std::mutex timings_mu_;
  /// Schedule-time snapshot: node ids whose cursor path was elected when
  /// the wavefront was built (their load inputs get soft edges). Keeps
  /// the cursor-vs-kernel choice independent of wave timing.
  std::vector<char> cursor_elected_;
  /// Scan counter captured from the query thread at EvaluateRoot entry;
  /// installed on every pool worker so morsel text scans account like
  /// serial ones.
  std::atomic<uint64_t>* scan_counter_ = nullptr;
};

}  // namespace qof

#endif  // QOF_IR_EXECUTOR_H_
