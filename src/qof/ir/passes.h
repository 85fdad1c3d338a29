#ifndef QOF_IR_PASSES_H_
#define QOF_IR_PASSES_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "qof/ir/ir.h"
#include "qof/region/region_index.h"
#include "qof/rig/rig.h"
#include "qof/text/word_index.h"

namespace qof {

/// Knobs for the optimizer pass pipeline. All passes are on by default;
/// the per-pass switches exist for the golden tests and ablation benches.
/// `inject_bad_cse` is a planted bug for the differential fuzzer: CSE
/// merges selection nodes while ignoring their word operands, so two
/// non-identical selections collapse into one.
struct IrPlanOptions {
  bool enable_cse = true;
  bool enable_pushdown = true;
  bool enable_ordering = true;
  bool enable_fusion = true;
  bool inject_bad_cse = false;
  /// Executor knobs carried alongside the pass switches so tests and the
  /// fuzzer can reach them through FileQuerySystem::SetIrOptions.
  /// morsel_grain = 0 keeps the executor default; inject_racy_merge is
  /// the planted `--inject racy-merge` bug (see IrExecutor).
  size_t morsel_grain = 0;
  bool inject_racy_merge = false;
  /// Planted `--inject narrow-enclosers` bug: PassEnclosers keeps only the
  /// first RIG predecessor in E, so a name with two possible parents loses
  /// one and ⊃d/⊂d miss the members whose parent carries the other.
  bool inject_narrow_enclosers = false;
};

/// One recorded pipeline step: the program dump after the named pass ran
/// ("lower" records the pre-pass state).
struct PassTrace {
  std::string name;
  std::string dump;
};

/// Runs small composable passes over an IrProgram in registration order,
/// canonicalizing (topo order, dead-node removal, fresh keys) after each
/// one and optionally recording per-pass dumps for --explain and goldens.
class PassManager {
 public:
  void Add(std::string name, std::function<void(IrProgram*)> pass) {
    passes_.push_back({std::move(name), std::move(pass)});
  }

  void Run(IrProgram* program, std::vector<PassTrace>* trace) const;

 private:
  struct Entry {
    std::string name;
    std::function<void(IrProgram*)> pass;
  };
  std::vector<Entry> passes_;
};

/// The standard pipeline: cse → pushdown → order → fuse, honoring
/// `options`, then the encloser analysis (always on: the executor needs
/// it). `regions`/`words` feed the cost annotations (null is allowed:
/// every cardinality then estimates as zero and ordering falls back to
/// the deterministic key tie-break). `rig` is the RIG of the indexed
/// names (QueryCompiler::partial_rig()); without one every ⊃d/⊂d node
/// scopes to all indexed names. Cost annotations are refreshed after the
/// last pass so dumps and --explain stay annotated.
void RunPasses(IrProgram* program, const IrPlanOptions& options,
               const RegionIndex* regions, const WordIndex* words,
               const Rig* rig = nullptr,
               std::vector<PassTrace>* trace = nullptr);

// --- individual passes (exposed for the per-pass golden tests) ---------

/// Common-subexpression elimination: structurally identical nodes (equal
/// canonical keys) merge into the lowest-id occurrence, across all of the
/// program's roots. A shared node then evaluates once per query
/// regardless of cache state.
void PassCse(IrProgram* program, bool inject_bad_cse = false);

/// Pushes selections toward the loads: through n-ary ∩ (into the
/// cheapest operand), − (into the minuend) and the left operand of
/// ⊃/⊂/⊃d/⊂d; corpus-free selections additionally distribute over ∪.
/// Never through ι/ω, whose semantics depend on the whole member set.
void PassPushdown(IrProgram* program, const RegionIndex* regions,
                  const WordIndex* words);

/// Cost-based operand ordering for n-ary ∩/∪: operands sort by estimated
/// cardinality ascending with the canonical key as deterministic
/// tie-break, so the left-fold keeps intermediates small.
void PassOrderOperands(IrProgram* program, const RegionIndex* regions,
                       const WordIndex* words);

/// Fuses chains of per-member stages (fusable selections, ⊃, ⊂) into
/// single kFusedChain nodes executed over batched region runs.
void PassFuse(IrProgram* program);

/// The region names each node's members can carry: every member of node
/// i's result lies in the instance of some name in entry i (sorted).
/// nullopt means unknown. Loads name themselves; selections, ι/ω, fused
/// chains, projections and the left operand of ⊃/⊂/⊃d/⊂d/− pass their
/// input's names through; ∪ unites its inputs' names; ∩ takes the
/// smallest known input set (a member lies in every input); joins are
/// unknown.
std::vector<std::optional<std::vector<std::string>>> InferMemberNames(
    const IrProgram& program);

/// Sets every ⊃d/⊂d node's encloser set E: the RIG predecessors (Def.
/// 3.1: the names that may *directly* include) of the inner operand's
/// member names — `s` for r ⊃d s, `r` for r ⊂d s — plus any indexed name
/// the RIG does not know, restricted to the names `regions` indexes. With
/// unknown member names or no `rig`, E is every indexed name. The true
/// universe parent of a parse-derived member always carries a name in E,
/// except when a name in E may share the member's exact span (a unit
/// wrapper rule); the executor detects that case and widens E to every
/// name (see IrExecutor).
void PassEnclosers(IrProgram* program, const Rig* rig,
                   const RegionIndex* regions,
                   bool inject_narrow_enclosers = false);

/// The engine's one cost model: annotates every node with an estimated
/// result cardinality and work (≈ regions touched), over the shared
/// CostModel table. The paper orders plans by operator count and kind
/// (Def. 3.4); these size-driven estimates refine that ordering for
/// operand ordering and EXPLAIN. Estimates are upper-bound-flavoured and
/// deliberately crude (uniformity, no containment correlation). Loads and
/// encloser sets are sized by InstanceCount, so a disk-backed index pages
/// no region instance in. A ⊃d/⊂d node's sweep is charged
/// Σ|E| over its encloser set (nothing before PassEnclosers), weighted by
/// CostModel::kDirectFactor.
void AnnotateIrCosts(IrProgram* program, const RegionIndex* regions,
                     const WordIndex* words);

/// An annotated node's estimate as EXPLAIN prints it:
/// "~N regions, ~M work units".
std::string DescribeCost(const IrNode& node);

}  // namespace qof

#endif  // QOF_IR_PASSES_H_
