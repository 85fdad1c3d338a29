#ifndef QOF_IR_IR_H_
#define QOF_IR_IR_H_

#include <optional>
#include <string>
#include <vector>

#include "qof/algebra/expr.h"
#include "qof/algebra/select_kernels.h"
#include "qof/util/result.h"

namespace qof {

/// Operators of the dataflow query IR. The tree algebra's binary ∪/∩/−
/// flatten into n-ary nodes during lowering; everything else maps 1:1,
/// plus three engineering ops: kFusedChain (a pipeline of per-member
/// stages the fusion pass created), kProject (the engine's index-only
/// projection root) and kJoin (the engine's index-assisted join root).
enum class IrOp {
  kLoad,        // region-index instance by name
  kUnion,       // n-ary ∪ (left-fold of the binary op)
  kIntersect,   // n-ary ∩
  kDifference,  // n-ary −: inputs[0] minus each of inputs[1..]
  kInnermost,   // ι
  kOutermost,   // ω
  kIncluding,           // ⊃   inputs = {left, right}
  kIncluded,            // ⊂
  kDirectlyIncluding,   // ⊃d
  kDirectlyIncluded,    // ⊂d
  kSelect,      // one SelectSpec over inputs[0]
  kFusedChain,  // per-member stage pipeline over inputs[0]
  kProject,     // IncludedIn(inputs[0] = attrs, inputs[1] = candidates)
  kJoin,        // index join over {candidates, lhs attrs, rhs attrs}
};

const char* IrOpName(IrOp op);

/// One stage of a fused chain. Every fusable stage is a per-member
/// predicate on its input set (selection, or containment against a fixed
/// right operand), which is what makes batched execution sound: a member
/// survives the stage independently of the other members.
struct IrStage {
  enum class Kind { kSelect, kIncluding, kIncluded };
  Kind kind = Kind::kSelect;
  SelectSpec select;  // kSelect only
  int rhs = -1;       // kIncluding/kIncluded: node id of the right operand
};

/// One IR node. `inputs` refer to lower node ids (the program is kept in
/// topological order); `key` is the node's canonical serialization —
/// identical to RegionExpr::ToString() of the equivalent expression tree,
/// so IR results share EvalCache entries with the tree evaluator.
struct IrNode {
  IrOp op = IrOp::kLoad;
  std::string name;    // kLoad
  SelectSpec select;   // kSelect
  std::vector<int> inputs;
  std::vector<IrStage> stages;  // kFusedChain
  /// kDirectlyIncluding/kDirectlyIncluded: the encloser name set E, sorted
  /// — the region names whose instances can hold the innermost strict
  /// encloser of an inner-operand member (see PassEnclosers). Unset until
  /// that pass runs; the executor refuses unannotated direct nodes. Not
  /// part of `key`: E changes how the node is computed, never its result.
  std::optional<std::vector<std::string>> enclosers;
  std::string key;
  // Cost annotations (CostEstimator formulas over the shared CostModel
  // table); negative until AnnotateIrCosts runs.
  double est_cardinality = -1;
  double est_work = -1;
};

/// A multi-root dataflow program: all of a compiled plan's expression
/// legs lowered together, so subexpression sharing crosses legs. Root
/// ids are -1 when the plan has no such leg.
struct IrProgram {
  std::vector<IrNode> nodes;  // topological: every input id < node id
  int candidates = -1;
  int projection = -1;  // the raw attribute expression root
  int project = -1;     // kProject over {projection, candidates}
  int join_lhs = -1;
  int join_rhs = -1;
  int join = -1;  // kJoin over {candidates, join_lhs, join_rhs}

  /// Deterministic textual form (goldens, --explain): one `%id = op ...`
  /// line per node plus a roots line; encloser sets and cost annotations
  /// appended when present.
  std::string Dump() const;
};

/// Canonical serialization of one node given its inputs' keys (which must
/// be current). Exposed for passes that rewrite nodes incrementally.
std::string ComputeNodeKey(const IrProgram& program, const IrNode& node);

/// The composed serialization after each stage of a kFusedChain node (the
/// last entry equals the node's key). Used for per-stage error messages.
std::vector<std::string> FusedStageKeys(const IrProgram& program,
                                        const IrNode& node);

/// Recomputes every node's canonical key bottom-up. Passes that rewire
/// nodes call this before comparing or caching keys.
void RecomputeKeys(IrProgram* program);

/// Rebuilds the program in deterministic topological order (DFS from the
/// roots), dropping nodes no root reaches. Passes run this afterwards so
/// invariants (inputs < id, no dead nodes) hold for the next pass.
void Canonicalize(IrProgram* program);

/// Lowers a compiled plan's expression legs into one flat program. Any
/// leg pointer may be null. No optimization happens here — every
/// occurrence of a subexpression becomes its own node (the CSE pass
/// merges them).
IrProgram LowerToIr(const RegionExpr* candidates,
                    const RegionExpr* projection,
                    const RegionExpr* join_lhs, const RegionExpr* join_rhs);

}  // namespace qof

#endif  // QOF_IR_IR_H_
