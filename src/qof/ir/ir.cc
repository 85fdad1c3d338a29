#include "qof/ir/ir.h"

#include <algorithm>

namespace qof {
namespace {

std::string Ref(int id) { return "%" + std::to_string(id); }

/// Folds an n-ary node's input keys back into the equivalent binary
/// tree's serialization, so keys match RegionExpr::ToString() exactly.
std::string FoldKey(const IrProgram& p, const std::vector<int>& inputs,
                    const char* infix) {
  std::string acc = p.nodes[inputs[0]].key;
  for (size_t i = 1; i < inputs.size(); ++i) {
    acc = "(" + acc + " " + infix + " " + p.nodes[inputs[i]].key + ")";
  }
  return acc;
}

std::string StageKey(const IrProgram& p, const IrStage& stage,
                     std::string acc) {
  switch (stage.kind) {
    case IrStage::Kind::kSelect:
      return stage.select.Describe(acc);
    case IrStage::Kind::kIncluding:
      return "(" + acc + " > " + p.nodes[stage.rhs].key + ")";
    case IrStage::Kind::kIncluded:
      return "(" + acc + " < " + p.nodes[stage.rhs].key + ")";
  }
  return acc;
}

}  // namespace

std::string ComputeNodeKey(const IrProgram& p, const IrNode& n) {
  switch (n.op) {
    case IrOp::kLoad:
      return n.name;
    case IrOp::kUnion:
      return FoldKey(p, n.inputs, "|");
    case IrOp::kIntersect:
      return FoldKey(p, n.inputs, "&");
    case IrOp::kDifference:
      return FoldKey(p, n.inputs, "-");
    case IrOp::kInnermost:
      return "innermost(" + p.nodes[n.inputs[0]].key + ")";
    case IrOp::kOutermost:
      return "outermost(" + p.nodes[n.inputs[0]].key + ")";
    case IrOp::kIncluding:
      return "(" + p.nodes[n.inputs[0]].key + " > " +
             p.nodes[n.inputs[1]].key + ")";
    case IrOp::kIncluded:
      return "(" + p.nodes[n.inputs[0]].key + " < " +
             p.nodes[n.inputs[1]].key + ")";
    case IrOp::kDirectlyIncluding:
      return "(" + p.nodes[n.inputs[0]].key + " >> " +
             p.nodes[n.inputs[1]].key + ")";
    case IrOp::kDirectlyIncluded:
      return "(" + p.nodes[n.inputs[0]].key + " << " +
             p.nodes[n.inputs[1]].key + ")";
    case IrOp::kSelect:
      return n.select.Describe(p.nodes[n.inputs[0]].key);
    case IrOp::kFusedChain: {
      // The composition of the stages over the source — identical to the
      // serialization of the chain before fusion, so a fused node still
      // shares EvalCache entries with its unfused (or tree) equivalent.
      std::string acc = p.nodes[n.inputs[0]].key;
      for (const IrStage& stage : n.stages) acc = StageKey(p, stage, acc);
      return acc;
    }
    case IrOp::kProject:
      return "project(" + p.nodes[n.inputs[0]].key + ", " +
             p.nodes[n.inputs[1]].key + ")";
    case IrOp::kJoin:
      return "join(" + p.nodes[n.inputs[0]].key + ", " +
             p.nodes[n.inputs[1]].key + ", " + p.nodes[n.inputs[2]].key +
             ")";
  }
  return "<invalid>";
}

std::vector<std::string> FusedStageKeys(const IrProgram& program,
                                        const IrNode& node) {
  std::vector<std::string> out;
  std::string acc = program.nodes[node.inputs[0]].key;
  for (const IrStage& stage : node.stages) {
    acc = StageKey(program, stage, acc);
    out.push_back(acc);
  }
  return out;
}

const char* IrOpName(IrOp op) {
  switch (op) {
    case IrOp::kLoad:
      return "load";
    case IrOp::kUnion:
      return "union";
    case IrOp::kIntersect:
      return "intersect";
    case IrOp::kDifference:
      return "difference";
    case IrOp::kInnermost:
      return "innermost";
    case IrOp::kOutermost:
      return "outermost";
    case IrOp::kIncluding:
      return "including";
    case IrOp::kIncluded:
      return "included";
    case IrOp::kDirectlyIncluding:
      return "directly-including";
    case IrOp::kDirectlyIncluded:
      return "directly-included";
    case IrOp::kSelect:
      return "select";
    case IrOp::kFusedChain:
      return "fuse";
    case IrOp::kProject:
      return "project";
    case IrOp::kJoin:
      return "join";
  }
  return "<invalid>";
}

void RecomputeKeys(IrProgram* program) {
  // Topological order makes one ascending sweep sufficient.
  for (size_t i = 0; i < program->nodes.size(); ++i) {
    program->nodes[i].key = ComputeNodeKey(*program, program->nodes[i]);
  }
}

std::string IrProgram::Dump() const {
  std::string out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const IrNode& n = nodes[i];
    out += Ref(static_cast<int>(i)) + " = " + IrOpName(n.op);
    switch (n.op) {
      case IrOp::kLoad:
        out += " " + n.name;
        break;
      case IrOp::kSelect:
        out += " " + n.select.Describe(Ref(n.inputs[0]));
        break;
      case IrOp::kFusedChain: {
        out += " " + Ref(n.inputs[0]);
        for (const IrStage& stage : n.stages) {
          out += " :: ";
          switch (stage.kind) {
            case IrStage::Kind::kSelect:
              out += stage.select.Describe("_");
              break;
            case IrStage::Kind::kIncluding:
              out += "(_ > " + Ref(stage.rhs) + ")";
              break;
            case IrStage::Kind::kIncluded:
              out += "(_ < " + Ref(stage.rhs) + ")";
              break;
          }
        }
        break;
      }
      default:
        for (int input : n.inputs) out += " " + Ref(input);
        break;
    }
    if (n.enclosers.has_value()) {
      out += " enclosers={";
      for (size_t k = 0; k < n.enclosers->size(); ++k) {
        if (k > 0) out += ",";
        out += (*n.enclosers)[k];
      }
      out += "}";
    }
    if (n.est_cardinality >= 0) {
      out += "  ; card~" +
             std::to_string(static_cast<long long>(n.est_cardinality)) +
             " work~" + std::to_string(static_cast<long long>(n.est_work));
    }
    out += "\n";
  }
  out += "roots:";
  if (candidates >= 0) out += " candidates=" + Ref(candidates);
  if (projection >= 0) out += " projection=" + Ref(projection);
  if (project >= 0) out += " project=" + Ref(project);
  if (join_lhs >= 0) out += " join_lhs=" + Ref(join_lhs);
  if (join_rhs >= 0) out += " join_rhs=" + Ref(join_rhs);
  if (join >= 0) out += " join=" + Ref(join);
  out += "\n";
  return out;
}

void Canonicalize(IrProgram* program) {
  // Deterministic DFS post-order from the roots in fixed root order:
  // inputs land before their consumers, unreachable nodes are dropped,
  // and the result depends only on the program's structure.
  std::vector<int> order;
  std::vector<int> remap(program->nodes.size(), -1);
  std::vector<char> visiting(program->nodes.size(), 0);
  auto visit = [&](int root, auto&& self) -> void {
    if (root < 0 || remap[root] >= 0 || visiting[root]) return;
    visiting[root] = 1;
    for (int input : program->nodes[root].inputs) self(input, self);
    visiting[root] = 0;
    remap[root] = static_cast<int>(order.size());
    order.push_back(root);
  };
  for (int root : {program->candidates, program->projection,
                   program->project, program->join_lhs, program->join_rhs,
                   program->join}) {
    visit(root, visit);
  }
  std::vector<IrNode> nodes;
  nodes.reserve(order.size());
  for (int old_id : order) {
    IrNode n = std::move(program->nodes[old_id]);
    for (int& input : n.inputs) input = remap[input];
    for (IrStage& stage : n.stages) {
      if (stage.rhs >= 0) stage.rhs = remap[stage.rhs];
    }
    nodes.push_back(std::move(n));
  }
  program->nodes = std::move(nodes);
  auto fix = [&](int& root) {
    if (root >= 0) root = remap[root];
  };
  fix(program->candidates);
  fix(program->projection);
  fix(program->project);
  fix(program->join_lhs);
  fix(program->join_rhs);
  fix(program->join);
  RecomputeKeys(program);
}

namespace {

int LowerExpr(const RegionExpr& e, IrProgram* p);

/// Flattens a same-kind spine of binary ∪/∩ into n-ary operands in
/// left-to-right order (− flattens only its left spine: a−b−c parses as
/// (a−b)−c, so the operand list is [a, b, c]).
void FlattenOperands(const RegionExpr& e, ExprKind kind, bool left_only,
                     IrProgram* p, std::vector<int>* operands) {
  if (e.kind() == kind) {
    FlattenOperands(*e.left(), kind, left_only, p, operands);
    if (left_only) {
      operands->push_back(LowerExpr(*e.right(), p));
    } else {
      FlattenOperands(*e.right(), kind, left_only, p, operands);
    }
    return;
  }
  operands->push_back(LowerExpr(e, p));
}

int Emit(IrProgram* p, IrNode node) {
  p->nodes.push_back(std::move(node));
  return static_cast<int>(p->nodes.size()) - 1;
}

int LowerExpr(const RegionExpr& e, IrProgram* p) {
  IrNode node;
  switch (e.kind()) {
    case ExprKind::kName:
      node.op = IrOp::kLoad;
      node.name = e.name();
      return Emit(p, std::move(node));
    case ExprKind::kUnion:
    case ExprKind::kIntersect:
    case ExprKind::kDifference: {
      node.op = e.kind() == ExprKind::kUnion        ? IrOp::kUnion
                : e.kind() == ExprKind::kIntersect  ? IrOp::kIntersect
                                                    : IrOp::kDifference;
      FlattenOperands(e, e.kind(),
                      /*left_only=*/e.kind() == ExprKind::kDifference, p,
                      &node.inputs);
      return Emit(p, std::move(node));
    }
    case ExprKind::kInnermost:
    case ExprKind::kOutermost:
      node.op = e.kind() == ExprKind::kInnermost ? IrOp::kInnermost
                                                 : IrOp::kOutermost;
      node.inputs.push_back(LowerExpr(*e.child(), p));
      return Emit(p, std::move(node));
    case ExprKind::kIncluding:
    case ExprKind::kIncluded:
    case ExprKind::kDirectlyIncluding:
    case ExprKind::kDirectlyIncluded:
      node.op = e.kind() == ExprKind::kIncluding ? IrOp::kIncluding
                : e.kind() == ExprKind::kIncluded ? IrOp::kIncluded
                : e.kind() == ExprKind::kDirectlyIncluding
                    ? IrOp::kDirectlyIncluding
                    : IrOp::kDirectlyIncluded;
      node.inputs.push_back(LowerExpr(*e.left(), p));
      node.inputs.push_back(LowerExpr(*e.right(), p));
      return Emit(p, std::move(node));
    default:
      // The remaining kinds are all selections.
      node.op = IrOp::kSelect;
      node.select.kind = e.kind();
      node.select.word = e.word();
      node.select.word2 = e.word2();
      node.select.param = e.param();
      node.inputs.push_back(LowerExpr(*e.child(), p));
      return Emit(p, std::move(node));
  }
}

}  // namespace

IrProgram LowerToIr(const RegionExpr* candidates,
                    const RegionExpr* projection,
                    const RegionExpr* join_lhs, const RegionExpr* join_rhs) {
  IrProgram p;
  if (candidates != nullptr) p.candidates = LowerExpr(*candidates, &p);
  if (projection != nullptr) p.projection = LowerExpr(*projection, &p);
  if (p.projection >= 0 && p.candidates >= 0) {
    IrNode project;
    project.op = IrOp::kProject;
    project.inputs = {p.projection, p.candidates};
    p.project = Emit(&p, std::move(project));
  }
  if (join_lhs != nullptr) p.join_lhs = LowerExpr(*join_lhs, &p);
  if (join_rhs != nullptr) p.join_rhs = LowerExpr(*join_rhs, &p);
  if (p.candidates >= 0 && p.join_lhs >= 0 && p.join_rhs >= 0) {
    IrNode join;
    join.op = IrOp::kJoin;
    join.inputs = {p.candidates, p.join_lhs, p.join_rhs};
    p.join = Emit(&p, std::move(join));
  }
  RecomputeKeys(&p);
  return p;
}

}  // namespace qof
