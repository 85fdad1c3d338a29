#include "qof/fuzz/direct_probe.h"

#include "qof/algebra/evaluator.h"
#include "qof/algebra/expr.h"
#include "qof/ir/executor.h"
#include "qof/ir/passes.h"

namespace qof {
namespace {

std::string Render(const Result<RegionSet>& result) {
  if (!result.ok()) return "error: " + result.status().ToString();
  std::string out;
  for (const Region& r : *result) {
    out += std::to_string(r.start) + ":" + std::to_string(r.end) + ";";
  }
  return out;
}

}  // namespace

Result<std::vector<std::pair<std::string, std::string>>> RunDirectProbes(
    FileQuerySystem& system, ProbeEngine engine) {
  QOF_ASSIGN_OR_RETURN(SnapshotRef snap, system.AcquireSnapshot());
  const Rig& rig = snap->compiler->partial_rig();
  const RegionIndex& regions = snap->built->regions;
  const WordIndex& words = snap->built->words;

  std::vector<RegionExprPtr> probes;
  for (Rig::NodeId a = 0; a < static_cast<Rig::NodeId>(rig.num_nodes());
       ++a) {
    for (Rig::NodeId b : rig.out_edges(a)) {
      probes.push_back(RegionExpr::DirectlyIncluding(
          RegionExpr::Name(rig.name(a)), RegionExpr::Name(rig.name(b))));
      probes.push_back(RegionExpr::DirectlyIncluded(
          RegionExpr::Name(rig.name(b)), RegionExpr::Name(rig.name(a))));
    }
  }

  std::vector<std::pair<std::string, std::string>> out;
  for (const RegionExprPtr& probe : probes) {
    Result<RegionSet> answer = RegionSet();
    if (engine == ProbeEngine::kTree) {
      ExprEvaluator evaluator(&regions, &words, snap->corpus.get());
      answer = evaluator.Evaluate(*probe);
    } else {
      IrProgram program = LowerToIr(probe.get(), nullptr, nullptr, nullptr);
      RunPasses(&program, system.ir_options(), &regions, &words, &rig);
      IrExecutor executor(&program, &regions, &words, snap->corpus.get());
      answer = executor.EvaluateRoot(program.candidates);
    }
    out.emplace_back(probe->ToString(), Render(answer));
  }
  return out;
}

bool ProbesAgree(const std::string& label,
                 const std::vector<std::pair<std::string, std::string>>& want,
                 const std::vector<std::pair<std::string, std::string>>& got,
                 std::string* failure) {
  if (want.size() != got.size()) {
    *failure = "[" + label + "] probe counts differ: " +
               std::to_string(want.size()) + " vs " +
               std::to_string(got.size());
    return false;
  }
  auto clip = [](const std::string& s) {
    return s.size() <= 160 ? s : s.substr(0, 160) + "...";
  };
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i] != got[i]) {
      *failure = "[" + label + "] " + want[i].first +
                 " answers differ: want " + clip(want[i].second) + " got " +
                 clip(got[i].second);
      return false;
    }
  }
  return true;
}

}  // namespace qof
