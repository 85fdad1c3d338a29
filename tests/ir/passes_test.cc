#include "qof/ir/passes.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qof/algebra/parser.h"
#include "qof/compiler/query_compiler.h"
#include "qof/datagen/schemas.h"
#include "qof/fuzz/grammar_model.h"
#include "qof/ir/ir.h"
#include "qof/region/cost_model.h"
#include "qof/region/region_index.h"
#include "qof/schema/rig_derivation.h"
#include "qof/schema/schema_text.h"
#include "qof/text/corpus.h"
#include "qof/text/word_index.h"

namespace qof {
namespace {

// A hand-tracked corpus whose region cardinalities are deliberately
// skewed (|A| = 2 < |B| = 4 < |C| = 6), so cost-based decisions (which
// intersect operand receives a pushed selection, how operands order) are
// predictable in the goldens. Every region spans one word.
class PassFixture {
 public:
  PassFixture() {
    // 12 words; regions tile them.
    //   A: words 0-1   B: words 2-5   C: words 6-11
    // "x" appears in A[0], B[0], C[0]; "y" in A[1], B[1], C[1].
    const std::vector<std::string> words = {"x",  "y",  "x",  "y",
                                            "b2", "b3", "x",  "y",
                                            "c2", "c3", "c4", "c5"};
    std::string text;
    std::vector<Region> spans;
    for (const std::string& w : words) {
      size_t start = text.size();
      text += w;
      spans.push_back({start, text.size()});
      text += " ";
    }
    EXPECT_TRUE(corpus_.AddDocument("d", text).ok());
    auto slice = [&](size_t from, size_t to) {
      std::vector<Region> out;
      for (size_t i = from; i < to; ++i) out.push_back(spans[i]);
      return RegionSet::FromUnsorted(std::move(out));
    };
    index_.Add("A", slice(0, 2));
    index_.Add("B", slice(2, 6));
    index_.Add("C", slice(6, 12));
    words_ = WordIndex::Build(corpus_);
  }

  IrProgram Lower(const char* text) {
    auto expr = ParseRegionExpr(text);
    EXPECT_TRUE(expr.ok()) << expr.status().ToString();
    expr_keep_.push_back(*expr);
    return LowerToIr(expr_keep_.back().get(), nullptr, nullptr, nullptr);
  }

  const RegionIndex* index() { return &index_; }
  const WordIndex* words() { return &words_; }

 private:
  Corpus corpus_;
  RegionIndex index_;
  WordIndex words_;
  std::vector<RegionExprPtr> expr_keep_;
};

TEST(PassCseTest, DuplicateSubtreesMergeGolden) {
  PassFixture f;
  // Both union arms contain the identical (A > sigma("x", B)) subtree;
  // after CSE it exists once and both consumers reference it.
  IrProgram p = f.Lower(
      "(A > sigma(\"x\", B)) | ((A > sigma(\"x\", B)) & C)");
  PassCse(&p);
  EXPECT_EQ(p.Dump(),
            "%0 = load A\n"
            "%1 = load B\n"
            "%2 = select sigma(\"x\", %1)\n"
            "%3 = including %0 %2\n"
            "%4 = load C\n"
            "%5 = intersect %3 %4\n"
            "%6 = union %3 %5\n"
            "roots: candidates=%6\n");
}

TEST(PassCseTest, SharingCrossesRoots) {
  PassFixture f;
  auto cand = ParseRegionExpr("A > sigma(\"x\", B)");
  auto proj = ParseRegionExpr("C < (A > sigma(\"x\", B))");
  ASSERT_TRUE(cand.ok());
  ASSERT_TRUE(proj.ok());
  IrProgram p =
      LowerToIr(cand->get(), proj->get(), nullptr, nullptr);
  PassCse(&p);
  // The candidates root and the projection's right operand are the same
  // node after CSE.
  const IrNode& proj_node = p.nodes[p.projection];
  ASSERT_EQ(proj_node.op, IrOp::kIncluded);
  EXPECT_EQ(proj_node.inputs[1], p.candidates);
}

TEST(PassCseTest, InjectedBadCseMergesDistinctSelections) {
  PassFixture f;
  // sigma("x", B) and sigma("y", B) are different selections; the
  // planted bug keys selects without their word, so they merge — the
  // defect the fuzzer's IR leg exists to catch.
  IrProgram sound = f.Lower("sigma(\"x\", B) | sigma(\"y\", B)");
  PassCse(&sound, /*inject_bad_cse=*/false);
  ASSERT_EQ(sound.nodes[sound.candidates].inputs.size(), 2u);
  EXPECT_NE(sound.nodes[sound.candidates].inputs[0],
            sound.nodes[sound.candidates].inputs[1]);

  IrProgram bad = f.Lower("sigma(\"x\", B) | sigma(\"y\", B)");
  PassCse(&bad, /*inject_bad_cse=*/true);
  ASSERT_EQ(bad.nodes[bad.candidates].inputs.size(), 2u);
  EXPECT_EQ(bad.nodes[bad.candidates].inputs[0],
            bad.nodes[bad.candidates].inputs[1]);
}

TEST(PassPushdownTest, SelectSinksIntoCheapestIntersectOperandGolden) {
  PassFixture f;
  // |A| = 2 < |C| = 6: sigma over (C & A) sinks into A.
  IrProgram p = f.Lower("sigma(\"x\", C & A)");
  PassPushdown(&p, f.index(), f.words());
  EXPECT_EQ(p.Dump(),
            "%0 = load C  ; card~6 work~6\n"
            "%1 = load A  ; card~2 work~2\n"
            "%2 = select sigma(\"x\", %1)  ; card~2 work~4\n"
            "%3 = intersect %0 %2  ; card~2 work~18\n"
            "roots: candidates=%3\n");
}

TEST(PassPushdownTest, SelectSinksIntoDifferenceMinuendOnly) {
  PassFixture f;
  IrProgram p = f.Lower("sigma(\"x\", C - A)");
  PassPushdown(&p, f.index(), f.words());
  EXPECT_EQ(p.Dump(),
            "%0 = load C  ; card~6 work~6\n"
            "%1 = select sigma(\"x\", %0)  ; card~3 work~12\n"
            "%2 = load A  ; card~2 work~2\n"
            "%3 = difference %1 %2  ; card~3 work~19\n"
            "roots: candidates=%3\n");
}

TEST(PassPushdownTest, CorpusFreeSelectDistributesOverUnion) {
  PassFixture f;
  // starts_with never re-reads the corpus, so it may distribute over ∪
  // without changing governance byte accounting.
  IrProgram p = f.Lower("starts(\"x\", A | B)");
  PassPushdown(&p, f.index(), f.words());
  const IrNode& root = p.nodes[p.candidates];
  ASSERT_EQ(root.op, IrOp::kUnion);
  for (int input : root.inputs) {
    EXPECT_EQ(p.nodes[input].op, IrOp::kSelect);
    EXPECT_EQ(p.nodes[p.nodes[input].inputs[0]].op, IrOp::kLoad);
  }
}

TEST(PassPushdownTest, PhraseSelectStaysAboveUnion) {
  PassFixture f;
  // A multi-token phrase selection re-reads corpus bytes; distributing
  // it over ∪ would scan members twice and diverge the byte budget, so
  // it must not move.
  IrProgram p = f.Lower("phrase(\"x y\", A | B)");
  PassPushdown(&p, f.index(), f.words());
  EXPECT_EQ(p.nodes[p.candidates].op, IrOp::kSelect);
  EXPECT_EQ(p.nodes[p.nodes[p.candidates].inputs[0]].op, IrOp::kUnion);
}

TEST(PassPushdownTest, NeverThroughInnermost) {
  PassFixture f;
  IrProgram p = f.Lower("sigma(\"x\", innermost(A | B))");
  PassPushdown(&p, f.index(), f.words());
  EXPECT_EQ(p.nodes[p.candidates].op, IrOp::kSelect);
  EXPECT_EQ(p.nodes[p.nodes[p.candidates].inputs[0]].op,
            IrOp::kInnermost);
}

TEST(PassPushdownTest, SinksThroughInclusionLeftOperand) {
  PassFixture f;
  // sigma(C > A): members are C regions, so the selection filters the
  // left operand only.
  IrProgram p = f.Lower("sigma(\"x\", C > A)");
  PassPushdown(&p, f.index(), f.words());
  const IrNode& root = p.nodes[p.candidates];
  ASSERT_EQ(root.op, IrOp::kIncluding);
  EXPECT_EQ(p.nodes[root.inputs[0]].op, IrOp::kSelect);
  EXPECT_EQ(p.nodes[root.inputs[1]].op, IrOp::kLoad);
}

TEST(PassOrderTest, OperandsSortByEstimatedCardinalityGolden) {
  PassFixture f;
  // |C| = 6, |B| = 4, |A| = 2 → the n-ary intersect reorders to A B C.
  IrProgram p = f.Lower("C & B & A");
  PassOrderOperands(&p, f.index(), f.words());
  EXPECT_EQ(p.Dump(),
            "%0 = load A  ; card~2 work~2\n"
            "%1 = load B  ; card~4 work~4\n"
            "%2 = load C  ; card~6 work~6\n"
            "%3 = intersect %0 %1 %2  ; card~2 work~28\n"
            "roots: candidates=%3\n");
}

TEST(PassOrderTest, KeyBreaksTies) {
  PassFixture f;
  // Unknown names all estimate to zero cardinality; the canonical key
  // orders them deterministically.
  IrProgram p = f.Lower("Zq | Zp | Zr");
  PassOrderOperands(&p, f.index(), f.words());
  const IrNode& root = p.nodes[p.candidates];
  ASSERT_EQ(root.inputs.size(), 3u);
  EXPECT_EQ(p.nodes[root.inputs[0]].name, "Zp");
  EXPECT_EQ(p.nodes[root.inputs[1]].name, "Zq");
  EXPECT_EQ(p.nodes[root.inputs[2]].name, "Zr");
}

TEST(PassFuseTest, SelectChainFusesGolden) {
  PassFixture f;
  IrProgram p = f.Lower("sigma(\"x\", sigma(\"y\", C))");
  PassFuse(&p);
  EXPECT_EQ(p.Dump(),
            "%0 = load C\n"
            "%1 = fuse %0 :: sigma(\"y\", _) :: sigma(\"x\", _)\n"
            "roots: candidates=%1\n");
  // The fused node keeps the chain's canonical key, so it still shares
  // cache entries with the unfused plan.
  IrProgram unfused = f.Lower("sigma(\"x\", sigma(\"y\", C))");
  EXPECT_EQ(p.nodes[p.candidates].key,
            unfused.nodes[unfused.candidates].key);
}

TEST(PassFuseTest, ContainmentStagesFuseWithSelects) {
  PassFixture f;
  IrProgram p = f.Lower("sigma(\"x\", (B > A) )");
  PassFuse(&p);
  const IrNode& root = p.nodes[p.candidates];
  ASSERT_EQ(root.op, IrOp::kFusedChain);
  ASSERT_EQ(root.stages.size(), 2u);
  EXPECT_EQ(root.stages[0].kind, IrStage::Kind::kIncluding);
  EXPECT_EQ(root.stages[1].kind, IrStage::Kind::kSelect);
}

TEST(PassFuseTest, SharedNodesStayMaterialized) {
  PassFixture f;
  // sigma("y", C) feeds two consumers; fusing it into either chain would
  // recompute it, so it must survive as its own node.
  IrProgram p =
      f.Lower("sigma(\"x\", sigma(\"y\", C)) | (sigma(\"y\", C) & A)");
  PassCse(&p);
  PassFuse(&p);
  bool saw_shared_select = false;
  for (const IrNode& n : p.nodes) {
    saw_shared_select |= n.op == IrOp::kSelect;
  }
  EXPECT_TRUE(saw_shared_select) << p.Dump();
}

TEST(PassPipelineTest, FullPipelineIsDeterministic) {
  PassFixture f;
  IrPlanOptions options;
  IrProgram a = f.Lower("sigma(\"x\", C & A) | sigma(\"x\", C & A)");
  IrProgram b = f.Lower("sigma(\"x\", C & A) | sigma(\"x\", C & A)");
  std::vector<PassTrace> trace_a, trace_b;
  RunPasses(&a, options, f.index(), f.words(), nullptr, &trace_a);
  RunPasses(&b, options, f.index(), f.words(), nullptr, &trace_b);
  ASSERT_EQ(trace_a.size(), trace_b.size());
  for (size_t i = 0; i < trace_a.size(); ++i) {
    EXPECT_EQ(trace_a[i].name, trace_b[i].name);
    EXPECT_EQ(trace_a[i].dump, trace_b[i].dump);
  }
  // lower + cse + pushdown + order + fuse + enclosers + annotate.
  EXPECT_EQ(trace_a.size(), 7u);
}

TEST(PassPipelineTest, DisabledPassesAreSkipped) {
  PassFixture f;
  IrPlanOptions options;
  options.enable_cse = false;
  options.enable_fusion = false;
  IrProgram p = f.Lower("sigma(\"x\", C & A)");
  std::vector<PassTrace> trace;
  RunPasses(&p, options, f.index(), f.words(), nullptr, &trace);
  // lower, pushdown, order, enclosers, annotate: the encloser analysis is
  // not switchable.
  ASSERT_EQ(trace.size(), 5u);
  EXPECT_EQ(trace[1].name, "pushdown");
  EXPECT_EQ(trace[2].name, "order");
  EXPECT_EQ(trace[3].name, "enclosers");
  EXPECT_EQ(trace[4].name, "annotate");
}

// --- encloser analysis ------------------------------------------------------

using Names = std::vector<std::string>;

TEST(PassEnclosersTest, InfersMemberNamesPerOpKind) {
  PassFixture f;
  auto names = [&](const char* text) {
    IrProgram p = f.Lower(text);
    return InferMemberNames(p)[p.candidates];
  };
  EXPECT_EQ(names("A"), Names{"A"});
  EXPECT_EQ(names("sigma(\"x\", A)"), Names{"A"});
  EXPECT_EQ(names("innermost(B)"), Names{"B"});
  EXPECT_EQ(names("outermost(B)"), Names{"B"});
  // The left operand of ⊃/⊂/⊃d/⊂d/− passes through.
  EXPECT_EQ(names("A > B"), Names{"A"});
  EXPECT_EQ(names("A < B"), Names{"A"});
  EXPECT_EQ(names("A >> B"), Names{"A"});
  EXPECT_EQ(names("A << B"), Names{"A"});
  EXPECT_EQ(names("A - B - C"), Names{"A"});
  // ∪ unites; ∩ takes its smallest known input.
  EXPECT_EQ(names("C | A | B"), (Names{"A", "B", "C"}));
  EXPECT_EQ(names("(A | B) & C"), Names{"C"});

  // A fused chain passes its source's names through.
  IrProgram fused = f.Lower("(sigma(\"x\", A) > B) < C");
  PassFuse(&fused);
  ASSERT_EQ(fused.nodes[fused.candidates].op, IrOp::kFusedChain);
  EXPECT_EQ(InferMemberNames(fused)[fused.candidates], Names{"A"});

  // Projection: attribute members within candidates; joins are unknown.
  auto cand = ParseRegionExpr("A");
  auto attrs = ParseRegionExpr("B | C");
  ASSERT_TRUE(cand.ok() && attrs.ok());
  IrProgram both =
      LowerToIr(cand->get(), attrs->get(), attrs->get(), cand->get());
  const auto inferred = InferMemberNames(both);
  EXPECT_EQ(inferred[both.project], (Names{"B", "C"}));
  EXPECT_FALSE(inferred[both.join].has_value());
}

/// An index registering `names` with empty instances — the encloser
/// analysis reads only the name list.
RegionIndex NamesOnly(const Names& names) {
  RegionIndex index;
  for (const std::string& name : names) index.Add(name, RegionSet());
  return index;
}

/// E of the root node of `text` (a ⊃d or ⊂d) after the full pipeline.
Names EnclosersOf(const char* text, const Rig* rig,
                  const RegionIndex* regions, IrPlanOptions options = {}) {
  auto expr = ParseRegionExpr(text);
  EXPECT_TRUE(expr.ok()) << expr.status().ToString();
  if (!expr.ok()) return {};
  IrProgram p = LowerToIr(expr->get(), nullptr, nullptr, nullptr);
  RunPasses(&p, options, regions, nullptr, rig);
  const IrNode& root = p.nodes[p.candidates];
  EXPECT_TRUE(root.enclosers.has_value()) << text;
  // E never enters the canonical key: IR results keep sharing EvalCache
  // entries with the tree evaluator.
  EXPECT_EQ(root.key, (*expr)->ToString());
  return root.enclosers.value_or(Names{"<unset>"});
}

/// The recursive grammar-model schema of the disk benchmark corpus.
Result<StructuringSchema> BenchSchema() {
  BenchCorpusSpec spec;
  spec.target_bytes = 0;
  return ParseSchemaText(MakeBenchCorpus(spec).schema_text);
}

TEST(PassEnclosersTest, RecursiveGrammarModelSchema) {
  auto schema = BenchSchema();
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  const Names all = {"Alpha",    "Beta",     "Gamma", "ItemA", "ItemB",
                     "ItemBKey", "ItemBVal", "Nest",  "Obj"};
  const Rig rig = DerivePartialRig(
      DeriveFullRig(*schema), std::set<std::string>(all.begin(), all.end()));
  const RegionIndex index = NamesOnly(all);
  EXPECT_EQ(EnclosersOf("Obj >> Alpha", &rig, &index), Names{"Obj"});
  EXPECT_EQ(EnclosersOf("Obj >> Nest", &rig, &index), Names{"Obj"});
  EXPECT_EQ(EnclosersOf("Nest >> Obj", &rig, &index), Names{"Nest"});
  // ⊂d looks up the parents of its *left* operand.
  EXPECT_EQ(EnclosersOf("Alpha << Obj", &rig, &index), Names{"Obj"});
  EXPECT_EQ(EnclosersOf("Obj >> (Beta > sigma(\"w\", ItemA))", &rig,
                        &index),
            Names{"Obj"});
  EXPECT_EQ(EnclosersOf("ItemB >> (ItemBKey | ItemBVal)", &rig, &index),
            Names{"ItemB"});
}

TEST(PassEnclosersTest, PartialSpecSkipsUnindexedParents) {
  auto schema = BenchSchema();
  ASSERT_TRUE(schema.ok());
  // Beta, Gamma and Nest unindexed: ItemA's nearest indexed ancestor is
  // Obj, and Obj's own (through Nest) is Obj.
  const std::set<std::string> indexed = {"Obj", "ItemA", "Alpha"};
  const Rig rig = DerivePartialRig(DeriveFullRig(*schema), indexed);
  const RegionIndex index = NamesOnly({"Alpha", "ItemA", "Obj"});
  EXPECT_EQ(EnclosersOf("Obj >> ItemA", &rig, &index), Names{"Obj"});
  EXPECT_EQ(EnclosersOf("Obj >> Obj", &rig, &index), Names{"Obj"});
}

TEST(PassEnclosersTest, ContextualSpecWidensThroughNonBlockingNames) {
  auto schema = BibtexSchema();
  ASSERT_TRUE(schema.ok());
  const Rig full = DeriveFullRig(*schema);
  const std::set<std::string> indexed = {"Reference", "Authors", "Name",
                                         "Last_Name"};
  const RegionIndex index =
      NamesOnly({"Authors", "Last_Name", "Name", "Reference"});

  QueryCompiler everywhere(&full, indexed, "Reference");
  EXPECT_EQ(EnclosersOf("Name >> Last_Name", &everywhere.partial_rig(),
                        &index),
            Names{"Name"});

  // Name indexed only within Authors: a Name under Editors is not in the
  // index, so that Name's Last_Name has Reference as its nearest indexed
  // ancestor. A contextual name blocks no RIG path, so Authors (through
  // Name) is a possible parent too.
  QueryCompiler contextual(&full, indexed, "Reference",
                           {{"Name", "Authors"}});
  EXPECT_EQ(EnclosersOf("Name >> Last_Name", &contextual.partial_rig(),
                        &index),
            (Names{"Authors", "Name", "Reference"}));
}

TEST(PassEnclosersTest, UnknownNamesScopeToEveryIndexedName) {
  PassFixture f;
  const Names all = {"A", "B", "C"};
  Rig rig;
  rig.AddEdge("A", "B");
  rig.AddEdge("B", "C");
  EXPECT_EQ(EnclosersOf("A >> B", &rig, f.index()), Names{"A"});
  // No RIG, or a name the RIG does not know: every indexed name.
  EXPECT_EQ(EnclosersOf("A >> B", nullptr, f.index()), all);
  Rig partial;
  partial.AddEdge("A", "B");
  EXPECT_EQ(EnclosersOf("B >> C", &partial, f.index()), all);
  // Indexed names missing from the RIG stay in E: nothing rules them out.
  EXPECT_EQ(EnclosersOf("A >> B", &partial, f.index()), (Names{"A", "C"}));

  // A join inner operand (hand-built: lowering never produces one) has
  // unknown member names.
  IrProgram p;
  for (const char* name : {"A", "B", "C"}) {
    IrNode load;
    load.op = IrOp::kLoad;
    load.name = name;
    p.nodes.push_back(load);
  }
  IrNode join;
  join.op = IrOp::kJoin;
  join.inputs = {0, 1, 2};
  p.nodes.push_back(join);
  IrNode direct;
  direct.op = IrOp::kDirectlyIncluding;
  direct.inputs = {0, 3};
  p.nodes.push_back(direct);
  PassEnclosers(&p, &rig, f.index());
  EXPECT_EQ(p.nodes[4].enclosers, all);
}

TEST(PassEnclosersTest, InjectedNarrowEnclosersDropsASecondParent) {
  auto schema = BibtexSchema();
  ASSERT_TRUE(schema.ok());
  const Rig full = DeriveFullRig(*schema);
  QueryCompiler compiler(&full, {"Authors", "Editors", "Name"},
                         "Reference");
  const RegionIndex index = NamesOnly({"Authors", "Editors", "Name"});
  EXPECT_EQ(EnclosersOf("Editors >> Name", &compiler.partial_rig(), &index),
            (Names{"Authors", "Editors"}));
  IrPlanOptions planted;
  planted.inject_narrow_enclosers = true;
  EXPECT_EQ(EnclosersOf("Editors >> Name", &compiler.partial_rig(), &index,
                        planted),
            Names{"Authors"});
}

TEST(PassEnclosersTest, DumpAndCostUseTheEncloserSet) {
  PassFixture f;  // |A| = 2, |B| = 4, |C| = 6
  Rig rig;
  rig.AddEdge("A", "B");
  rig.AddNode("C");
  IrProgram scoped = f.Lower("A >> B");
  RunPasses(&scoped, IrPlanOptions{}, f.index(), f.words(), &rig);
  EXPECT_EQ(scoped.Dump(),
            "%0 = load A  ; card~2 work~2\n"
            "%1 = load B  ; card~4 work~4\n"
            "%2 = directly-including %0 %1 enclosers={A}  ; card~2 work~" +
                std::to_string(static_cast<long long>(
                    6 + (2 + 4 + 2) * CostModel::kDirectFactor)) +
                "\n"
                "roots: candidates=%2\n");
  // Without a RIG, E is every name and the sweep is charged Σ|E| = 12.
  IrProgram universe = f.Lower("A >> B");
  RunPasses(&universe, IrPlanOptions{}, f.index(), f.words());
  EXPECT_DOUBLE_EQ(universe.nodes[universe.candidates].est_work,
                   6 + (2 + 4 + 12) * CostModel::kDirectFactor);
}

}  // namespace
}  // namespace qof
