#include "qof/ir/executor.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "qof/algebra/evaluator.h"
#include "qof/algebra/parser.h"
#include "qof/cache/eval_cache.h"
#include "qof/engine/join.h"
#include "qof/exec/exec_context.h"
#include "qof/ir/ir.h"
#include "qof/ir/passes.h"
#include "qof/region/region_index.h"
#include "qof/text/corpus.h"
#include "qof/text/word_index.h"

namespace qof {
namespace {

// Mirrors the evaluator test's paper-shaped corpus: two references with
// authors/editors/names, giving nesting for ι/ω/⊃d and word collisions
// ("Chang" as author and editor) for selections.
class ExecFixture {
 public:
  ExecFixture() {
    BeginRegion("Reference");
    Raw("@R{ ");
    BeginRegion("Authors");
    Raw("AUTHORS \"");
    Name("Alice", "Chang");
    Raw(" and ");
    Name("Bob", "Smith");
    Raw("\"");
    EndRegion("Authors");
    Raw(" ");
    BeginRegion("Editors");
    Raw("EDITORS \"");
    Name("Carol", "Chang");
    Raw("\"");
    EndRegion("Editors");
    Raw(" }");
    EndRegion("Reference");
    Raw("  ");
    BeginRegion("Reference");
    Raw("@R{ ");
    BeginRegion("Authors");
    Raw("AUTHORS \"");
    Name("Dana", "Corliss");
    Raw("\"");
    EndRegion("Authors");
    Raw(" ");
    BeginRegion("Editors");
    Raw("EDITORS \"");
    Name("Eve", "Chang");
    Raw("\"");
    EndRegion("Editors");
    Raw(" }");
    EndRegion("Reference");

    EXPECT_TRUE(corpus_.AddDocument("refs.bib", text_).ok());
    for (auto& [name, regions] : spans_) {
      index_.Add(name, RegionSet::FromUnsorted(regions));
    }
    words_ = WordIndex::Build(corpus_);
  }

  // Evaluates `text` on both engines (optimized IR vs. tree) and expects
  // identical regions; returns the shared answer.
  RegionSet Both(const char* text, EvalStats* tree_stats = nullptr,
                 EvalStats* ir_stats = nullptr,
                 const IrPlanOptions& options = {},
                 const Rig* rig = nullptr) {
    auto expr = ParseRegionExpr(text);
    EXPECT_TRUE(expr.ok()) << expr.status().ToString();
    ExprEvaluator tree(&index_, &words_, &corpus_);
    auto want = tree.Evaluate(**expr, tree_stats);
    EXPECT_TRUE(want.ok()) << want.status().ToString();

    keep_.push_back(*expr);
    IrProgram p =
        LowerToIr(keep_.back().get(), nullptr, nullptr, nullptr);
    RunPasses(&p, options, &index_, &words_, rig);
    IrExecutor exec(&p, &index_, &words_, &corpus_);
    auto got = exec.EvaluateRoot(p.candidates, ir_stats);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (want.ok() && got.ok()) {
      EXPECT_EQ(want->regions(), got->regions()) << text;
    }
    return got.ok() ? *got : RegionSet();
  }

  const RegionIndex& index() const { return index_; }
  const WordIndex& words() const { return words_; }
  const Corpus& corpus() const { return corpus_; }

 private:
  void Raw(std::string_view s) { text_ += s; }
  void BeginRegion(const std::string& name) {
    open_.push_back({name, text_.size()});
  }
  void EndRegion(const std::string& name) {
    ASSERT_EQ(open_.back().first, name);
    spans_[name].push_back({open_.back().second, text_.size()});
    open_.pop_back();
  }
  void Name(const std::string& first, const std::string& last) {
    BeginRegion("Name");
    BeginRegion("First_Name");
    Raw(first);
    EndRegion("First_Name");
    Raw(" ");
    BeginRegion("Last_Name");
    Raw(last);
    EndRegion("Last_Name");
    EndRegion("Name");
  }

  std::string text_;
  std::vector<std::pair<std::string, uint64_t>> open_;
  std::map<std::string, std::vector<Region>> spans_;
  Corpus corpus_;
  RegionIndex index_;
  WordIndex words_;
  std::vector<RegionExprPtr> keep_;
};

TEST(IrExecutorTest, AgreesWithTreeOnABattery) {
  ExecFixture f;
  const char* exprs[] = {
      "Reference",
      "Reference > Authors > sigma(\"Chang\", Last_Name)",
      "Reference >> Authors >> Name >> sigma(\"Chang\", Last_Name)",
      "(Reference > Authors > sigma(\"Chang\", Last_Name)) - "
      "(Reference > Editors > sigma(\"Chang\", Last_Name))",
      "(Name < Authors) | (Name < Editors)",
      "innermost(Name | Authors | Reference)",
      "outermost(Name | Authors | Reference)",
      "sigma(\"Chang\", Last_Name) | sigma(\"Smith\", Last_Name) | "
      "sigma(\"Corliss\", Last_Name)",
      "contains(\"Chang\", Name)",
      "starts(\"Cha\", Last_Name)",
      "phrase(\"Alice Chang\", Name)",
      "Last_Name < Name < Authors",
      "(Reference & Reference) | (Authors - Editors)",
  };
  for (const char* text : exprs) f.Both(text);
}

/// The fixture's schema as a RIG: Name has two possible parents.
Rig FixtureRig() {
  Rig rig;
  rig.AddEdge("Reference", "Authors");
  rig.AddEdge("Reference", "Editors");
  rig.AddEdge("Authors", "Name");
  rig.AddEdge("Editors", "Name");
  rig.AddEdge("Name", "First_Name");
  rig.AddEdge("Name", "Last_Name");
  return rig;
}

TEST(IrExecutorTest, RigScopedDirectInclusionAgreesWithTree) {
  ExecFixture f;
  const Rig rig = FixtureRig();
  const char* exprs[] = {
      "Authors >> Name",
      "Editors >> Name",
      "Reference >> Name",  // never direct: Authors/Editors in between
      "Name << Editors",
      "Last_Name << Name << Authors",
      "Reference >> (Authors | Editors) >> sigma(\"Chang\", Last_Name)",
      "(Authors | Editors) >> (Name & (Name > sigma(\"Chang\", Last_Name)))",
  };
  for (const char* text : exprs) {
    f.Both(text, nullptr, nullptr, IrPlanOptions{}, &rig);
  }
}

TEST(IrExecutorTest, InjectedNarrowEnclosersLosesTheSecondParent) {
  ExecFixture f;
  const Rig rig = FixtureRig();
  auto expr = ParseRegionExpr("Editors >> Name");
  ASSERT_TRUE(expr.ok());
  ExprEvaluator tree(&f.index(), &f.words(), &f.corpus());
  auto want = tree.Evaluate(**expr);
  ASSERT_TRUE(want.ok());
  ASSERT_FALSE(want->empty());
  // E = {Authors} only: an editor's name finds no encloser at all.
  IrPlanOptions planted;
  planted.inject_narrow_enclosers = true;
  IrProgram p = LowerToIr(expr->get(), nullptr, nullptr, nullptr);
  RunPasses(&p, planted, &f.index(), &f.words(), &rig);
  IrExecutor exec(&p, &f.index(), &f.words(), &f.corpus());
  auto got = exec.EvaluateRoot(p.candidates);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST(IrExecutorTest, UnitWrapperSpanWidensToEveryName) {
  // W ::= X (a unit rule): every W region has exactly its X child's
  // span, so X's RIG parent W never *strictly* encloses it — the real
  // universe parent is P, which the RIG puts two steps up. The executor
  // sees an E member sharing an inner member's span and widens E.
  Corpus corpus;
  ASSERT_TRUE(corpus.AddDocument("d", "p{ w }  p{ w }").ok());
  RegionIndex index;
  index.Add("P", RegionSet::FromUnsorted({{0, 6}, {8, 14}}));
  index.Add("W", RegionSet::FromUnsorted({{3, 4}, {11, 12}}));
  index.Add("X", RegionSet::FromUnsorted({{3, 4}, {11, 12}}));
  WordIndex words = WordIndex::Build(corpus);
  Rig rig;
  rig.AddEdge("P", "W");
  rig.AddEdge("W", "X");
  for (const char* text : {"P >> X", "X << P"}) {
    auto expr = ParseRegionExpr(text);
    ASSERT_TRUE(expr.ok());
    ExprEvaluator tree(&index, &words, &corpus);
    auto want = tree.Evaluate(**expr);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(want->size(), 2u) << text;
    IrProgram p = LowerToIr(expr->get(), nullptr, nullptr, nullptr);
    RunPasses(&p, IrPlanOptions{}, &index, &words, &rig);
    ASSERT_EQ(p.nodes[p.candidates].enclosers,
              std::vector<std::string>{"W"});
    IrExecutor exec(&p, &index, &words, &corpus);
    auto got = exec.EvaluateRoot(p.candidates);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->regions(), want->regions()) << text;
  }
}

TEST(IrExecutorTest, UnannotatedDirectNodeIsRefused) {
  ExecFixture f;
  auto expr = ParseRegionExpr("Authors >> Name");
  ASSERT_TRUE(expr.ok());
  IrProgram p = LowerToIr(expr->get(), nullptr, nullptr, nullptr);
  IrExecutor exec(&p, &f.index(), &f.words(), &f.corpus());
  auto got = exec.EvaluateRoot(p.candidates);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInternal);
}

TEST(IrExecutorTest, StatsMatchTreeEvaluator) {
  ExecFixture f;
  // With every optimization off, the IR program is the tree reshaped;
  // governance counters must agree exactly.
  IrPlanOptions off;
  off.enable_cse = false;
  off.enable_pushdown = false;
  off.enable_ordering = false;
  off.enable_fusion = false;
  EvalStats tree, ir;
  f.Both(
      "(Reference > Authors > sigma(\"Chang\", Last_Name)) | "
      "(Reference > Editors > sigma(\"Chang\", Last_Name))",
      &tree, &ir, off);
  EXPECT_EQ(tree.set_ops, ir.set_ops);
  EXPECT_EQ(tree.select_ops, ir.select_ops);
  EXPECT_EQ(tree.simple_incl_ops, ir.simple_incl_ops);
  EXPECT_EQ(tree.direct_incl_ops, ir.direct_incl_ops);
  EXPECT_EQ(tree.regions_produced, ir.regions_produced);
  EXPECT_EQ(tree.max_intermediate, ir.max_intermediate);
}

TEST(IrExecutorTest, FusedChainMatchesUnfused) {
  ExecFixture f;
  IrPlanOptions fused;
  IrPlanOptions unfused;
  unfused.enable_fusion = false;
  EvalStats with, without;
  const char* text =
      "sigma(\"Chang\", starts(\"Cha\", Last_Name < Name))";
  RegionSet a = f.Both(text, nullptr, &with, fused);
  RegionSet b = f.Both(text, nullptr, &without, unfused);
  EXPECT_EQ(a.regions(), b.regions());
  // Charging parity: the fused chain charges per stage per batch, which
  // sums to the unfused totals.
  EXPECT_EQ(with.regions_produced, without.regions_produced);
}

TEST(IrExecutorTest, CacheEntriesCrossEngines) {
  ExecFixture f;
  auto expr = ParseRegionExpr(
      "Reference > Authors > sigma(\"Chang\", Last_Name)");
  ASSERT_TRUE(expr.ok());
  EvalCache cache(/*max_regions=*/4096, /*inject_stale=*/false);
  CacheEpoch epoch;

  // Tree evaluator populates the cache...
  ExprEvaluator tree(&f.index(), &f.words(), &f.corpus(),
                     DirectAlgorithm::kFast, &cache, epoch);
  EvalStats warm;
  auto want = tree.Evaluate(**expr, &warm);
  ASSERT_TRUE(want.ok());
  EXPECT_GT(warm.cache_misses, 0u);

  // ...and the IR executor is served from it: node keys are the same
  // canonical serialization, so the composite root is a hit.
  IrProgram p = LowerToIr(expr->get(), nullptr, nullptr, nullptr);
  IrPlanOptions off;
  off.enable_cse = false;
  off.enable_pushdown = false;
  off.enable_ordering = false;
  off.enable_fusion = false;
  RunPasses(&p, off, &f.index(), &f.words());
  IrExecutor exec(&p, &f.index(), &f.words(), &f.corpus(), nullptr,
                  &cache, epoch);
  EvalStats served;
  auto got = exec.EvaluateRoot(p.candidates, &served);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(want->regions(), got->regions());
  EXPECT_GT(served.cache_hits, 0u);
  EXPECT_EQ(served.cache_misses, 0u);
  // The root hit short-circuits evaluation: no set/inclusion work ran.
  EXPECT_EQ(served.total_ops(), 0u);
}

TEST(IrExecutorTest, SlotsMemoizeAcrossRoots) {
  ExecFixture f;
  auto cand = ParseRegionExpr("Reference > Authors");
  auto proj = ParseRegionExpr("Last_Name < (Reference > Authors)");
  ASSERT_TRUE(cand.ok());
  ASSERT_TRUE(proj.ok());
  IrProgram p =
      LowerToIr(cand->get(), proj->get(), nullptr, nullptr);
  IrPlanOptions options;
  RunPasses(&p, options, &f.index(), &f.words());
  IrExecutor exec(&p, &f.index(), &f.words(), &f.corpus());
  EvalStats stats;
  auto candidates = exec.EvaluateRoot(p.candidates, &stats);
  ASSERT_TRUE(candidates.ok());
  uint64_t after_candidates = stats.total_ops();
  // The project root reuses the candidates slot: only the projection leg
  // and the (uncharged) kProject rung run now.
  auto projected = exec.EvaluateRoot(p.project, &stats);
  ASSERT_TRUE(projected.ok());
  EXPECT_GT(stats.total_ops(), after_candidates);
  for (const Region& r : projected->regions()) {
    bool inside = false;
    for (const Region& c : candidates->regions()) {
      inside |= c.start <= r.start && r.end <= c.end;
    }
    EXPECT_TRUE(inside);
  }
}

TEST(IrExecutorTest, GovernanceBudgetsTripLikeTree) {
  ExecFixture f;
  auto expr = ParseRegionExpr("(Name < Authors) | (Name < Editors)");
  ASSERT_TRUE(expr.ok());
  QueryOptions options;
  options.max_regions = 2;  // far below the intermediates produced
  ExecContext ctx(options);
  IrProgram p = LowerToIr(expr->get(), nullptr, nullptr, nullptr);
  IrPlanOptions plan;
  RunPasses(&p, plan, &f.index(), &f.words());
  IrExecutor exec(&p, &f.index(), &f.words(), &f.corpus(), &ctx);
  auto r = exec.EvaluateRoot(p.candidates);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsBudgetExhausted()) << r.status().ToString();
}

TEST(IrExecutorTest, UnknownNameFailsLikeTree) {
  ExecFixture f;
  auto expr = ParseRegionExpr("Nonexistent & Reference");
  ASSERT_TRUE(expr.ok());
  IrProgram p = LowerToIr(expr->get(), nullptr, nullptr, nullptr);
  IrPlanOptions options;
  RunPasses(&p, options, &f.index(), &f.words());
  IrExecutor exec(&p, &f.index(), &f.words(), &f.corpus());
  auto r = exec.EvaluateRoot(p.candidates);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(IrExecutorTest, JoinRootUsesTheInstalledJoinFn) {
  ExecFixture f;
  auto cand = ParseRegionExpr("Reference");
  auto lhs = ParseRegionExpr("Last_Name < Authors");
  auto rhs = ParseRegionExpr("Last_Name < Editors");
  ASSERT_TRUE(cand.ok());
  ASSERT_TRUE(lhs.ok());
  ASSERT_TRUE(rhs.ok());
  IrProgram p =
      LowerToIr(cand->get(), nullptr, lhs->get(), rhs->get());
  IrPlanOptions options;
  RunPasses(&p, options, &f.index(), &f.words());
  IrExecutor exec(&p, &f.index(), &f.words(), &f.corpus());

  // Without a join function the kJoin root must fail loudly.
  auto bare = exec.EvaluateRoot(p.join);
  EXPECT_FALSE(bare.ok());

  exec.SetJoinFn([&](const RegionSet& candidates, const RegionSet& l,
                     const RegionSet& r) {
    return RunIndexJoin(f.corpus(), candidates, l, r);
  });
  auto joined = exec.EvaluateRoot(p.join);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  // Reference 1 has author Chang and editor Chang — it joins; reference
  // 2 (author Corliss, editor Chang) does not.
  EXPECT_EQ(joined->size(), 1u);
}

TEST(IrExecutorTest, PerOperatorTimingsAreRecorded) {
  ExecFixture f;
  auto expr = ParseRegionExpr(
      "Reference > Authors > sigma(\"Chang\", Last_Name)");
  ASSERT_TRUE(expr.ok());
  IrProgram p = LowerToIr(expr->get(), nullptr, nullptr, nullptr);
  IrPlanOptions options;
  RunPasses(&p, options, &f.index(), &f.words());
  IrExecutor exec(&p, &f.index(), &f.words(), &f.corpus());
  ASSERT_TRUE(exec.EvaluateRoot(p.candidates).ok());
  const IrOpTimings& timings = exec.timings();
  ASSERT_TRUE(timings.count("load"));
  EXPECT_EQ(timings.at("load").count, 3u);
  uint64_t total = 0;
  for (const auto& [op, t] : timings) total += t.count;
  EXPECT_EQ(total, p.nodes.size());
}

}  // namespace
}  // namespace qof
