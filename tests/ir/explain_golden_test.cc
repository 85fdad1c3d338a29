#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"
#include "qof/schema/schema_text.h"

namespace qof {
namespace {

// One hand-written two-entry corpus (fixed text, fixed order) so the
// explain output — strategy, cost annotations, per-pass dumps — is
// byte-reproducible.
constexpr char kCorpus[] =
    "@INCOLLECTION{Ref0,\n"
    "  AUTHOR = \"Alice Chang and Bob Smith\",\n"
    "  TITLE = \"Queries on Files\",\n"
    "  BOOKTITLE = \"Files\",\n"
    "  YEAR = \"1994\",\n"
    "  EDITOR = \"Carol Chang\",\n"
    "  PUBLISHER = \"ACM Press\",\n"
    "  ADDRESS = \"Minneapolis\",\n"
    "  PAGES = \"1--10\",\n"
    "  REFERRED = \"[Ref1]\",\n"
    "  KEYWORDS = \"query optimization\",\n"
    "  ABSTRACT = \"Region algebra over structured files\"\n"
    "}\n"
    "@INCOLLECTION{Ref1,\n"
    "  AUTHOR = \"Dana Corliss\",\n"
    "  TITLE = \"Indexing Text\",\n"
    "  BOOKTITLE = \"Retrieval\",\n"
    "  YEAR = \"1992\",\n"
    "  EDITOR = \"Eve Chang\",\n"
    "  PUBLISHER = \"Springer\",\n"
    "  ADDRESS = \"Waterloo\",\n"
    "  PAGES = \"11--20\",\n"
    "  REFERRED = \"[Ref0]\",\n"
    "  KEYWORDS = \"inverted files\",\n"
    "  ABSTRACT = \"Posting lists and region indexes\"\n"
    "}\n";

constexpr char kQuery[] =
    "SELECT r FROM References r "
    "WHERE r.Authors.Name.Last_Name = \"Chang\"";

std::unique_ptr<FileQuerySystem> MakeSystem() {
  auto schema = BibtexSchema();
  EXPECT_TRUE(schema.ok());
  auto system = std::make_unique<FileQuerySystem>(*schema);
  EXPECT_TRUE(system->AddFile("refs.bib", kCorpus).ok());
  EXPECT_TRUE(system->BuildIndexes(IndexSpec::Full()).ok());
  return system;
}

TEST(ExplainGoldenTest, ExplainQueryIsDeterministic) {
  auto a = MakeSystem();
  auto b = MakeSystem();
  auto ea = a->ExplainQuery(kQuery);
  auto eb = b->ExplainQuery(kQuery);
  ASSERT_TRUE(ea.ok()) << ea.status().ToString();
  ASSERT_TRUE(eb.ok()) << eb.status().ToString();
  EXPECT_EQ(*ea, *eb);
  // Repeated calls on one system are stable too (no hidden state).
  auto again = a->ExplainQuery(kQuery);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*ea, *again);
}

TEST(ExplainGoldenTest, PipelineSectionGolden) {
  auto system_owner = MakeSystem();
  FileQuerySystem& system = *system_owner;
  auto explained = system.ExplainQuery(kQuery);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  size_t at = explained->find("\nIR pipeline:\n");
  ASSERT_NE(at, std::string::npos) << *explained;
  EXPECT_EQ(explained->substr(at),
            "\nIR pipeline:\n"
            "-- after lower --\n"
            "%0 = load Reference\n"
            "%1 = load Authors\n"
            "%2 = load Last_Name\n"
            "%3 = select sigma(\"Chang\", %2)\n"
            "%4 = including %1 %3\n"
            "%5 = including %0 %4\n"
            "roots: candidates=%5\n"
            "-- after cse --\n"
            "%0 = load Reference\n"
            "%1 = load Authors\n"
            "%2 = load Last_Name\n"
            "%3 = select sigma(\"Chang\", %2)\n"
            "%4 = including %1 %3\n"
            "%5 = including %0 %4\n"
            "roots: candidates=%5\n"
            "-- after pushdown --\n"
            "%0 = load Reference  ; card~2 work~2\n"
            "%1 = load Authors  ; card~2 work~2\n"
            "%2 = load Last_Name  ; card~5 work~5\n"
            "%3 = select sigma(\"Chang\", %2)  ; card~3 work~10\n"
            "%4 = including %1 %3  ; card~2 work~17\n"
            "%5 = including %0 %4  ; card~2 work~23\n"
            "roots: candidates=%5\n"
            "-- after order --\n"
            "%0 = load Reference  ; card~2 work~2\n"
            "%1 = load Authors  ; card~2 work~2\n"
            "%2 = load Last_Name  ; card~5 work~5\n"
            "%3 = select sigma(\"Chang\", %2)  ; card~3 work~10\n"
            "%4 = including %1 %3  ; card~2 work~17\n"
            "%5 = including %0 %4  ; card~2 work~23\n"
            "roots: candidates=%5\n"
            "-- after fuse --\n"
            "%0 = load Reference  ; card~2 work~2\n"
            "%1 = load Authors  ; card~2 work~2\n"
            "%2 = load Last_Name  ; card~5 work~5\n"
            "%3 = select sigma(\"Chang\", %2)  ; card~3 work~10\n"
            "%4 = including %1 %3  ; card~2 work~17\n"
            "%5 = including %0 %4  ; card~2 work~23\n"
            "roots: candidates=%5\n"
            "-- after enclosers --\n"
            "%0 = load Reference  ; card~2 work~2\n"
            "%1 = load Authors  ; card~2 work~2\n"
            "%2 = load Last_Name  ; card~5 work~5\n"
            "%3 = select sigma(\"Chang\", %2)  ; card~3 work~10\n"
            "%4 = including %1 %3  ; card~2 work~17\n"
            "%5 = including %0 %4  ; card~2 work~23\n"
            "roots: candidates=%5\n"
            "-- after annotate --\n"
            "%0 = load Reference  ; card~2 work~2\n"
            "%1 = load Authors  ; card~2 work~2\n"
            "%2 = load Last_Name  ; card~5 work~5\n"
            "%3 = select sigma(\"Chang\", %2)  ; card~3 work~10\n"
            "%4 = including %1 %3  ; card~2 work~17\n"
            "%5 = including %0 %4  ; card~2 work~23\n"
            "roots: candidates=%5\n");
}

// A recursive grammar (Obj ::= ... Nest, Nest ::= { Obj* }): the RIG
// rewrite cannot relax Obj >> Alpha, so the plan keeps a ⊃d whose
// encloser set E = {Obj} (Alpha's only RIG parent) the dump shows.
constexpr char kRecursiveSchema[] =
    "schema Nested root File view Obj;\n"
    "File ::= (Obj)* => collect set;\n"
    "Obj ::= \"obj{\" \"f1<\" Alpha \">\" \"f2<\" Nest \">\" \"}\" "
    "=> object Obj(Alpha: $1, Nest: $2);\n"
    "Alpha ::= word;\n"
    "Nest ::= \"{\" (Obj)* \"}\" => collect set;\n";

constexpr char kRecursiveCorpus[] =
    "obj{f1<zulu>f2<{obj{f1<apple>f2<{}>}}>}\n"
    "obj{f1<apple>f2<{obj{f1<zulu>f2<{}>}}>}\n";

TEST(ExplainGoldenTest, DirectInclusionShowsEnclosersGolden) {
  auto schema = ParseSchemaText(kRecursiveSchema);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  FileQuerySystem system(*schema);
  ASSERT_TRUE(system.AddFile("objs.txt", kRecursiveCorpus).ok());
  ASSERT_TRUE(system.BuildIndexes(IndexSpec::Full()).ok());
  const char* query = "SELECT x FROM Obj x WHERE x.Alpha = \"zulu\"";
  auto explained = system.ExplainQuery(query);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  size_t at = explained->find("-- after annotate --\n");
  ASSERT_NE(at, std::string::npos) << *explained;
  // ⊃d work: inputs 4 + 8, plus (|Obj| + |σ| + Σ|E| = 4 + 2 + 4) times
  // CostModel::kDirectFactor (4).
  EXPECT_EQ(explained->substr(at),
            "-- after annotate --\n"
            "%0 = load Obj  ; card~4 work~4\n"
            "%1 = load Alpha  ; card~4 work~4\n"
            "%2 = select sigma(\"zulu\", %1)  ; card~2 work~8\n"
            "%3 = directly-including %0 %2 enclosers={Obj}  ; card~2 "
            "work~52\n"
            "roots: candidates=%3\n");
  auto result = system.Execute(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->regions.size(), 2u);
}

TEST(ExplainGoldenTest, ExplainEstimateMatchesAnnotatedRoot) {
  // Explain prints the engine's own estimate: the candidates root of the
  // final annotated program, with ⊃d charged Σ|E| over its encloser set
  // (here E = {Obj}), not the size of the whole indexed universe.
  auto schema = ParseSchemaText(kRecursiveSchema);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  FileQuerySystem system(*schema);
  ASSERT_TRUE(system.AddFile("objs.txt", kRecursiveCorpus).ok());
  ASSERT_TRUE(system.BuildIndexes(IndexSpec::Full()).ok());
  const char* query = "SELECT x FROM Obj x WHERE x.Alpha = \"zulu\"";
  auto universe = IndexedUniverse(system.region_index());
  ASSERT_TRUE(universe.ok());
  auto obj = system.region_index().InstanceCount("Obj");
  ASSERT_GT(universe->size(), obj) << "E must be smaller than the universe";

  auto explained = system.Explain(query);
  auto pipeline = system.ExplainQuery(query);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  // ExplainQuery starts with the Explain report verbatim.
  EXPECT_EQ(pipeline->substr(0, explained->size()), *explained);

  // The candidates root's annotation in the last dump.
  size_t last = pipeline->rfind("-- after ");
  ASSERT_NE(last, std::string::npos);
  std::string dump = pipeline->substr(last);
  size_t roots = dump.find("roots: candidates=%");
  ASSERT_NE(roots, std::string::npos) << dump;
  size_t id_at = roots + std::string("roots: candidates=").size();
  std::string root_id =
      dump.substr(id_at, dump.find_first_of(" \n", id_at) - id_at);
  size_t line = dump.find("\n" + root_id + " = ");
  ASSERT_NE(line, std::string::npos) << dump;
  std::string root_line =
      dump.substr(line + 1, dump.find('\n', line + 1) - line - 1);
  size_t card_at = root_line.find("card~");
  size_t work_at = root_line.find(" work~");
  ASSERT_NE(card_at, std::string::npos) << root_line;
  ASSERT_NE(work_at, std::string::npos) << root_line;
  std::string card = root_line.substr(card_at + 5, work_at - card_at - 5);
  std::string work = root_line.substr(work_at + 6);
  EXPECT_NE(explained->find("            ~" + card + " regions, ~" + work +
                            " work units\n"),
            std::string::npos)
      << *explained << "\nroot: " << root_line;
}

TEST(ExplainGoldenTest, DisabledPassesShrinkThePipeline) {
  auto system_owner = MakeSystem();
  FileQuerySystem& system = *system_owner;
  IrPlanOptions options;
  options.enable_fusion = false;
  options.enable_cse = false;
  system.SetIrOptions(options);
  auto explained = system.ExplainQuery(kQuery);
  ASSERT_TRUE(explained.ok());
  EXPECT_EQ(explained->find("-- after cse --"), std::string::npos);
  EXPECT_EQ(explained->find("-- after fuse --"), std::string::npos);
  EXPECT_NE(explained->find("-- after pushdown --"), std::string::npos);
}

TEST(EngineSelectionTest, IndexPlansRunOnTheIr) {
  // Every strategy that evaluates algebra runs it on the IR executor and
  // reports its per-operator timings.
  auto system_owner = MakeSystem();
  FileQuerySystem& system = *system_owner;
  struct Case {
    const char* fql;
    ExecutionMode mode;
    const char* strategy;
  };
  const Case cases[] = {
      {kQuery, ExecutionMode::kAuto, "index-only"},
      {"SELECT r FROM References r "
       "WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name",
       ExecutionMode::kAuto, "index-join"},
      {kQuery, ExecutionMode::kTwoPhase, "two-phase"},
  };
  for (const Case& c : cases) {
    auto result = system.Execute(c.fql, c.mode, QueryOptions());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.strategy, c.strategy) << c.fql;
    EXPECT_EQ(result->stats.engine, "ir") << c.fql;
    EXPECT_FALSE(result->stats.op_timings.empty()) << c.fql;
  }
}

TEST(EngineSelectionTest, BaselineReportsNoEngine) {
  auto system_owner = MakeSystem();
  FileQuerySystem& system = *system_owner;
  auto baseline =
      system.Execute(kQuery, ExecutionMode::kBaseline, QueryOptions());
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->stats.engine, "");
}

}  // namespace
}  // namespace qof
