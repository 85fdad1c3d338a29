#include "qof/fuzz/fuzzer.h"

#include <gtest/gtest.h>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"
#include "qof/fuzz/direct_probe.h"
#include "qof/fuzz/repro.h"
#include "qof/fuzz/shrink.h"
#include "qof/schema/schema_text.h"

namespace qof {
namespace {

FuzzOptions FastOptions() {
  FuzzOptions options;
  options.workers = 2;
  options.max_chains = 60;  // keep the convergence check cheap in tests
  return options;
}

TEST(FuzzTest, CleanRunHoldsAllInvariants) {
  FuzzOptions options = FastOptions();
  options.iterations = 50;
  options.seed = 3;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->failed) << report->failure;
  EXPECT_EQ(report->iterations_run, 50);
  EXPECT_NE(report->case_hash, 0u);
  EXPECT_TRUE(report->repro.empty());
}

TEST(FuzzTest, SeededRunsAreByteReproducible) {
  FuzzOptions options = FastOptions();
  options.iterations = 30;
  options.seed = 17;
  auto first = RunFuzz(options);
  auto second = RunFuzz(options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // The case hash folds every byte of every generated case, so equal
  // hashes mean the two runs generated identical work.
  EXPECT_EQ(first->case_hash, second->case_hash);

  options.seed = 18;
  auto other = RunFuzz(options);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(first->case_hash, other->case_hash);
}

TEST(FuzzTest, GeneratedCasesAreDeterministic) {
  FuzzOptions options = FastOptions();
  options.seed = 5;
  for (int i = 0; i < 10; ++i) {
    ConcreteCase a = Concretize(GenerateCase(options, i));
    ConcreteCase b = Concretize(GenerateCase(options, i));
    EXPECT_EQ(a.schema_text, b.schema_text);
    EXPECT_EQ(a.docs, b.docs);
    EXPECT_EQ(a.fql, b.fql);
    EXPECT_EQ(a.subsets, b.subsets);
  }
}

TEST(FuzzTest, InjectedRelaxDirectBugIsCaughtAndShrunkSmall) {
  // Dropping the ⊃d→⊃ rewrite guard (Prop. 3.5) breaks normal-form
  // convergence on self-nested schemas. The fuzzer must catch it and the
  // shrinker must reduce the witness to a near-minimal case.
  FuzzOptions options = FastOptions();
  options.iterations = 40;
  options.seed = 2;
  options.bug = InjectedBug::kRelaxDirect;
  options.canned_fraction = 0.0;
  options.invalid_fraction = 0.0;
  options.schema_gen.recursion_rate = 1.0;  // cycles make the guard load-bearing
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected optimizer bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("chain"), std::string::npos)
      << report->failure;
  // Near-minimal: a couple of grammar productions and at most a couple
  // of query atoms suffice to witness the broken rewrite.
  EXPECT_LE(report->shrunk.schema.NumProductions(), 3)
      << "schema:\n"
      << report->shrunk.schema.Render();
  EXPECT_LE(report->shrunk.query.AtomCount(), 2);
  ASSERT_FALSE(report->repro.empty());

  // The written repro replays to the same failure under the same bug.
  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed);
}

TEST(FuzzTest, InjectedExactSkipBugIsCaught) {
  // Treating a superset candidate set as exact (skipping phase 2) must
  // surface as a differential failure against the baseline.
  FuzzOptions options = FastOptions();
  options.iterations = 120;
  options.seed = 6;
  options.bug = InjectedBug::kExactSkip;
  options.invalid_fraction = 0.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->failed) << "injected exactness bug survived "
                              << report->iterations_run << " iterations";
}

TEST(FuzzTest, InjectedDropTombstoneBugIsCaught) {
  // Losing one tombstone's index splice leaves the dead document's
  // contribution in the indexes. The maintenance leg must flag it —
  // either as a differential mismatch against the baseline scan or as
  // compaction's own consistency check firing.
  FuzzOptions options = FastOptions();
  options.iterations = 60;
  options.seed = 4;
  options.bug = InjectedBug::kDropTombstone;
  options.invalid_fraction = 0.0;
  options.mutation_fraction = 1.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected maintenance bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("[maintain"), std::string::npos)
      << report->failure;

  // The written repro replays to the same failure under the same bug.
  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed) << report->repro;
}

TEST(FuzzTest, InjectedStaleCacheBugIsCaught) {
  // An eval cache that ignores index-epoch changes keeps serving
  // answers computed before a mutation. The caching leg's cached-vs-
  // uncached comparison across interleaved mutations must flag it, and
  // the written repro must replay to the same failure.
  FuzzOptions options = FastOptions();
  options.iterations = 60;
  options.seed = 1;
  options.bug = InjectedBug::kStaleCache;
  options.invalid_fraction = 0.0;
  options.mutation_fraction = 1.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected stale-cache bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("[cache"), std::string::npos)
      << report->failure;

  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed) << report->repro;
}

TEST(FuzzTest, InjectedStaleSnapshotBugIsCaughtAndShrunk) {
  // A service that silently runs a session's queries against the live
  // state instead of its pinned snapshot breaks repeatable reads. The
  // interleaved-session leg replays each session's pinned generation
  // through a fresh oracle system and must flag the divergence; the
  // shrinker must cut the witness down and the repro must replay.
  FuzzOptions options = FastOptions();
  options.iterations = 60;
  options.seed = 1;
  options.bug = InjectedBug::kStaleSnapshot;
  options.invalid_fraction = 0.0;
  options.mutation_fraction = 1.0;  // no mutations, no divergence to see
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected stale-snapshot bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("[session"), std::string::npos)
      << report->failure;

  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed) << report->repro;
}

TEST(FuzzTest, InjectedEvictPinnedBugIsCaughtAndShrunk) {
  // A buffer pool that evicts pinned frames overwrites pages mid-read:
  // a multi-page posting stream assembled under a one-frame pool decodes
  // another page's bytes. The disk-tier leg's on-disk-vs-in-memory
  // cross-checks (queries plus the forced-materialization export
  // comparison) must flag it, and the repro must replay to the same
  // failure.
  FuzzOptions options = FastOptions();
  options.iterations = 60;
  options.seed = 1;
  options.bug = InjectedBug::kEvictPinned;
  options.invalid_fraction = 0.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected evict-pinned bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("[disk"), std::string::npos)
      << report->failure;

  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed) << report->repro;
}

TEST(FuzzTest, InjectedSkipDirSyncBugIsCaughtAndShrunk) {
  // A commit protocol whose atomic renames are never made durable (the
  // parent-directory fsync silently skipped) acknowledges commits that a
  // power cut rolls back. The crash-sweep leg simulates the cut after
  // every I/O op and must flag the lost commit; the shrinker must cut
  // the witness down and the repro must replay to the same failure.
  FuzzOptions options = FastOptions();
  options.iterations = 30;
  options.seed = 1;
  options.bug = InjectedBug::kSkipDirSync;
  options.invalid_fraction = 0.0;
  options.mutation_fraction = 1.0;  // the leg is the mutation trace
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected skip-dir-sync bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("[crash-sweep"), std::string::npos)
      << report->failure;
  // Near-minimal: one mutation step suffices to witness the volatile
  // rename (the very first checkpoint's MANIFEST publish is the bug).
  EXPECT_LE(report->shrunk.mutations.size(), 2u);

  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed) << report->repro;
}

TEST(FuzzTest, InjectedRacyMergeBugIsCaughtAndShrunk) {
  // An unsynchronized morsel merge loses a range's results (modeled as
  // the first range dropped). Serial execution is untouched, so only the
  // parallel leg's serial-vs-parallel differential — run at a tiny
  // morsel grain so even shrunk cases still split — can flag it, and the
  // repro must replay to the same failure.
  FuzzOptions options = FastOptions();
  options.iterations = 60;
  options.seed = 1;
  options.bug = InjectedBug::kRacyMerge;
  options.invalid_fraction = 0.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected racy-merge bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("[parallel"), std::string::npos)
      << report->failure;

  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed) << report->repro;
}

TEST(FuzzTest, InjectedBadCseBugIsCaught) {
  // A CSE pass that hashes selection nodes without their word operands
  // merges structurally different selections, so the IR engine returns
  // answers for the wrong word. The IR leg's tree-vs-IR differential
  // must flag it, and the written repro must replay to the same failure.
  FuzzOptions options = FastOptions();
  options.iterations = 60;
  options.seed = 1;
  options.bug = InjectedBug::kBadCse;
  options.invalid_fraction = 0.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected bad-CSE bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("[ir"), std::string::npos)
      << report->failure;

  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed) << report->repro;
}

TEST(FuzzTest, InjectedNarrowEnclosersBugIsCaughtAndShrunk) {
  // Encloser sets that keep only the first RIG parent make ⊃d/⊂d miss
  // members whose parent carries the other name. Generated schemas often
  // share a sub rule between two fields (two RIG parents); the legs'
  // direct-inclusion probes must flag it, and the shrunk repro must
  // replay to the same failure.
  FuzzOptions options = FastOptions();
  options.iterations = 60;
  options.seed = 1;
  options.bug = InjectedBug::kNarrowEnclosers;
  options.invalid_fraction = 0.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected narrow-enclosers bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("/direct-probe]"), std::string::npos)
      << report->failure;

  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed) << report->repro;
}

TEST(FuzzTest, IrLegProbesCatchNarrowEnclosers) {
  // In a full oracle run the disk leg reports the planted bug first; the
  // IR leg's tree-vs-IR probes flag it on their own as well.
  auto schema = ParseSchemaText(
      "schema Shared root File view Obj;\n"
      "File ::= (Obj)* => collect set;\n"
      "Obj ::= \"obj{\" \"f1<\" Beta \">\" \"f2<\" Gamma \">\" \"}\" "
      "=> object Obj(Beta: $1, Gamma: $2);\n"
      "Beta ::= \"(\" (ItemA / \";\")* \")\" => collect set;\n"
      "Gamma ::= \"(\" (ItemA / \";\")* \")\" => collect set;\n"
      "ItemA ::= until(\";\", \")\");\n");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  FileQuerySystem sys(*schema);
  ASSERT_TRUE(sys.AddFile("d", "obj{f1<(apple;baker)>f2<(cedar)>}\n").ok());
  ASSERT_TRUE(sys.BuildIndexes(IndexSpec::Full()).ok());

  auto tree = RunDirectProbes(sys, ProbeEngine::kTree);
  auto ir = RunDirectProbes(sys, ProbeEngine::kIr);
  ASSERT_TRUE(tree.ok() && ir.ok());
  std::string failure;
  EXPECT_TRUE(ProbesAgree("ir/direct-probe", *tree, *ir, &failure))
      << failure;

  IrPlanOptions planted;
  planted.inject_narrow_enclosers = true;
  sys.SetIrOptions(planted);
  auto narrow = RunDirectProbes(sys, ProbeEngine::kIr);
  ASSERT_TRUE(narrow.ok());
  EXPECT_FALSE(ProbesAgree("ir/direct-probe", *tree, *narrow, &failure));
  // ItemA's parents are {Beta, Gamma}; the bug keeps Beta.
  EXPECT_NE(failure.find("(Gamma >> ItemA)"), std::string::npos) << failure;
}

TEST(FuzzTest, PlanRootsAgreeAndCatchBadCse) {
  // The IR leg compares the plan roots (candidates, projection within
  // candidates, index join) of both engines directly.
  auto schema = BibtexSchema();
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  FileQuerySystem sys(*schema);
  BibtexGenOptions gen;
  gen.num_references = 40;
  gen.seed = 7;
  gen.probe_author_rate = 0.3;
  gen.probe_editor_rate = 0.3;
  ASSERT_TRUE(sys.AddFile("refs.bib", GenerateBibtex(gen)).ok());
  ASSERT_TRUE(sys.BuildIndexes(IndexSpec::Full()).ok());

  auto roots_agree = [&](const char* fql, const char* root,
                         std::string* failure) {
    auto tree = RunPlanRoots(sys, fql, ProbeEngine::kTree);
    auto ir = RunPlanRoots(sys, fql, ProbeEngine::kIr);
    EXPECT_TRUE(tree.ok() && ir.ok()) << fql;
    if (!tree.ok() || !ir.ok()) return false;
    bool has_root = false;
    for (const auto& [key, answer] : *tree) {
      has_root |= key.rfind(root, 0) == 0 && !answer.empty();
    }
    EXPECT_TRUE(has_root) << fql << " has no non-empty " << root << " root";
    return ProbesAgree("ir/roots", *tree, *ir, failure);
  };

  std::string failure;
  EXPECT_TRUE(roots_agree("SELECT r.Authors.Name.Last_Name FROM References r "
                          "WHERE r.Editors.Name.Last_Name = \"Chang\"",
                          "project", &failure))
      << failure;
  EXPECT_TRUE(roots_agree("SELECT r FROM References r WHERE "
                          "r.Editors.Name.Last_Name = "
                          "r.Authors.Name.Last_Name",
                          "join", &failure))
      << failure;

  // Two selections over Publisher that differ only in their word: the
  // planted CSE merges them, so the IR candidates lose one publisher.
  constexpr char kTwoWords[] =
      "SELECT r FROM References r "
      "WHERE r.Publisher = \"SIAM\" OR r.Publisher = \"Springer\"";
  EXPECT_TRUE(roots_agree(kTwoWords, "candidates", &failure)) << failure;
  IrPlanOptions planted;
  planted.inject_bad_cse = true;
  sys.SetIrOptions(planted);
  EXPECT_FALSE(roots_agree(kTwoWords, "candidates", &failure));
  EXPECT_NE(failure.find("[ir/roots] candidates"), std::string::npos)
      << failure;
}

TEST(FuzzTest, MutationSequencesHoldInvariants) {
  // Every case gets a mutation sequence: incremental maintenance must
  // match a from-scratch rebuild, down to the compacted blob bytes.
  FuzzOptions options = FastOptions();
  options.iterations = 40;
  options.seed = 21;
  options.invalid_fraction = 0.0;
  options.mutation_fraction = 1.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->failed) << report->failure;
}

TEST(FuzzTest, InvalidQueryClassNeverCrashes) {
  FuzzOptions options = FastOptions();
  options.iterations = 60;
  options.seed = 9;
  options.invalid_fraction = 1.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->failed) << report->failure;
}

TEST(FuzzTest, ReproRoundTripIsByteIdentical) {
  FuzzOptions options = FastOptions();
  options.seed = 11;
  for (int i = 0; i < 8; ++i) {
    ReproFile repro;
    repro.concrete_case = Concretize(GenerateCase(options, i));
    repro.bug = InjectedBug::kNone;
    repro.seed = 42 + i;
    std::string text = WriteRepro(repro);
    auto parsed = ParseRepro(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
    EXPECT_EQ(WriteRepro(*parsed), text);
    EXPECT_EQ(parsed->concrete_case.schema_text,
              repro.concrete_case.schema_text);
    EXPECT_EQ(parsed->concrete_case.docs, repro.concrete_case.docs);
    EXPECT_EQ(parsed->concrete_case.fql, repro.concrete_case.fql);
    EXPECT_EQ(parsed->concrete_case.subsets, repro.concrete_case.subsets);
    EXPECT_EQ(parsed->concrete_case.mutations,
              repro.concrete_case.mutations);
    EXPECT_EQ(parsed->seed, repro.seed);
  }
}

TEST(FuzzTest, MutationStepsRoundTripThroughRepro) {
  // Force mutations on every case so the repro's mutate lines (add and
  // update heredocs, bare removes, empty-text updates) all get exercised.
  FuzzOptions options = FastOptions();
  options.seed = 23;
  options.mutation_fraction = 1.0;
  bool saw_mutations = false;
  for (int i = 0; i < 12; ++i) {
    ReproFile repro;
    repro.concrete_case = Concretize(GenerateCase(options, i));
    repro.bug = InjectedBug::kDropTombstone;
    repro.seed = 7 + i;
    saw_mutations |= !repro.concrete_case.mutations.empty();
    std::string text = WriteRepro(repro);
    auto parsed = ParseRepro(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
    EXPECT_EQ(WriteRepro(*parsed), text);
    EXPECT_EQ(parsed->concrete_case.mutations,
              repro.concrete_case.mutations);
    EXPECT_EQ(parsed->bug, InjectedBug::kDropTombstone);
  }
  EXPECT_TRUE(saw_mutations);
}

TEST(FuzzTest, ShrinkerReductionsShrinkTheCase) {
  FuzzOptions options = FastOptions();
  options.seed = 13;
  FuzzCase fuzz_case = GenerateCase(options, 0);
  for (const FuzzCase& reduced : CaseReductions(fuzz_case)) {
    ConcreteCase a = Concretize(fuzz_case);
    ConcreteCase b = Concretize(reduced);
    size_t size_a = a.schema_text.size() + a.fql.size() +
                    a.subsets.size() * 8;
    size_t size_b = b.schema_text.size() + b.fql.size() +
                    b.subsets.size() * 8;
    for (const auto& [name, text] : a.docs) size_a += text.size() + 16;
    for (const auto& [name, text] : b.docs) size_b += text.size() + 16;
    EXPECT_LE(size_b, size_a);
  }
}

TEST(FuzzTest, InjectedBugNamesRoundTrip) {
  for (InjectedBug bug : {InjectedBug::kNone, InjectedBug::kRelaxDirect,
                          InjectedBug::kExactSkip,
                          InjectedBug::kDropTombstone,
                          InjectedBug::kStaleCache,
                          InjectedBug::kBadCse,
                          InjectedBug::kStaleSnapshot,
                          InjectedBug::kEvictPinned,
                          InjectedBug::kSkipDirSync,
                          InjectedBug::kRacyMerge,
                          InjectedBug::kNarrowEnclosers}) {
    auto parsed = InjectedBugFromName(InjectedBugName(bug));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, bug);
  }
  EXPECT_FALSE(InjectedBugFromName("no-such-bug").ok());
}

}  // namespace
}  // namespace qof
