// Determinism battery for morsel-driven parallel IR execution: results
// must be byte-identical across exec_workers ∈ {1, 2, 4, 8} × every
// execution strategy × cache off/on, on three grammar-model corpora
// (the bench grammar plus a recursion/ambiguity shape and a tuple-chain
// shape), with the morsel grain forced low so the range-split, the
// wavefront scheduler, and the per-range merges all actually run.
// Also: cooperative cancellation from a second thread mid-query,
// governance budgets surfacing exactly one typed error, and the
// worker × prefetch grid on a paged store. Built as its own target so
// the CI ThreadSanitizer leg can run just this battery.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "qof/engine/system.h"
#include "qof/fuzz/grammar_model.h"
#include "qof/schema/schema_text.h"

namespace qof {
namespace {

struct Grammar {
  std::string name;
  std::string schema_text;
  std::vector<std::pair<std::string, std::string>> docs;
  std::vector<std::string> queries;
};

/// Grammar 1: the benchmark schema (leaf + shared collection + tuple
/// collection + recursion) with Zipf-skewed words — the shape
/// bench_parallel_exec measures.
Grammar BenchGrammar() {
  BenchCorpusSpec spec;
  spec.seed = 11;
  spec.target_bytes = 96 << 10;
  spec.zipf_s = 1.1;
  spec.objects_per_doc = 128;
  BenchCorpus corpus = MakeBenchCorpus(spec);
  return Grammar{
      "bench",
      corpus.schema_text,
      std::move(corpus.docs),
      {
          "SELECT x FROM Obj x WHERE x.Alpha = \"zulu\"",
          "SELECT x FROM Obj x WHERE x.Beta.ItemA CONTAINS \"apple\"",
          "SELECT x FROM Obj x WHERE x.Gamma.ItemB.ItemBKey = \"zulu\" "
          "OR x.Alpha = \"falcon\"",
          "SELECT x.Alpha FROM Obj x WHERE "
          "x.Beta.ItemA CONTAINS \"zulu\" AND x.Alpha = \"harbor\"",
      }};
}

/// Grammar 2: two collection fields sharing one sub (the §6.3
/// ambiguity shape) plus recursion — n-ary ∪/∩ over same-named regions.
Grammar AmbiguityGrammar() {
  SchemaModel schema;
  SubSpec item;
  item.name = "ItemA";
  item.leaf = LeafKind::kUntil;
  schema.subs.push_back(item);
  for (const char* name : {"Alpha", "Beta"}) {
    FieldSpec f;
    f.kind = FieldSpec::Kind::kSet;
    f.name = name;
    f.sub = 0;
    f.min_count = 1;
    schema.fields.push_back(f);
  }
  FieldSpec nest;
  nest.kind = FieldSpec::Kind::kRecurse;
  nest.name = "Nest";
  schema.fields.push_back(nest);

  CorpusModel corpus;
  corpus.doc_objects = {30, 30};
  corpus.content_seed = 7;
  corpus.max_depth = 2;
  corpus.max_items = 3;
  corpus.probe_rate = 0.3;
  corpus.scale = 4;  // the datagen scale knob: 120 objects per doc

  return Grammar{
      "ambiguity",
      schema.Render(),
      RenderDocs(schema, corpus),
      {
          "SELECT x FROM Obj x WHERE x.Alpha.ItemA CONTAINS \"zulu\"",
          "SELECT x FROM Obj x WHERE x.Alpha.ItemA = \"zulu\" "
          "OR x.Beta.ItemA = \"zulu\"",
          "SELECT x FROM Obj x WHERE x.Alpha.ItemA CONTAINS \"cedar\" "
          "AND x.Beta.ItemA CONTAINS \"zulu\"",
      }};
}

/// Grammar 3: a tuple collection (multi-level chains) next to leaves —
/// fused select/containment chains over key/value sinks.
Grammar TupleGrammar() {
  SchemaModel schema;
  SubSpec pair;
  pair.name = "ItemA";
  pair.tuple = true;
  pair.key_leaf = LeafKind::kWord;
  pair.val_leaf = LeafKind::kUntil;
  schema.subs.push_back(pair);
  FieldSpec alpha;
  alpha.kind = FieldSpec::Kind::kLeaf;
  alpha.name = "Alpha";
  alpha.leaf = LeafKind::kWord;
  schema.fields.push_back(alpha);
  FieldSpec beta;
  beta.kind = FieldSpec::Kind::kSet;
  beta.name = "Beta";
  beta.sub = 0;
  beta.min_count = 1;
  schema.fields.push_back(beta);

  CorpusModel corpus;
  corpus.doc_objects = {50};
  corpus.content_seed = 13;
  corpus.max_items = 4;
  corpus.probe_rate = 0.25;
  corpus.scale = 3;

  return Grammar{
      "tuple",
      schema.Render(),
      RenderDocs(schema, corpus),
      {
          "SELECT x FROM Obj x WHERE x.Beta.ItemA.ItemAKey = \"zulu\"",
          "SELECT x.Alpha FROM Obj x WHERE "
          "x.Beta.ItemA.ItemAVal CONTAINS \"zulu\" AND "
          "x.Alpha = \"zulu\"",
          "SELECT x FROM Obj x WHERE x.Alpha = \"grove\" "
          "OR x.Beta.ItemA.ItemAKey = \"ember\"",
      }};
}

const std::vector<Grammar>& Grammars() {
  static const std::vector<Grammar>* kGrammars = new std::vector<Grammar>{
      BenchGrammar(), AmbiguityGrammar(), TupleGrammar()};
  return *kGrammars;
}

std::unique_ptr<FileQuerySystem> MakeSystem(const Grammar& g,
                                            bool cache_on) {
  auto schema = ParseSchemaText(g.schema_text);
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  auto system = std::make_unique<FileQuerySystem>(*schema);
  system->SetParallelism(1);  // index build stays serial and cheap
  if (cache_on) system->SetCacheOptions(CacheOptions::Enabled());
  for (const auto& [name, text] : g.docs) {
    EXPECT_TRUE(system->AddFile(name, text).ok());
  }
  EXPECT_TRUE(system->BuildIndexes(IndexSpec::Full()).ok());
  IrPlanOptions knobs;
  knobs.morsel_grain = 2;  // force range splits on these small corpora
  system->SetIrOptions(knobs);
  return system;
}

/// One run's observable bytes: status identity, regions, rendered
/// values, and the cache-invariant candidate count.
struct Observed {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::vector<Region> regions;
  std::vector<std::string> values;
  uint64_t candidates = 0;
};

Observed Observe(const Result<QueryResult>& r) {
  Observed out;
  out.ok = r.ok();
  if (!r.ok()) {
    out.code = r.status().code();
    return out;
  }
  out.regions = r->regions;
  out.values = r->RenderedValues();
  out.candidates = r->stats.candidates;
  return out;
}

void ExpectSame(const Observed& want, const Observed& got,
                const std::string& label) {
  ASSERT_EQ(want.ok, got.ok) << label;
  if (!want.ok) {
    EXPECT_EQ(static_cast<int>(want.code), static_cast<int>(got.code))
        << label;
    return;
  }
  EXPECT_EQ(want.regions, got.regions) << label;
  EXPECT_EQ(want.values, got.values) << label;
  EXPECT_EQ(want.candidates, got.candidates) << label;
}

TEST(ParallelExecTest, ByteIdentityAcrossWorkerCountsAndStrategies) {
  const ExecutionMode kModes[] = {ExecutionMode::kAuto,
                                  ExecutionMode::kIndexOnly,
                                  ExecutionMode::kTwoPhase,
                                  ExecutionMode::kBaseline};
  for (const Grammar& g : Grammars()) {
    for (bool cache_on : {false, true}) {
      auto system = MakeSystem(g, cache_on);
      for (const std::string& fql : g.queries) {
        for (ExecutionMode mode : kModes) {
          QueryOptions serial;
          Observed base = Observe(system->Execute(fql, mode, serial));
          for (int workers : {2, 4, 8}) {
            QueryOptions par = serial;
            par.exec_workers = workers;
            Observed got = Observe(system->Execute(fql, mode, par));
            ExpectSame(base, got,
                       g.name + " mode=" + std::to_string(int(mode)) +
                           " cache=" + (cache_on ? "on" : "off") +
                           " w=" + std::to_string(workers) + ": " + fql);
          }
        }
      }
    }
  }
}

TEST(ParallelExecTest, DiskWorkerPrefetchGridMatchesMemoryBaseline) {
  const Grammar& g = Grammars()[0];  // the bench grammar, largest corpus
  auto mem = MakeSystem(g, /*cache_on=*/false);
  const std::string path = "/tmp/qof-parallel-exec-test-" +
                           std::to_string(::getpid()) + ".qofstore";
  ASSERT_TRUE(mem->SaveStore(path, /*page_size=*/256).ok());

  auto schema = ParseSchemaText(g.schema_text);
  ASSERT_TRUE(schema.ok());
  IrPlanOptions knobs;
  knobs.morsel_grain = 2;
  // Prefetch is a store option, so each setting opens its own system.
  for (bool prefetch : {true, false}) {
    FileQuerySystem disk(*schema);
    disk.SetParallelism(1);
    for (const auto& [name, text] : g.docs) {
      ASSERT_TRUE(disk.AddFile(name, text).ok());
    }
    PagedStoreOptions store_options;
    store_options.prefetch = prefetch;
    ASSERT_TRUE(disk.OpenStore(path, store_options).ok());
    disk.SetIrOptions(knobs);

    for (const std::string& fql : g.queries) {
      QueryOptions serial;
      Observed base =
          Observe(mem->Execute(fql, ExecutionMode::kAuto, serial));
      for (int workers : {1, 2, 4, 8}) {
        QueryOptions par = serial;
        par.exec_workers = workers;
        Observed got = Observe(disk.Execute(fql, ExecutionMode::kAuto, par));
        ExpectSame(base, got,
                   "disk w=" + std::to_string(workers) +
                       (prefetch ? " pf=on" : " pf=off") + ": " + fql);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ParallelExecTest, PreCancelledQueryReturnsCancelled) {
  auto system = MakeSystem(Grammars()[1], /*cache_on=*/false);
  QueryOptions options;
  options.exec_workers = 4;
  options.cancel = std::make_shared<CancelToken>();
  options.cancel->Cancel();
  auto r = system->Execute(Grammars()[1].queries[0], ExecutionMode::kAuto,
                           options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
}

TEST(ParallelExecTest, CancellationFromSecondThreadMidMorselIsClean) {
  // Repeatedly race a cancel against a parallel query. Whatever morsel
  // or wave the cancel lands in, the query must either complete with
  // the serial answer or unwind with exactly the kCancelled typed error
  // — and the system must stay fully usable afterwards.
  const Grammar& g = Grammars()[0];
  auto system = MakeSystem(g, /*cache_on=*/false);
  QueryOptions serial;
  Observed base =
      Observe(system->Execute(g.queries[1], ExecutionMode::kAuto, serial));

  for (int round = 0; round < 16; ++round) {
    QueryOptions par = serial;
    par.exec_workers = 4;
    par.cancel = std::make_shared<CancelToken>();
    std::atomic<bool> go{false};
    std::thread canceller([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      // A tiny, round-varying delay shifts which morsel the cancel
      // interrupts across rounds.
      std::atomic<int> spin{0};
      while (spin.fetch_add(1, std::memory_order_relaxed) < round * 500) {
      }
      par.cancel->Cancel();
    });
    go.store(true, std::memory_order_release);
    auto r = system->Execute(g.queries[1], ExecutionMode::kAuto, par);
    canceller.join();
    if (r.ok()) {
      ExpectSame(base, Observe(r), "cancel race round survived");
    } else {
      EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
    }
  }

  // The system is not poisoned: the same query still answers correctly.
  ExpectSame(base,
             Observe(system->Execute(g.queries[1], ExecutionMode::kAuto,
                                     serial)),
             "after cancel races");
}

TEST(ParallelExecTest, BudgetExhaustionSurfacesOneTypedError) {
  // A region budget far below the query's intermediate sizes must trip
  // inside the morsel fold on some worker; the caller sees exactly one
  // error and it is the typed kBudgetExhausted — not an Internal
  // "skipped" placeholder from an unclaimed sibling morsel.
  const Grammar& g = Grammars()[0];
  auto system = MakeSystem(g, /*cache_on=*/false);
  for (int workers : {2, 4, 8}) {
    QueryOptions options;
    options.exec_workers = workers;
    options.max_regions = 1;
    auto r =
        system->Execute(g.queries[1], ExecutionMode::kTwoPhase, options);
    ASSERT_FALSE(r.ok()) << "w=" << workers;
    EXPECT_TRUE(r.status().IsBudgetExhausted())
        << "w=" << workers << ": " << r.status().ToString();
  }
  // Ungoverned, the same query still runs to completion.
  QueryOptions clean;
  clean.exec_workers = 4;
  EXPECT_TRUE(
      system->Execute(g.queries[1], ExecutionMode::kTwoPhase, clean).ok());
}

}  // namespace
}  // namespace qof
