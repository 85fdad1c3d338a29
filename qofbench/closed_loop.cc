// The two closed-loop workloads: one client issues its next op only
// after the previous answer is rendered.
//
//   bib-mem            BibTeX corpus in memory under a partial index spec;
//                      every engine strategy runs here.
//   grammar-disk-cold  recursive grammar-model corpus served from a
//                      QOFSTOR1 store; each op opens the store with a fresh
//                      buffer pool that is far smaller than the store.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/fuzz/grammar_model.h"
#include "qof/ir/ir.h"
#include "qof/ir/passes.h"
#include "qof/query/parser.h"
#include "qof/schema/schema_text.h"
#include "workloads.h"

namespace qofbench {
namespace {

using qof::ExecutionMode;
using qof::FileQuerySystem;

// bib-mem corpus: 24 files x 1000 references, about 13.6 MiB.
constexpr int kBibDocs = 24;
constexpr int kBibRefsPerDoc = 1000;
// grammar-disk-cold: 8 MiB corpus; a 256-page pool against a store of
// about 1357 4 KiB pages.
constexpr size_t kGrammarBytes = size_t{8} << 20;
constexpr uint32_t kPageSize = 4096;
constexpr uint32_t kPoolPages = 256;
// Set-up runs this many times before the measured ops and again after,
// so a slow spell of the machine moves only part of the samples.
constexpr int kSetupRepsPerSide = 5;
// Literal ranks are drawn with weight 1 / rank^s.
constexpr double kLiteralZipfS = 1.0;

constexpr const char* kBibSelect = "SELECT r FROM References r WHERE ";

/// The known divergence: index-only answers no regions where the
/// full-scan baseline answers hundreds. Its answers are wrong, so it is
/// not one of the measured ops; every run probes each of its queries
/// against the baseline once and reports how many still diverge.
Template KnownDivergenceTemplate() {
  return {"keywords-eq", std::string(kBibSelect) + "r.Keywords = \"%s\"",
          {"parsing", "text indexing", "region algebra", "inverted files",
           "bibliographies"},
          1};
}

/// Template weights place the median inside the band of the two
/// similar index-only plans (?F and AND NOT, 28-56% of ops) and the 90th
/// percentile inside the literal-free index join (the slowest 17%), so
/// quantiles do not sit on the step between two strategies.
std::vector<Template> BibTemplates() {
  const std::vector<std::string> names = {"Chang", "Milo", "Consens",
                                          "Tompa", "Abiteboul"};
  const std::string sel = kBibSelect;
  return {
      {"wildcard-star", sel + "r.*X.Last_Name = \"%s\"", names, 2},
      {"flagship", sel + "r.Authors.Name.Last_Name = \"%s\"", names, 3},
      {"wildcard-one", sel + "r.?F.Name.Last_Name = \"%s\"", names, 2},
      {"author-not-editor",
       sel + "r.Authors.Name.Last_Name = \"%s\" AND NOT "
             "r.Editors.Name.Last_Name = \"%s\"",
       names, 3},
      {"title-by-year",
       "SELECT r.Title FROM References r WHERE r.Year = \"%s\"",
       {"1994", "1990", "1985", "1980", "1975"},
       2},
      {"publisher-keyword",
       sel + "r.Publisher = \"%s\" AND r.Keywords CONTAINS \"parsing\"",
       {"SIAM", "ACM Press", "Springer", "North-Holland",
        "Morgan Kaufmann"},
       2},
      {"editor-author-join",
       sel + "r.Editors.Name.Last_Name = r.Authors.Name.Last_Name",
       {},
       3},
      {"key-star-empty", sel + "r.Key.*X.Last_Name = \"%s\"", names, 1},
  };
}

/// Template weights put the median inside the block of ⊃d-bound plans
/// (10-80% of ops) and the 90th percentile inside the scan-heavy OR
/// query (80-100%).
std::vector<Template> GrammarTemplates() {
  const std::vector<std::string>& vocab = qof::BenchVocab();
  // Hot words first (Zipf head of the corpus too), then the rare probe,
  // then tail words.
  const std::vector<std::string> words = {
      vocab[0], vocab[1], qof::kFuzzProbeWord, "w050", "w150", "w230"};
  const std::string sel = "SELECT x FROM Obj x WHERE ";
  return {
      {"alpha-eq", sel + "x.Alpha = \"%s\"", words, 2},
      {"beta-contains", sel + "x.Beta.ItemA CONTAINS \"%s\"", words, 2},
      {"gamma-eq", sel + "x.Gamma.ItemB.ItemBVal = \"%s\"", words, 2},
      {"wildcard-star", sel + "x.*X.ItemBVal = \"%s\"", words, 1},
      {"alpha-projection",
       "SELECT x.Alpha FROM Obj x WHERE x.Alpha = \"%s\"", words, 1},
      {"scan-heavy-or",
       sel + "x.Beta.ItemA CONTAINS \"apple\" OR "
             "x.Gamma.ItemB.ItemBVal CONTAINS \"baker\" OR "
             "x.Alpha = \"zulu\"",
       {},
       2},
  };
}

struct Expected {
  Answer answer;
  double baseline_ms = 0;   // bib-mem: the kBaseline oracle call
  uint64_t text_bytes = 0;  // grammar-disk-cold: in-memory text bytes
};

/// Everything one op of a closed-loop workload needs.
struct Fixture {
  FileQuerySystem* system = nullptr;
  qof::QueryOptions options;
  std::map<std::string, Expected> oracle;
  bool disk = false;
  std::string store_path;
  qof::PagedStoreOptions store_options;
};

struct Sample {
  int tmpl = 0;
  std::string fql;
  double ms = 0;
  double open_ms = 0;
  bool ok = false;
  bool mismatch = false;
  size_t answers = 0;
  qof::QueryStats stats;
  uint64_t text_bytes = 0;
  qof::BufferPoolStats pool;
};

/// Traced run only: the parse / compile / lower steps the engine performs
/// inside Execute, called from outside so each layer gets its own span.
void TracePlanning(const Fixture& fx, const std::string& fql,
                   Tracer* tracer, uint64_t op, int root) {
  double p0 = NowMs();
  auto parsed = qof::ParseFql(fql);
  double p1 = NowMs();
  tracer->Add(op, root, "query.parse", p0, p1);
  double c0 = NowMs();
  auto plan = fx.system->Plan(fql);
  double c1 = NowMs();
  // Plan() parses again before compiling; the span keeps the compile part.
  tracer->Add(op, root, "compiler.plan", std::min(c1, c0 + (p1 - p0)), c1);
  if (!parsed.ok() || !plan.ok()) return;
  double l0 = NowMs();
  qof::IrProgram program = qof::LowerToIr(
      plan->candidates.get(), plan->projection.get(),
      plan->join_lhs_attrs.get(), plan->join_rhs_attrs.get());
  qof::RunPasses(&program, fx.system->ir_options(),
                 &fx.system->region_index(), &fx.system->word_index());
  tracer->Add(op, root, "ir.lower_passes", l0, NowMs());
}

Sample RunOp(Fixture& fx, const Op& op, Tracer* tracer, uint64_t op_id) {
  Sample s;
  s.tmpl = op.tmpl;
  s.fql = op.fql;
  const double start = NowMs();
  const int root = tracer ? tracer->Add(op_id, -1, "op", start, start) : -1;
  if (fx.disk) {
    double t0 = NowMs();
    qof::Status st = fx.system->OpenStore(fx.store_path, fx.store_options);
    s.open_ms = NowMs() - t0;
    if (tracer) tracer->Add(op_id, root, "store.open", t0, t0 + s.open_ms);
    if (!st.ok()) {
      std::fprintf(stderr, "OpenStore failed: %s\n", st.ToString().c_str());
      return s;
    }
  }
  if (tracer) TracePlanning(fx, op.fql, tracer, op_id, root);
  const double e0 = NowMs();
  auto result = fx.system->Execute(op.fql, ExecutionMode::kAuto, fx.options);
  const double e1 = NowMs();
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s: %s\n", op.fql.c_str(),
                 result.status().ToString().c_str());
    return s;
  }
  Answer answer = AnswerOf(*result);
  const double end = NowMs();
  if (tracer) {
    int ex = tracer->Add(op_id, root, "engine.execute", e0, e1);
    tracer->AddOpTimings(op_id, ex, result->stats.op_timings);
    tracer->Add(op_id, root, "render", e1, end);
    tracer->SetEnd(root, end);
  }
  s.ms = end - start;
  s.ok = true;
  s.answers = answer.Count();
  s.stats = std::move(result->stats);
  const Expected& expected = fx.oracle.at(op.fql);
  s.mismatch = !(answer == expected.answer);
  // On disk, bytes_scanned also counts decoded index bytes; text bytes
  // come from the in-memory twin, which reads the same text.
  s.text_bytes = fx.disk ? expected.text_bytes : s.stats.bytes_scanned;
  if (fx.disk) s.pool = fx.system->index_stats().pool;
  return s;
}

struct Loop {
  std::vector<Op> ops;
  std::vector<Sample> samples;
  double seconds = 0;
};

/// Runs ops until `seconds` have passed and at least `min_ops` ran, or
/// replays `replay` exactly when given.
Loop RunLoop(Fixture& fx, OpStream* stream, double seconds, size_t min_ops,
             const std::vector<Op>* replay, Tracer* tracer) {
  Loop loop;
  const double start = NowMs();
  for (size_t i = 0;; ++i) {
    if (replay != nullptr) {
      if (i == replay->size()) break;
      loop.ops.push_back((*replay)[i]);
    } else {
      if (i >= min_ops && NowMs() - start >= seconds * 1000) break;
      loop.ops.push_back(stream->Next());
    }
    loop.samples.push_back(RunOp(fx, loop.ops.back(), tracer, i));
  }
  loop.seconds = (NowMs() - start) / 1000.0;
  return loop;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / v.size();
}

/// Counts come from the first `count_ops` ops only: the op sequence is a
/// function of the seed, so these repeat exactly run to run.
void ReportCounts(const std::vector<Sample>& all, size_t count_ops,
                  uint64_t store_pages, Report* r) {
  const size_t n = std::min(count_ops, all.size());
  const std::vector<Sample> s(all.begin(), all.begin() + n);
  const double k = std::max<size_t>(1, n);
  double exact = 0, text = 0, objects = 0, ops = 0, produced = 0;
  double max_inter = 0, cand = 0, cand_results = 0;
  std::map<std::string, double> share, kind_count;
  for (const Sample& x : s) {
    exact += x.stats.exact;
    text += x.text_bytes;
    objects += x.stats.objects_built;
    ops += x.stats.algebra.total_ops();
    produced += x.stats.algebra.regions_produced;
    max_inter = std::max<double>(max_inter, x.stats.algebra.max_intermediate);
    share[x.stats.strategy] += 1;
    if (x.stats.strategy == "two-phase") {
      cand += x.stats.candidates;
      cand_results += x.answers;
    }
    for (const auto& [kind, t] : x.stats.op_timings) kind_count[kind] += t.count;
  }
  r->Set("compiler.exact_frac", exact / k, "ratio");
  r->Set("engine.text_bytes_per_op", text / k, "B/op");
  r->Set("engine.objects_built_per_op", objects / k, "count/op");
  r->Set("engine.candidates_per_result",
         cand_results > 0 ? cand / cand_results : 0, "ratio");
  r->Set("algebra.ops_per_op", ops / k, "count/op");
  r->Set("algebra.regions_produced_per_op", produced / k, "count/op");
  r->Set("algebra.max_intermediate", max_inter, "count");
  for (const std::string& st : Strategies()) {
    r->Set("engine.strategy_share." + st, share[st] / k, "ratio");
  }
  for (const std::string& kind : IrOpKinds()) {
    r->Set("ir.op." + kind + ".count", kind_count[kind] / k, "count/op");
  }
  if (store_pages == 0) return;
  double touched = 0, read = 0, calls = 0, evict = 0, bytes = 0;
  double fetches = 0, hits = 0, pf_pages = 0, pf_hits = 0;
  for (const Sample& x : s) {
    touched += x.pool.pages_touched;
    read += x.pool.pages_read;
    calls += x.pool.read_calls;
    evict += x.pool.evictions;
    bytes += x.pool.bytes_read;
    fetches += x.pool.fetches;
    hits += x.pool.hits;
    pf_pages += x.pool.prefetch_pages;
    pf_hits += x.pool.prefetch_hits;
  }
  r->Set("store.pages_touched_frac", touched / k / store_pages, "ratio");
  r->Set("store.pages_read_per_op", read / k, "count/op");
  r->Set("store.read_calls_per_op", calls / k, "count/op");
  r->Set("store.evictions_per_op", evict / k, "count/op");
  r->Set("store.index_bytes_per_op", bytes / k, "B/op");
  r->Set("store.pool_hit_ratio", fetches > 0 ? hits / fetches : 0, "ratio");
  r->Set("store.prefetch_hit_ratio", pf_pages > 0 ? pf_hits / pf_pages : 0,
         "ratio");
}

/// Timings over every op of the run.
void ReportTimings(const Loop& loop, const Fixture& fx,
                   const std::vector<Template>& templates, Report* r) {
  std::vector<double> ms, open_ms;
  std::map<std::string, std::vector<double>> by_strategy, by_fql;
  std::map<int, std::vector<double>> by_template;
  std::map<std::string, double> kind_us;
  for (const Sample& x : loop.samples) {
    if (!x.ok) continue;
    ms.push_back(x.ms);
    open_ms.push_back(x.open_ms);
    by_strategy[x.stats.strategy].push_back(x.ms);
    by_fql[x.fql].push_back(x.ms);
    by_template[x.tmpl].push_back(x.ms);
    for (const auto& [kind, t] : x.stats.op_timings) kind_us[kind] += t.micros;
  }
  SetTimings(r, "query", ms, /*with_p99=*/true);
  for (auto& [t, v] : by_template) {
    const size_t count = v.size();
    std::printf("template %-20s n=%-5zu p50 %9.3f ms  p90 %9.3f ms\n",
                templates[t].name.c_str(), count, Percentile(v, 0.5),
                Percentile(v, 0.9));
  }
  r->Set("ops_per_s", loop.samples.size() / loop.seconds, "1/s",
         loop.samples.size());
  const double n = std::max<size_t>(1, ms.size());
  for (const std::string& kind : IrOpKinds()) {
    r->Set("ir.op." + kind + ".us", kind_us[kind] / n, "us/op");
  }
  for (const std::string& st : Strategies()) {
    auto it = by_strategy.find(st);
    r->Set("engine.class." + st + ".p50_ms",
           it == by_strategy.end() ? 0 : Median(it->second), "ms",
           it == by_strategy.end() ? 0 : it->second.size());
  }
  if (fx.disk) r->Set("store.open_ms", Median(open_ms), "ms", open_ms.size());
  // The paper's E1 ratio: the full-scan plan's time over the chosen
  // plan's, per distinct query, summarized by the median.
  std::vector<double> baseline, speedup;
  for (const auto& [fql, times] : by_fql) {
    const Expected& e = fx.oracle.at(fql);
    if (e.baseline_ms <= 0) continue;
    baseline.push_back(e.baseline_ms);
    speedup.push_back(e.baseline_ms / Median(times));
  }
  if (!baseline.empty()) {
    r->Set("engine.baseline_ms", Median(baseline), "ms", baseline.size());
    r->Set("engine.baseline_speedup", Median(speedup), "ratio",
           speedup.size());
  }
}

void Tally(const Loop& loop, Outcome* out) {
  for (const Sample& x : loop.samples) {
    ++out->attempted;
    if (x.ok && !x.mismatch) continue;
    ++out->failed;
    out->correct = false;
    std::printf("MISMATCH %s: %s\n", x.ok ? "answer" : "error",
                x.fql.c_str());
  }
}

/// The untraced run (the whole budget), or for --trace 1 an untraced
/// half followed by a traced replay of exactly the same ops.
Outcome Measure(const Args& args, Fixture& fx,
                const std::vector<Template>& templates, size_t count_ops,
                uint64_t store_pages, Report* r) {
  OpStream stream(&templates, args.seed * 7919 + 1, kLiteralZipfS);
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  Loop a = RunLoop(fx, &stream, untraced_s, count_ops, nullptr, nullptr);
  r->Set("peak_rss_mb", PeakRssMb(), "MB");
  Outcome out;
  Tally(a, &out);
  ReportTimings(a, fx, templates, r);
  ReportCounts(a.samples, count_ops, store_pages, r);
  r->Set("failed_frac", out.failed / static_cast<double>(out.attempted),
         "ratio", out.attempted);
  if (!args.trace) return out;

  Tracer tracer;
  Loop b = RunLoop(fx, nullptr, 0, 0, &a.ops, &tracer);
  Tally(b, &out);
  std::vector<double> ua, tb;
  for (size_t i = 0; i < a.samples.size(); ++i) {
    ua.push_back(a.samples[i].ms);
    tb.push_back(b.samples[i].ms);
  }
  r->Set("trace.overhead_frac", Mean(tb) / Mean(ua) - 1, "ratio",
         tb.size());
  ReportTrace(tracer, args, r);
  return out;
}

int PoolThreads(int nproc) { return std::min(4, nproc); }

}  // namespace

int ThreadsNeeded(const std::string& workload, int nproc) {
  if (workload == "bib-mem" || workload == "grammar-disk-cold") {
    // One client thread, which is worker 0 of the system's pool.
    return PoolThreads(nproc);
  }
  if (workload == "bib-serve") return 4;  // generator, mutator, 2 workers
  return 0;
}

Outcome RunBibMem(const Args& args, Report* r) {
  const int threads = PoolThreads(args.nproc);
  std::vector<std::pair<std::string, std::string>> docs;
  size_t corpus_bytes = 0;
  for (int d = 0; d < kBibDocs; ++d) {
    qof::BibtexGenOptions gen;
    gen.num_references = kBibRefsPerDoc;
    gen.seed = static_cast<uint32_t>(args.seed * 1000003u + d);
    docs.emplace_back("refs" + std::to_string(d) + ".bib",
                      qof::GenerateBibtex(gen));
    corpus_bytes += docs.back().second.size();
  }
  auto schema = qof::BibtexSchema();
  const qof::IndexSpec spec = qof::IndexSpec::Partial(
      {"Reference", "Authors", "Editors", "Name", "First_Name", "Last_Name",
       "Year", "Keywords"});
  std::vector<double> setup_s, build_s;
  auto set_up = [&]() -> std::unique_ptr<FileQuerySystem> {
    auto s = std::make_unique<FileQuerySystem>(*schema);
    s->SetParallelism(threads);
    const double t0 = NowMs();
    for (const auto& [name, text] : docs) {
      if (!s->AddFile(name, text).ok()) return nullptr;
    }
    const double t1 = NowMs();
    if (!s->BuildIndexes(spec).ok()) return nullptr;
    const double t2 = NowMs();
    setup_s.push_back((t2 - t0) / 1000);
    build_s.push_back((t2 - t1) / 1000);
    return s;
  };
  std::unique_ptr<FileQuerySystem> system;
  for (int rep = 0; rep < kSetupRepsPerSide; ++rep) {
    system.reset();
    system = set_up();
    if (system == nullptr) return Outcome{false, 1, 1};
  }
  std::printf("bib-mem: %d files, %zu references, %.2f MiB, spec %s\n",
              kBibDocs, static_cast<size_t>(kBibDocs) * kBibRefsPerDoc,
              corpus_bytes / 1048576.0, spec.ToString().c_str());
  r->Set("space_amp",
         system->IndexBytes() / static_cast<double>(corpus_bytes), "ratio");

  // Oracle: every query the stream can draw and every probe of the
  // known divergence, under the full-scan baseline plan, on a snapshot of
  // the same system. Not timed as set-up.
  const std::vector<Template> templates = BibTemplates();
  const std::vector<Template> divergent = {KnownDivergenceTemplate()};
  const std::vector<std::string> probes =
      OpStream(&divergent, 0, 0).AllFql();
  Fixture fx;
  fx.system = system.get();
  {
    auto snap = system->AcquireSnapshot();
    if (!snap.ok()) return Outcome{false, 1, 1};
    std::vector<std::string> fqls = OpStream(&templates, 0, 0).AllFql();
    fqls.insert(fqls.end(), probes.begin(), probes.end());
    std::vector<Expected> expected(fqls.size());
    std::vector<std::string> errors(fqls.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&] {
        for (size_t i = next++; i < fqls.size(); i = next++) {
          const double t0 = NowMs();
          auto res = system->ExecuteOnSnapshot(**snap, fqls[i],
                                               ExecutionMode::kBaseline);
          expected[i].baseline_ms = NowMs() - t0;
          if (res.ok()) {
            expected[i].answer = AnswerOf(*res);
          } else {
            errors[i] = res.status().ToString();
          }
        }
      });
    }
    for (std::thread& t : workers) t.join();
    for (size_t i = 0; i < fqls.size(); ++i) {
      if (!errors[i].empty()) {
        std::fprintf(stderr, "oracle failed: %s: %s\n", fqls[i].c_str(),
                     errors[i].c_str());
        return Outcome{false, 1, 1};
      }
      fx.oracle[fqls[i]] = std::move(expected[i]);
    }
  }
  // The known divergence still shows: each probe runs once under the
  // index plan and is compared with the baseline, outside the measured
  // ops.
  int diverging = 0;
  for (const std::string& fql : probes) {
    auto res = system->Execute(fql, ExecutionMode::kAuto, fx.options);
    if (!res.ok()) {
      std::fprintf(stderr, "probe failed: %s: %s\n", fql.c_str(),
                   res.status().ToString().c_str());
      return Outcome{false, 1, 1};
    }
    const Answer& want = fx.oracle.at(fql).answer;
    const Answer got = AnswerOf(*res);
    if (got == want) continue;
    ++diverging;
    std::printf("known divergence (%s, %s): %zu answers, kBaseline %zu: "
                "%s\n",
                divergent[0].name.c_str(), res->stats.strategy.c_str(),
                got.Count(), want.Count(), fql.c_str());
  }
  r->Set("oracle.known_divergences", diverging, "count", probes.size());

  Outcome out = Measure(args, fx, templates, /*count_ops=*/200, 0, r);
  system.reset();
  for (int rep = 0; rep < kSetupRepsPerSide; ++rep) {
    if (set_up() == nullptr) return Outcome{false, 1, 1};
  }
  r->Set("setup_s", Median(setup_s), "s", setup_s.size());
  r->Set("engine.build_indexes_s", Median(build_s), "s", build_s.size());
  return out;
}

Outcome RunGrammarDiskCold(const Args& args, Report* r) {
  const int threads = PoolThreads(args.nproc);
  qof::BenchCorpusSpec spec;
  spec.seed = static_cast<uint32_t>(args.seed * 2654435761u + 17);
  spec.target_bytes = kGrammarBytes;
  spec.zipf_s = 1.1;
  qof::BenchCorpus corpus = qof::MakeBenchCorpus(spec);
  auto schema = qof::ParseSchemaText(corpus.schema_text);
  if (!schema.ok()) return Outcome{false, 1, 1};

  Fixture fx;
  fx.disk = true;
  fx.store_path = args.work_dir + "/grammar-" +
                  std::to_string(::getpid()) + ".qofstore";
  fx.store_options.pool_pages = kPoolPages;
  fx.options.exec_workers = threads;
  std::vector<double> setup_s, build_s, save_s;
  // Set-up builds the in-memory indexes, saves the store, and loads the
  // corpus into the system that will open it.
  std::unique_ptr<FileQuerySystem> memory, disk;
  auto set_up = [&]() -> bool {
    memory.reset();
    disk.reset();
    const double t0 = NowMs();
    auto m = std::make_unique<FileQuerySystem>(*schema);
    m->SetParallelism(threads);
    for (const auto& [name, text] : corpus.docs) {
      if (!m->AddFile(name, text).ok()) return false;
    }
    const double t1 = NowMs();
    if (!m->BuildIndexes(qof::IndexSpec::Full()).ok()) return false;
    const double t2 = NowMs();
    if (!m->SaveStore(fx.store_path, kPageSize).ok()) return false;
    const double t3 = NowMs();
    auto d = std::make_unique<FileQuerySystem>(*schema);
    d->SetParallelism(threads);
    for (const auto& [name, text] : corpus.docs) {
      if (!d->AddFile(name, text).ok()) return false;
    }
    setup_s.push_back((NowMs() - t0) / 1000);
    build_s.push_back((t2 - t1) / 1000);
    save_s.push_back((t3 - t2) / 1000);
    memory = std::move(m);
    disk = std::move(d);
    return true;
  };
  for (int rep = 0; rep < kSetupRepsPerSide; ++rep) {
    if (!set_up()) return Outcome{false, 1, 1};
  }
  fx.system = disk.get();
  FILE* f = std::fopen(fx.store_path.c_str(), "rb");
  long store_bytes = 0;
  if (f != nullptr) {
    std::fseek(f, 0, SEEK_END);
    store_bytes = std::ftell(f);
    std::fclose(f);
  }
  const uint64_t store_pages = store_bytes / kPageSize;
  std::printf("grammar-disk-cold: %zu files, %.2f MiB, store %llu pages, "
              "pool %u pages, exec_workers %d\n",
              corpus.docs.size(), corpus.total_bytes / 1048576.0,
              static_cast<unsigned long long>(store_pages), kPoolPages,
              threads);
  r->Set("space_amp", store_bytes / static_cast<double>(corpus.total_bytes),
         "ratio");

  // Oracle: the in-memory system over the same corpus. Not timed.
  const std::vector<Template> templates = GrammarTemplates();
  for (const std::string& fql : OpStream(&templates, 0, 0).AllFql()) {
    auto res = memory->Execute(fql);
    if (!res.ok()) {
      std::fprintf(stderr, "oracle failed: %s: %s\n", fql.c_str(),
                   res.status().ToString().c_str());
      return Outcome{false, 1, 1};
    }
    Expected e;
    e.answer = AnswerOf(*res);
    e.text_bytes = res->stats.bytes_scanned;
    fx.oracle[fql] = std::move(e);
  }
  memory.reset();
  Outcome out = Measure(args, fx, templates, /*count_ops=*/40, store_pages, r);
  for (int rep = 0; rep < kSetupRepsPerSide; ++rep) {
    if (!set_up()) return Outcome{false, 1, 1};
  }
  memory.reset();
  disk.reset();
  std::remove(fx.store_path.c_str());
  r->Set("setup_s", Median(setup_s), "s", setup_s.size());
  r->Set("engine.build_indexes_s", Median(build_s), "s", build_s.size());
  r->Set("store.save_s", Median(save_s), "s", save_s.size());
  return out;
}

}  // namespace qofbench
