// bib-serve: QueryService over in-memory BibTeX, caches on, driven open
// loop at a fixed ladder of offered rates. One generator thread submits
// the queries at their due times; one mutator thread applies the
// updates (10% of ops) and a Compact every kCompactEvery updates.
// Latency runs from each op's due time, so a stall is charged to every
// op it delays.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <memory>
#include <thread>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/ir/ir.h"
#include "qof/ir/passes.h"
#include "qof/query/parser.h"
#include "qof/server/service.h"
#include "workloads.h"

namespace qofbench {
namespace {

using qof::FileQuerySystem;
using qof::QueryService;

constexpr int kDocs = 64;
constexpr int kRefsPerDoc = 100;
constexpr int kWorkers = 2;
/// Reader sessions take the queries round robin. After each update the
/// mutator repins one of them to the new state (a client that learned of
/// the write), so refreshes never stall the generator on the engine lock.
constexpr int kReaderSessions = 8;
constexpr int kOpsPerUpdate = 10;  // one op in ten is an UpdateFile
constexpr int kCompactEvery = 16;  // updates per Compact
constexpr int kFrozenEvery = 64;   // query ops per frozen-session probe
constexpr int kSetupRepsPerSide = 5;
constexpr double kDocZipfS = 1.0;
constexpr double kLiteralZipfS = 0.5;
/// Offered rates (ops/s) and each rung's share of the run time. The top
/// rung is far beyond capacity, so the ladder's end is always measured.
constexpr double kRates[] = {100, 200, 2000};
constexpr double kRungShare[] = {0.6, 0.3, 0.1};
/// The rung whose latencies are the end-to-end figures: the lowest, where
/// queueing is rare and latency is mostly the engine's own work.
constexpr size_t kReferenceRung = 0;
constexpr double kReferenceRate = kRates[kReferenceRung];
/// A rung is sustained when no op fails or is refused, query p99 stays
/// within kP99LimitMs, and the backlog does not grow: everything due has
/// completed within kBacklogLimitMs of the last due time (a rung beyond
/// capacity leaves seconds of backlog).
constexpr double kP99LimitMs = 50;
constexpr double kBacklogLimitMs = 250;

constexpr const char* kFrozenFql =
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "
    "\"Chang\"";

/// Literal pools span the generator's whole vocabulary with a mild skew,
/// so a reader's pin sees mostly first uses: most queries miss the eval
/// cache and their latency is engine work rather than a few microseconds
/// of cache lookup drowned in scheduler noise.
std::vector<Template> ServeTemplates() {
  const std::vector<std::string> names = {
      "Chang",     "Corliss",    "Griewank",    "Milo",      "Abiteboul",
      "Consens",   "Tompa",      "Salminen",    "Gonnet",    "Mendelzon",
      "Kifer",     "Sagiv",      "Lamport",     "Sethi",     "Burkowski",
      "Salton",    "McGill",     "Paepcke",     "Schwartz",  "Goldberg",
      "Nichols",   "Hadzilacos", "Kilpelainen", "Yeung",     "Bertino",
      "Delobel"};
  std::vector<std::string> years;
  for (int y = 1994; y >= 1970; --y) years.push_back(std::to_string(y));
  const std::string sel = "SELECT r FROM References r WHERE ";
  return {
      {"flagship", sel + "r.Authors.Name.Last_Name = \"%s\"", names, 2},
      {"wildcard-star", sel + "r.*X.Last_Name = \"%s\"", names, 2},
      {"author-not-editor",
       sel + "r.Authors.Name.Last_Name = \"%s\" AND NOT "
             "r.Editors.Name.Last_Name = \"%s\"",
       names, 3},
      {"keywords-eq", sel + "r.Keywords = \"%s\"",
       {"parsing", "text indexing", "region algebra", "point algorithm",
        "Taylor series", "radius of convergence", "query optimization",
        "semi-structured", "file systems", "inverted files",
        "bibliographies", "object databases"},
       1},
      {"title-by-year",
       "SELECT r.Title FROM References r WHERE r.Year = \"%s\"", years, 2},
  };
}

std::string DocName(int d) { return "serve" + std::to_string(d) + ".bib"; }

std::string DocText(uint32_t seed) {
  qof::BibtexGenOptions gen;
  gen.num_references = kRefsPerDoc;
  gen.seed = seed;
  return qof::GenerateBibtex(gen);
}

struct QueryOp {
  std::string fql;
  int session = 0;  // reader index, or -1 for the frozen session
  int tmpl = -1;    // template index, or -1 for the frozen probe
  double due = 0;  // ms from rung start
};

struct UpdateOp {
  int doc = 0;
  uint32_t text_seed = 0;
  bool compact = false;
  double due = 0;
};

struct Schedule {
  std::vector<QueryOp> queries;
  std::vector<UpdateOp> updates;
};

/// The seeded op sequence at `rate` ops/s for `seconds`: in every block
/// of kOpsPerUpdate slots one seeded slot is an update.
Schedule MakeSchedule(uint64_t seed, double rate, double seconds,
                      const std::vector<Template>& templates,
                      uint64_t* updates_so_far) {
  Rng rng(seed);
  OpStream stream(&templates, seed ^ 0x5bd1e995u, kLiteralZipfS);
  Schedule s;
  const size_t n = static_cast<size_t>(rate * seconds);
  size_t update_slot = 0;
  int query_ops = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i % kOpsPerUpdate == 0) update_slot = i + rng.Below(kOpsPerUpdate);
    const double due = 1000.0 * i / rate;
    if (i == update_slot) {
      UpdateOp u;
      u.doc = static_cast<int>(rng.Zipf(kDocs, kDocZipfS));
      u.text_seed = rng.Next32();
      u.compact = ++*updates_so_far % kCompactEvery == 0;
      u.due = due;
      s.updates.push_back(u);
      continue;
    }
    QueryOp q;
    q.due = due;
    if (++query_ops % kFrozenEvery == 0) {
      q.fql = kFrozenFql;
      q.session = -1;
    } else {
      Op op = stream.Next();
      q.fql = std::move(op.fql);
      q.tmpl = op.tmpl;
      q.session = query_ops % kReaderSessions;
    }
    s.queries.push_back(std::move(q));
  }
  return s;
}

/// Filled by a service worker; read by the generator after the rung.
struct QuerySlot {
  double submit = 0;
  double cb_start = 0;
  double done = 0;
  bool accepted = false;
  bool ok = false;
  std::string state;  // the index state the answer came from
  uint64_t hash = 0;
  qof::QueryStats stats;
};

struct UpdateSlot {
  double start = 0;
  double end = 0;
  double compact_ms = 0;
  bool ok = false;
  uint64_t dead_bytes = 0;
  uint64_t corpus_bytes = 0;
};

struct Rung {
  double rate = 0;
  std::vector<double> query_ms;   // from due time; failures count as +inf
  std::map<int, std::vector<double>> by_template;  // completed queries
  std::vector<double> update_ms;  // from due time
  std::vector<double> gen_lag_ms;
  std::vector<double> compact_ms;
  double drain_ms = 0;  // last completion after the last due time
  double completed_per_s = 0;  // ops completed over first due to last done
  uint64_t rejected = 0;
  uint64_t failed = 0;
  uint64_t attempted = 0;
  uint64_t inconsistent = 0;
  double dead_frac_sum = 0;
  size_t strategy_ops = 0;
  size_t exact_ops = 0;
  std::map<std::string, double> strategy_count;
  double overhead_base_ms = 0;  // mean query latency
};

struct Env {
  FileQuerySystem* system = nullptr;
  QueryService* service = nullptr;
  std::vector<uint64_t> readers;
  uint64_t frozen = 0;
  uint64_t frozen_hash = 0;
  uint64_t mutator = 0;
  std::vector<std::string> docs;  // current text per doc, by index
  /// (fql, index state) -> answer hash: every op on one state must agree.
  std::map<std::pair<std::string, std::string>, uint64_t> seen;
};

/// Sleeps until `due`. Sleeping, not spinning: the generator and the
/// mutator must not take CPU from the two service workers on a 4-CPU
/// budget.
void WaitUntil(double due) {
  for (double now = NowMs(); now < due; now = NowMs()) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>((due - now) * 1000)));
  }
}

/// The index state a result was computed on, from the maintenance note
/// the engine adds (generation and compaction count identify a layout).
std::string StateOf(const qof::QueryStats& stats) {
  for (const std::string& note : stats.notes) {
    if (note.rfind("indexes maintained", 0) == 0) return note;
  }
  return "as built";
}

/// Runs one rung open loop. With a tracer, the generator also parses,
/// compiles and lowers each query from outside (on a snapshot) so those
/// layers get their own spans.
Rung RunRung(Env& env, const Schedule& sched, double rate, Tracer* tracer,
             uint64_t* op_base) {
  Rung rung;
  rung.rate = rate;
  std::vector<QuerySlot> qs(sched.queries.size());
  std::vector<UpdateSlot> us(sched.updates.size());
  std::atomic<size_t> completed{0};
  qof::SnapshotRef plan_snap;
  if (tracer) {
    auto snap = env.system->AcquireSnapshot();
    if (snap.ok()) plan_snap = *snap;
  }
  struct Planning {
    double p0, p1, c0, c1, l0, l1;
  };
  std::vector<Planning> planning(tracer ? qs.size() : 0);

  const double t0 = NowMs() + 5;  // first due time
  std::thread mutator([&] {
    for (size_t i = 0; i < sched.updates.size(); ++i) {
      const UpdateOp& u = sched.updates[i];
      std::string text = DocText(u.text_seed);
      const double due = t0 + u.due;
      WaitUntil(due);
      UpdateSlot& slot = us[i];
      slot.start = NowMs();
      slot.ok =
          env.service->UpdateFile(env.mutator, DocName(u.doc), text).ok();
      env.docs[u.doc] = std::move(text);
      if (u.compact) {
        const double c0 = NowMs();
        slot.ok = env.service->Compact(env.mutator).ok() && slot.ok;
        slot.compact_ms = NowMs() - c0;
      }
      slot.end = NowMs();
      (void)env.service->Refresh(env.readers[i % kReaderSessions]);
      const qof::MaintainStats ms = env.system->maintain_stats();
      slot.dead_bytes = ms.dead_bytes;
      slot.corpus_bytes = 0;
      for (const std::string& d : env.docs) slot.corpus_bytes += d.size();
    }
  });

  for (size_t i = 0; i < sched.queries.size(); ++i) {
    const QueryOp& q = sched.queries[i];
    const uint64_t sid = q.session < 0 ? env.frozen : env.readers[q.session];
    if (tracer && plan_snap != nullptr) {
      // Done ahead of the due time: the spans are measured, the op's
      // latency is not charged for them.
      Planning& p = planning[i];
      p.p0 = NowMs();
      auto parsed = qof::ParseFql(q.fql);
      p.p1 = p.c0 = NowMs();
      if (parsed.ok()) {
        auto plan = plan_snap->compiler->Compile(*parsed);
        p.c1 = p.l0 = NowMs();
        if (plan.ok()) {
          qof::IrProgram program = qof::LowerToIr(
              plan->candidates.get(), plan->projection.get(),
              plan->join_lhs_attrs.get(), plan->join_rhs_attrs.get());
          qof::RunPasses(&program, env.system->ir_options(),
                         &plan_snap->built->regions,
                         &plan_snap->built->words);
        }
      }
      p.l1 = NowMs();
    }
    const double due = t0 + q.due;
    WaitUntil(due);
    QuerySlot& slot = qs[i];
    slot.submit = NowMs();
    qof::Status st = env.service->SubmitQuery(
        sid, q.fql, {}, [&slot, &completed](qof::Result<qof::QueryResult> r) {
          slot.cb_start = NowMs();
          if (r.ok()) {
            slot.hash = HashAnswer(AnswerOf(*r));
            slot.state = StateOf(r->stats);
            slot.stats = std::move(r->stats);
            slot.ok = true;
          }
          slot.done = NowMs();
          completed.fetch_add(1, std::memory_order_release);
        });
    slot.accepted = st.ok();
    if (!st.ok()) completed.fetch_add(1, std::memory_order_release);
  }
  mutator.join();
  while (completed.load(std::memory_order_acquire) < qs.size()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  const double last_due =
      t0 + std::max(sched.queries.empty() ? 0 : sched.queries.back().due,
                    sched.updates.empty() ? 0 : sched.updates.back().due);
  double last_done = last_due;
  double sum_ms = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    const QuerySlot& s = qs[i];
    const QueryOp& q = sched.queries[i];
    const double due = t0 + q.due;
    ++rung.attempted;
    rung.gen_lag_ms.push_back(s.submit - due);
    if (!s.accepted) ++rung.rejected;
    if (!s.accepted || !s.ok) {
      ++rung.failed;
      rung.query_ms.push_back(1e9);
      continue;
    }
    last_done = std::max(last_done, s.done);
    rung.query_ms.push_back(s.done - due);
    rung.by_template[q.tmpl].push_back(s.done - due);
    sum_ms += s.done - due;
    rung.strategy_count[s.stats.strategy] += 1;
    ++rung.strategy_ops;
    rung.exact_ops += s.stats.exact;
    // Repeatable reads: one answer per query text and index state; the
    // frozen session never leaves its first state.
    auto key = std::make_pair(q.fql, s.state);
    auto [it, fresh] = env.seen.emplace(key, s.hash);
    bool bad = !fresh && it->second != s.hash;
    if (q.session < 0) bad = bad || s.hash != env.frozen_hash;
    if (bad) {
      ++rung.failed;
      ++rung.inconsistent;
      std::printf("MISMATCH serve: %s on state '%s'\n", q.fql.c_str(),
                  key.second.c_str());
    }
    if (tracer) {
      const uint64_t op = (*op_base)++;
      int root = tracer->Add(op, -1, "op", due, s.done);
      const Planning& p = planning[i];
      tracer->Add(op, root, "query.parse", p.p0, p.p1);
      tracer->Add(op, root, "compiler.plan", p.c0, p.c1);
      tracer->Add(op, root, "ir.lower_passes", p.l0, p.l1);
      const double exec0 = s.cb_start - s.stats.micros / 1000.0;
      tracer->Add(op, root, "server.queue", s.submit,
                  std::max(s.submit, exec0), /*reported=*/true);
      int ex = tracer->Add(op, root, "engine.execute",
                           std::max(s.submit, exec0), s.cb_start,
                           /*reported=*/true);
      tracer->AddOpTimings(op, ex, s.stats.op_timings);
      tracer->Add(op, root, "render", s.cb_start, s.done);
    }
  }
  rung.overhead_base_ms = sum_ms / std::max<size_t>(1, rung.strategy_ops);
  for (size_t i = 0; i < us.size(); ++i) {
    const UpdateSlot& s = us[i];
    const double due = t0 + sched.updates[i].due;
    ++rung.attempted;
    if (!s.ok) ++rung.failed;
    last_done = std::max(last_done, s.end);
    rung.update_ms.push_back(s.end - due);
    if (s.compact_ms > 0) rung.compact_ms.push_back(s.compact_ms);
    rung.dead_frac_sum +=
        s.corpus_bytes > 0 ? s.dead_bytes / double(s.corpus_bytes) : 0;
    if (tracer) {
      const uint64_t op = (*op_base)++;
      int root = tracer->Add(op, -1, "update", due, s.end);
      tracer->Add(op, root, "maintain.update", s.start,
                  s.end - s.compact_ms);
      if (s.compact_ms > 0) {
        tracer->Add(op, root, "maintain.compact", s.end - s.compact_ms,
                    s.end);
      }
    }
  }
  rung.drain_ms = last_done - last_due;
  rung.completed_per_s =
      (rung.attempted - rung.failed) / ((last_done - t0) / 1000.0);
  return rung;
}

/// Median over windows of kWindowOps consecutive queries of each window's
/// percentile `p`: each window is a repeated sample, so a burst of CPU
/// steal on a shared host moves a few windows rather than the figure.
double WindowedPercentile(const Rung& r, double p) {
  constexpr size_t kWindowOps = 200;
  std::vector<double> per_window;
  for (size_t at = 0; at + kWindowOps <= r.query_ms.size(); at += kWindowOps) {
    std::vector<double> window(r.query_ms.begin() + at,
                               r.query_ms.begin() + at + kWindowOps);
    per_window.push_back(Percentile(window, p));
  }
  return Median(per_window);
}

bool Sustained(Rung r) {
  return r.rejected == 0 && r.failed == 0 &&
         Percentile(r.query_ms, 0.99) <= kP99LimitMs &&
         r.drain_ms <= kBacklogLimitMs;
}

/// Region texts + values: comparable across corpus layouts.
std::vector<std::string> TextAnswer(const FileQuerySystem& system,
                                    const qof::QueryResult& r) {
  std::vector<std::string> out;
  for (const qof::Region& g : r.regions) {
    out.emplace_back(system.corpus().RawText(g.start, g.end));
  }
  for (std::string& v : r.RenderedValues()) out.push_back("value:" + v);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Outcome RunBibServe(const Args& args, Report* r) {
  auto schema = qof::BibtexSchema();
  Env env;
  for (int d = 0; d < kDocs; ++d) {
    env.docs.push_back(
        DocText(static_cast<uint32_t>(args.seed * 1000003u + 77 * d + 5)));
  }
  size_t corpus_bytes = 0;
  for (const std::string& d : env.docs) corpus_bytes += d.size();
  const std::vector<Template> templates = ServeTemplates();

  // Set-up runs kSetupRepsPerSide times before the run and again after
  // it (on the initial documents), so a slow spell of the machine moves
  // only part of the samples.
  const std::vector<std::string> initial_docs = env.docs;
  std::vector<double> setup_s, build_s;
  qof::ServiceOptions service_options;
  service_options.workers = kWorkers;
  // Unbounded queue: a rung beyond capacity shows as a growing backlog
  // (and fails the sustained test) instead of as refused ops, so no run
  // counts failures that depend on how far past capacity it went.
  service_options.max_queued = 0;
  std::unique_ptr<FileQuerySystem> system;
  std::unique_ptr<QueryService> service;
  auto set_up = [&]() -> bool {
    service.reset();
    system.reset();
    const double t0 = NowMs();
    auto s = std::make_unique<FileQuerySystem>(*schema);
    s->SetParallelism(1);  // the thread budget has no room for a pool
    s->SetCacheOptions(qof::CacheOptions::Enabled());
    for (int d = 0; d < kDocs; ++d) {
      if (!s->AddFile(DocName(d), initial_docs[d]).ok()) return false;
    }
    const double t1 = NowMs();
    if (!s->BuildIndexes(qof::IndexSpec::Full()).ok()) return false;
    const double t2 = NowMs();
    service = std::make_unique<QueryService>(s.get(), service_options);
    setup_s.push_back((NowMs() - t0) / 1000);
    build_s.push_back((t2 - t1) / 1000);
    system = std::move(s);
    return true;
  };
  for (int rep = 0; rep < kSetupRepsPerSide; ++rep) {
    if (!set_up()) return Outcome{false, 1, 1};
  }
  env.system = system.get();
  env.service = service.get();
  std::printf("bib-serve: %d files x %d references, %.2f MiB, %d workers, "
              "rates", kDocs, kRefsPerDoc, corpus_bytes / 1048576.0,
              kWorkers);
  for (double rate : kRates) std::printf(" %.0f", rate);
  std::printf(" ops/s, p99 limit %.0f ms, backlog limit %.0f ms\n",
              kP99LimitMs, kBacklogLimitMs);
  r->Set("space_amp", system->IndexBytes() / double(corpus_bytes), "ratio");

  for (int i = 0; i < kReaderSessions; ++i) {
    auto sid = service->OpenSession();
    if (!sid.ok()) return Outcome{false, 1, 1};
    env.readers.push_back(*sid);
  }
  auto frozen = service->OpenSession();
  auto mut = service->OpenSession();
  if (!frozen.ok() || !mut.ok()) return Outcome{false, 1, 1};
  env.frozen = *frozen;
  env.mutator = *mut;
  auto first = service->Query(env.frozen, kFrozenFql);
  if (!first.ok()) return Outcome{false, 1, 1};
  env.frozen_hash = HashAnswer(AnswerOf(*first));

  const qof::CacheStats cache0 = system->cache_stats();
  const qof::MaintainStats maintain0 = system->maintain_stats();
  const qof::ServiceStats service0 = service->stats();
  uint64_t updates = 0;
  std::vector<Rung> rungs;
  Tracer tracer;
  if (args.trace) {
    // Untraced half at the reference rate, then the same schedule traced.
    Schedule s = MakeSchedule(args.seed, kReferenceRate, args.seconds / 2,
                              templates, &updates);
    rungs.push_back(RunRung(env, s, kReferenceRate, nullptr, nullptr));
    r->Set("peak_rss_mb", PeakRssMb(), "MB");
    uint64_t op_base = 0;
    Rung traced = RunRung(env, s, kReferenceRate, &tracer, &op_base);
    r->Set("trace.overhead_frac",
           traced.overhead_base_ms / rungs[0].overhead_base_ms - 1, "ratio",
           traced.query_ms.size());
    rungs.push_back(traced);
  } else {
    for (size_t i = 0; i < std::size(kRates); ++i) {
      const double rate = kRates[i];
      Schedule s = MakeSchedule(args.seed + static_cast<uint64_t>(rate),
                                rate, args.seconds * kRungShare[i],
                                templates, &updates);
      rungs.push_back(RunRung(env, s, rate, nullptr, nullptr));
      // Memory at the reference load: the overloaded rung above it only
      // shows that the ladder ends.
      if (i == kReferenceRung) r->Set("peak_rss_mb", PeakRssMb(), "MB");
    }
  }
  const qof::CacheStats cache1 = system->cache_stats();
  const qof::MaintainStats maintain1 = system->maintain_stats();
  const qof::ServiceStats service1 = service->stats();

  Outcome out;
  double sustained = 0;
  std::printf("%8s %8s %8s %9s %9s %9s %9s %9s %9s %6s %s\n", "rate",
              "done/s", "ops", "q_p50", "q_p90", "q_p99", "upd_p50",
              "upd_p90", "drain", "rej", "sustained");
  const Rung& ref = rungs[args.trace ? 0 : kReferenceRung];
  for (const Rung& g : rungs) {
    out.attempted += g.attempted;
    out.failed += g.failed;
    if (g.inconsistent > 0) out.correct = false;
    std::vector<double> q = g.query_ms, u = g.update_ms;
    const bool ok = Sustained(g);
    // The measured throughput of the highest sustained rung.
    if (!args.trace && ok) sustained = g.completed_per_s;
    std::printf("%8.0f %8.1f %8llu %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %6llu "
                "%s\n",
                g.rate, g.completed_per_s,
                static_cast<unsigned long long>(g.attempted),
                Percentile(q, 0.5), Percentile(q, 0.9), Percentile(q, 0.99),
                Percentile(u, 0.5), Percentile(u, 0.9), g.drain_ms,
                static_cast<unsigned long long>(g.rejected),
                ok ? "yes" : "no");
  }
  for (auto [t, v] : ref.by_template) {
    const size_t count = v.size();
    std::printf("template %-20s n=%-5zu p50 %9.3f ms  p90 %9.3f ms\n",
                t < 0 ? "frozen" : templates[t].name.c_str(), count,
                Percentile(v, 0.5), Percentile(v, 0.9));
  }
  // End-to-end figures at the reference rate.
  // p50 / p90 are medians over windows (each holds enough ops for its
  // p90); p99 needs the whole rung's samples.
  std::vector<double> all = ref.query_ms;
  r->Set("query_p50_ms", WindowedPercentile(ref, 0.5), "ms", all.size());
  r->Set("query_p90_ms", WindowedPercentile(ref, 0.9), "ms", all.size());
  r->Set("query_p99_ms", Percentile(all, 0.99), "ms", all.size());
  SetTimings(r, "update", ref.update_ms);
  if (!args.trace) r->Set("ops_per_s", sustained, "1/s");
  std::vector<double> lag = ref.gen_lag_ms;
  r->Set("server.gen_lag_p99_ms", Percentile(lag, 0.99), "ms", lag.size());
  r->Set("server.rejected",
         double(service1.queries_rejected - service0.queries_rejected),
         "count");
  std::vector<double> compact;
  double dead = 0;
  size_t nupd = 0;
  for (const Rung& g : rungs) {
    compact.insert(compact.end(), g.compact_ms.begin(), g.compact_ms.end());
    dead += g.dead_frac_sum;
    nupd += g.update_ms.size();
  }
  r->Set("maintain.compact_ms", Median(compact), "ms", compact.size());
  r->Set("maintain.dead_bytes_frac", nupd ? dead / nupd : 0, "ratio", nupd);
  r->Set("maintain.bytes_reparsed_per_update",
         nupd ? (maintain1.bytes_reparsed - maintain0.bytes_reparsed) /
                    double(nupd)
              : 0,
         "B");
  const double plan_n = double(cache1.plan_hits - cache0.plan_hits +
                               cache1.plan_misses - cache0.plan_misses);
  const double eval_n = double(cache1.eval_hits - cache0.eval_hits +
                               cache1.eval_misses - cache0.eval_misses);
  r->Set("cache.plan_hit_ratio",
         plan_n > 0 ? (cache1.plan_hits - cache0.plan_hits) / plan_n : 0,
         "ratio");
  r->Set("cache.eval_hit_ratio",
         eval_n > 0 ? (cache1.eval_hits - cache0.eval_hits) / eval_n : 0,
         "ratio");
  r->Set("cache.eval_evictions",
         double(cache1.eval_evictions - cache0.eval_evictions), "count");
  r->Set("cache.invalidations",
         double(cache1.invalidations - cache0.invalidations), "count");
  r->Set("compiler.exact_frac",
         ref.exact_ops / double(std::max<size_t>(1, ref.strategy_ops)),
         "ratio");
  for (const std::string& st : Strategies()) {
    auto it = ref.strategy_count.find(st);
    r->Set("engine.strategy_share." + st,
           it == ref.strategy_count.end()
               ? 0
               : it->second / std::max<size_t>(1, ref.strategy_ops),
           "ratio");
  }
  if (args.trace) ReportTrace(tracer, args, r);

  // Final state: every query must answer as a fresh build over the final
  // documents does.
  service->Shutdown();
  auto fresh = std::make_unique<FileQuerySystem>(*schema);
  fresh->SetParallelism(1);
  bool built = true;
  for (int d = 0; d < kDocs; ++d) {
    built = built && fresh->AddFile(DocName(d), env.docs[d]).ok();
  }
  if (!built || !fresh->BuildIndexes(qof::IndexSpec::Full()).ok()) {
    return Outcome{false, out.attempted + 1, out.failed + 1};
  }
  std::vector<std::string> fqls = OpStream(&templates, 0, 0).AllFql();
  fqls.push_back(kFrozenFql);
  for (const std::string& fql : fqls) {
    ++out.attempted;
    auto live = system->Execute(fql);
    auto want = fresh->Execute(fql);
    if (!live.ok() || !want.ok() ||
        TextAnswer(*system, *live) != TextAnswer(*fresh, *want)) {
      ++out.failed;
      out.correct = false;
      std::printf("MISMATCH final state: %s\n", fql.c_str());
    }
  }
  r->Set("failed_frac", out.failed / double(out.attempted), "ratio",
         out.attempted);
  fresh.reset();
  for (int rep = 0; rep < kSetupRepsPerSide; ++rep) {
    if (!set_up()) return Outcome{false, out.attempted, out.failed};
  }
  r->Set("setup_s", Median(setup_s), "s", setup_s.size());
  r->Set("engine.build_indexes_s", Median(build_s), "s", build_s.size());
  return out;
}

}  // namespace qofbench
