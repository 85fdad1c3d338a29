#include "qof/engine/system.h"

#include <algorithm>
#include <chrono>

#include "qof/engine/baseline.h"
#include "qof/engine/condition_eval.h"
#include "qof/engine/index_io.h"
#include "qof/engine/join.h"
#include "qof/engine/two_phase.h"
#include "qof/ir/ir.h"
#include "qof/store/paged_file.h"
#include "qof/store/store_index_source.h"
#include "qof/store/store_writer.h"

namespace qof {
namespace {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  uint64_t Micros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Decorates a governance error with partial-progress stats so a caller
/// that hit a limit knows how far execution got. Other codes pass through.
Status WithProgress(const Status& status, const char* phase,
                    uint64_t bytes_scanned, const ExecContext* ctx) {
  if (!IsGovernanceError(status)) return status;
  std::string msg = status.message() + " [" + phase + ": " +
                    std::to_string(bytes_scanned) + " bytes scanned";
  if (ctx != nullptr && ctx->regions_charged() > 0) {
    msg += ", " + std::to_string(ctx->regions_charged()) +
           " index regions materialized";
  }
  msg += "]";
  return Status(status.code(), std::move(msg));
}

}  // namespace

std::vector<std::string> QueryResult::RenderedValues() const {
  // Rendering projections needs no store: projected values are fully
  // materialized (object refs were resolved during navigation).
  ObjectStore empty;
  std::vector<std::string> out;
  out.reserve(values.size());
  for (const Value& v : values) out.push_back(FlattenText(empty, v));
  std::sort(out.begin(), out.end());
  return out;
}

FileQuerySystem::FileQuerySystem(StructuringSchema schema)
    : schema_(std::move(schema)), full_rig_(DeriveFullRig(schema_)) {
  const std::string& view = schema_.view_name();
  view_aliases_.insert(view);
  view_aliases_.insert(view + "s");
  if (!view.empty() && view.back() == 'y') {
    view_aliases_.insert(view.substr(0, view.size() - 1) + "ies");
  }
}

Status FileQuerySystem::AddFile(std::string name, std::string_view text,
                                const QueryOptions& options) {
  ExecContext governed(options);
  const ExecContext* ctx = governed.active() ? &governed : nullptr;
  std::lock_guard<std::mutex> lock(state_mu_);
  CowIfPinnedLocked();
  if (maintainer_ != nullptr) {
    return maintainer_
        ->AddDocument(std::move(name), text, EnsurePool(parallelism_), ctx)
        .status();
  }
  if (ctx != nullptr) QOF_RETURN_IF_ERROR(ctx->Check());
  return corpus_->AddDocument(std::move(name), text).status();
}

Status FileQuerySystem::UpdateFile(std::string_view name,
                                   std::string_view text,
                                   const QueryOptions& options) {
  ExecContext governed(options);
  const ExecContext* ctx = governed.active() ? &governed : nullptr;
  std::lock_guard<std::mutex> lock(state_mu_);
  CowIfPinnedLocked();
  if (maintainer_ != nullptr) {
    return maintainer_
        ->UpdateDocument(name, text, EnsurePool(parallelism_), ctx)
        .status();
  }
  if (ctx != nullptr) QOF_RETURN_IF_ERROR(ctx->Check());
  return corpus_->ReplaceDocument(name, text).status();
}

Status FileQuerySystem::RemoveFile(std::string_view name,
                                   const QueryOptions& options) {
  ExecContext governed(options);
  const ExecContext* ctx = governed.active() ? &governed : nullptr;
  std::lock_guard<std::mutex> lock(state_mu_);
  CowIfPinnedLocked();
  if (maintainer_ != nullptr) {
    return maintainer_->RemoveDocument(name, EnsurePool(parallelism_), ctx);
  }
  if (ctx != nullptr) QOF_RETURN_IF_ERROR(ctx->Check());
  return corpus_->RemoveDocument(name).status();
}

Status FileQuerySystem::CompactIndexes() {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (maintainer_ == nullptr) {
    return Status::InvalidArgument(
        "indexes not built; nothing to compact");
  }
  // Compaction rebases every offset in place — readers pinned to the
  // pre-compaction layout must keep their own copy.
  CowIfPinnedLocked();
  return maintainer_->Compact(EnsurePool(parallelism_));
}

void FileQuerySystem::SetMaintainOptions(const MaintainOptions& options) {
  std::lock_guard<std::mutex> lock(state_mu_);
  maintain_options_ = options;
  if (maintainer_ != nullptr) maintainer_->options() = options;
}

MaintainStats FileQuerySystem::maintain_stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return maintainer_ != nullptr ? maintainer_->stats() : MaintainStats{};
}

void FileQuerySystem::ResetMaintainer(uint64_t generation) {
  maintainer_ = std::make_unique<IndexMaintainer>(
      &schema_, corpus_.get(), built_.get(), spec_, maintain_options_);
  maintainer_->set_generation(generation);
}

void FileQuerySystem::CowIfPinnedLocked() {
  // Snapshots are the only other holders of these shared_ptrs, and they
  // are only created under state_mu_ — so use_count == 1 means no reader
  // can observe the in-place mutation about to happen. (A snapshot
  // dropping concurrently can at worst make the count read high, causing
  // one spurious clone — safe.)
  bool corpus_pinned = corpus_.use_count() > 1;
  bool built_pinned = built_ != nullptr && built_.use_count() > 1;
  if (!corpus_pinned && !built_pinned) return;
  corpus_ = std::make_shared<Corpus>(corpus_->Clone());
  if (built_ != nullptr) built_ = std::make_shared<BuiltIndexes>(*built_);
  // The clone is the same logical state at a new address; the maintainer
  // keeps all its counters and just repoints.
  if (maintainer_ != nullptr) {
    maintainer_->Retarget(corpus_.get(), built_.get());
  }
}

ThreadPool* FileQuerySystem::EnsurePool(int threads) {
  threads = EffectiveParallelism(threads);
  if (threads <= 1) return nullptr;
  if (pool_ == nullptr || pool_->size() != threads) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  return pool_.get();
}

Status FileQuerySystem::BuildIndexes(const IndexSpec& spec) {
  std::lock_guard<std::mutex> lock(state_mu_);
  ThreadPool* pool = EnsurePool(parallelism_);
  QOF_ASSIGN_OR_RETURN(BuiltIndexes built,
                       qof::BuildIndexes(schema_, *corpus_, spec, pool));
  // Publish-by-swap: snapshots pinning the previous build keep it alive
  // through their shared_ptrs; the corpus itself was only read.
  built_ = std::make_shared<BuiltIndexes>(std::move(built));
  spec_ = spec;
  compiler_ = std::make_shared<const QueryCompiler>(
      &full_rig_, spec.IndexedNames(schema_), schema_.view_name(),
      spec.within);
  store_.reset();
  index_source_ = "built";
  ++builds_;
  ResetMaintainer(/*generation=*/0);
  // A rebuild replaces the compiler: plan-cache entries (keyed by FQL
  // text alone) may describe plans for the old index spec — drop them
  // all. The eval cache only advances its epoch: the `build` component
  // makes the new epoch unique, and entries pinned by live snapshots of
  // the old build keep serving those snapshots.
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  if (eval_cache_ != nullptr) {
    eval_cache_->AdvanceEpoch(CurrentEpochUnlocked());
  }
  return Status::OK();
}

void FileQuerySystem::AddViewAlias(std::string alias) {
  view_aliases_.insert(std::move(alias));
}

Status FileQuerySystem::CheckView(const std::string& view) const {
  if (view_aliases_.count(view) > 0) return Status::OK();
  return Status::InvalidArgument("unknown view '" + view +
                                 "' (expected " + schema_.view_name() +
                                 ")");
}

Result<QueryPlan> FileQuerySystem::Plan(std::string_view fql) const {
  QOF_ASSIGN_OR_RETURN(SelectQuery query, ParseFql(fql));
  QOF_RETURN_IF_ERROR(CheckView(query.view));
  if (compiler_ == nullptr) {
    return Status::InvalidArgument(
        "indexes not built; call BuildIndexes() first");
  }
  return compiler_->Compile(query);
}

Result<std::string> FileQuerySystem::Explain(std::string_view fql) const {
  return ExplainPlan(fql, nullptr);
}

Result<std::string> FileQuerySystem::ExplainPlan(
    std::string_view fql, std::vector<PassTrace>* trace) const {
  QOF_ASSIGN_OR_RETURN(QueryPlan plan, Plan(fql));
  std::string out = "query:     " + plan.query.ToString() + "\n";
  if (plan.trivially_empty) {
    out += "strategy:  empty (Prop. 3.3: no conforming file has results)\n";
    return out;
  }
  if (!plan.view_indexed) {
    out += "strategy:  baseline (view region not indexed)\n";
    return out;
  }
  const bool wants_projection = plan.query.IsProjection();
  std::string strategy;
  if (plan.exact && (!wants_projection || plan.projection != nullptr)) {
    strategy = "index-only (exact, no file access)";
  } else if (plan.index_join && !wants_projection) {
    strategy = "index-join (attribute text reads only)";
  } else {
    strategy = "two-phase (parse candidates, filter in database)";
  }
  out += "strategy:  " + strategy + "\n";

  // The estimate is the one the executor plans with: the candidates root
  // of the lowered program after the same passes a query runs.
  IrProgram ir =
      LowerToIr(plan.candidates.get(), plan.projection.get(),
                plan.join_lhs_attrs.get(), plan.join_rhs_attrs.get());
  RunPasses(&ir, ir_options_, &built_->regions, &built_->words,
            &compiler_->partial_rig(), trace);
  out += "candidates: " + plan.candidates->ToString() + "\n";
  out += "            " + DescribeCost(ir.nodes[ir.candidates]) + "\n";
  if (plan.projection != nullptr) {
    out += "projection: " + plan.projection->ToString() + "\n";
  }
  if (plan.index_join) {
    out += "join lhs:   " + plan.join_lhs_attrs->ToString() + "\n";
    out += "join rhs:   " + plan.join_rhs_attrs->ToString() + "\n";
  }
  out += std::string("exact:      ") + (plan.exact ? "yes" : "no") + "\n";
  for (const std::string& note : plan.notes) {
    out += "note:       " + note + "\n";
  }
  return out;
}

Result<std::string> FileQuerySystem::ExplainQuery(
    std::string_view fql) const {
  std::vector<PassTrace> trace;
  QOF_ASSIGN_OR_RETURN(std::string out, ExplainPlan(fql, &trace));
  // Empty and baseline plans lower nothing.
  if (trace.empty()) return out;
  out += "\nIR pipeline:\n";
  for (const PassTrace& step : trace) {
    out += "-- after " + step.name + " --\n" + step.dump;
  }
  return out;
}

Result<QueryResult> FileQuerySystem::Execute(std::string_view fql,
                                             ExecutionMode mode,
                                             const QueryOptions& options) {
  // The live state, viewed like a snapshot for the duration of the query
  // (no eval-cache pin: nothing can mutate it meanwhile — see the
  // concurrency contract above AcquireSnapshot).
  IndexSnapshot state;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    state.corpus = corpus_;
    state.built = built_;
    state.compiler = compiler_;
    state.epoch = CurrentEpochUnlocked();
    if (maintainer_ != nullptr) state.maintain = maintainer_->stats();
  }
  // One pool serves both parallel stages: two-phase candidate
  // verification (sized by the system parallelism knob) and morsel-driven
  // IR execution (sized by the query's exec_workers request) — composed
  // by taking the larger of the two.
  ThreadPool* pool =
      EnsurePool(std::max(EffectiveParallelism(parallelism_),
                          EffectiveParallelism(options.exec_workers)));
  return RunQuery(state, fql, mode, options, pool);
}

Result<SnapshotRef> FileQuerySystem::AcquireSnapshot() {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (built_ == nullptr || compiler_ == nullptr) {
    return Status::InvalidArgument(
        "indexes not built; snapshots require BuildIndexes() first");
  }
  auto snapshot = std::make_unique<IndexSnapshot>();
  snapshot->corpus = corpus_;
  snapshot->built = built_;
  snapshot->compiler = compiler_;
  snapshot->epoch = CurrentEpochUnlocked();
  snapshot->maintain = maintainer_->stats();
  // Pin the epoch so eval-cache entries keyed under it survive later
  // mutations; the deleter unpins when the last reference drops. The
  // deleter captures the cache by shared_ptr: even if SetCacheOptions
  // swaps the system's cache meanwhile, the unpin reaches the instance
  // that was pinned.
  std::shared_ptr<EvalCache> cache = eval_cache_;
  if (cache != nullptr) cache->Pin(snapshot->epoch);
  return SnapshotRef(snapshot.release(),
                     [cache](const IndexSnapshot* s) {
                       if (cache != nullptr) cache->Unpin(s->epoch);
                       delete s;
                     });
}

Result<QueryResult> FileQuerySystem::ExecuteOnSnapshot(
    const IndexSnapshot& snapshot, std::string_view fql,
    ExecutionMode mode, const QueryOptions& options) {
  // Snapshot queries run concurrently, so they cannot share the system
  // pool (ParallelFor is not reentrant across callers); a query asking
  // for workers gets its own short-lived pool instead.
  const int exec_workers = EffectiveParallelism(options.exec_workers);
  std::unique_ptr<ThreadPool> query_pool;
  if (exec_workers > 1) {
    query_pool = std::make_unique<ThreadPool>(exec_workers);
  }
  return RunQuery(snapshot, fql, mode, options, query_pool.get());
}

Result<QueryResult> FileQuerySystem::RunQuery(const IndexSnapshot& state,
                                              std::string_view fql,
                                              ExecutionMode mode,
                                              const QueryOptions& options,
                                              ThreadPool* pool) {
  // Parse and (when present) compile are both served by a hit. Plans
  // depend only on the schema and the index spec, never on the indexed
  // data, so mutations need not invalidate them; the build stamp on each
  // entry keeps a state that outlived a rebuild from using plans compiled
  // by the newer compiler (and vice versa). PlanCache is internally
  // locked, so concurrent snapshot queries can share it.
  PlanCache* plans = plan_cache_.get();
  std::string key;
  std::shared_ptr<const PlanCache::Entry> hit;
  if (plans != nullptr) {
    key.assign(fql);
    hit = plans->Lookup(key);
    if (hit != nullptr && hit->build != state.epoch.build) hit = nullptr;
  }
  SelectQuery query;
  std::shared_ptr<const QueryPlan> cached_plan;
  if (hit != nullptr) {
    query = hit->query;
    cached_plan = hit->plan;
  } else {
    QOF_ASSIGN_OR_RETURN(query, ParseFql(fql));
    // Publish the parse right away (plan still null); the ladder replaces
    // the entry with the compiled plan attached once it compiles — which
    // baseline-mode executions never do.
    if (plans != nullptr) {
      auto entry = std::make_shared<PlanCache::Entry>();
      entry->query = query;
      entry->build = state.epoch.build;
      plans->Insert(key, std::move(entry));
    }
  }
  // Per-query byte accounting: the corpus may be shared with concurrent
  // queries, so this thread's scanning goes into a local counter. The
  // parallel stages (IrExecutor, RunTwoPhase) re-install this thread's
  // scope on every pool worker, so it covers every scan of the query.
  std::atomic<uint64_t> scanned{0};
  Corpus::ScanCounterScope scope(&scanned);
  return RunLadder(state, query, mode, options, pool, scanned,
                   plans != nullptr ? &key : nullptr,
                   std::move(cached_plan));
}

void FileQuerySystem::SetCacheOptions(const CacheOptions& options) {
  cache_options_ = options;
  plan_cache_ = options.enable_plan_cache
                    ? std::make_unique<PlanCache>(options.max_plans)
                    : nullptr;
  eval_cache_ = options.enable_eval_cache
                    ? std::make_shared<EvalCache>(options.max_cached_regions,
                                                  options.inject_stale)
                    : nullptr;
}

CacheStats FileQuerySystem::cache_stats() const {
  CacheStats merged;
  if (plan_cache_ != nullptr) {
    CacheStats p = plan_cache_->stats();
    merged.plan_hits = p.plan_hits;
    merged.plan_misses = p.plan_misses;
    merged.plan_evictions = p.plan_evictions;
    merged.invalidations += p.invalidations;
  }
  if (eval_cache_ != nullptr) {
    CacheStats e = eval_cache_->stats();
    merged.eval_hits = e.eval_hits;
    merged.eval_misses = e.eval_misses;
    merged.eval_evictions = e.eval_evictions;
    merged.eval_regions_cached = e.eval_regions_cached;
    merged.invalidations += e.invalidations;
  }
  return merged;
}

Result<QueryResult> FileQuerySystem::RunBaselinePlan(
    const Corpus& corpus, const SelectQuery& query, const ExecContext* ctx,
    bool soft_fail, const std::atomic<uint64_t>& scanned) {
  Timer timer;
  QueryResult result;
  result.stats.corpus_bytes = corpus.size();
  ObjectStore store;
  QOF_ASSIGN_OR_RETURN(
      BaselineResult baseline,
      RunBaseline(schema_, corpus, query, full_rig_, &store, ctx,
                  soft_fail));
  result.regions = std::move(baseline.regions);
  result.values = std::move(baseline.projected);
  result.stats.strategy = "baseline";
  result.stats.exact = !baseline.truncated;
  result.stats.truncated = baseline.truncated;
  if (baseline.truncated) {
    result.stats.notes.push_back("result truncated: " +
                                 baseline.interrupted.message());
  }
  result.stats.objects_built = baseline.objects_built;
  result.stats.results = result.regions.size();
  result.stats.bytes_scanned = scanned.load(std::memory_order_relaxed);
  result.stats.micros = timer.Micros();
  return result;
}

Result<QueryResult> FileQuerySystem::RunLadder(
    const IndexSnapshot& state, const SelectQuery& query, ExecutionMode mode,
    const QueryOptions& options, ThreadPool* pool,
    const std::atomic<uint64_t>& scanned, const std::string* plan_key,
    std::shared_ptr<const QueryPlan> cached_plan) {
  QOF_RETURN_IF_ERROR(CheckView(query.view));

  const Corpus& corpus = *state.corpus;
  auto bytes_scanned = [&scanned] {
    return scanned.load(std::memory_order_relaxed);
  };

  // Arm governance. With no limits set `ctx` stays null and every checked
  // path below takes its pre-governance fast path.
  ExecContext governed(options);
  const ExecContext* ctx = nullptr;
  if (governed.active()) {
    governed.set_scanned_bytes_counter(&scanned);
    ctx = &governed;
  }
  // Layers without an explicit ExecContext* — the store's buffer pool on
  // a page miss — pick the context up thread-locally, so a governed
  // query's deadline and cancellation reach into the disk tier.
  ExecContext::ThreadScope thread_scope(ctx);

  // The baseline needs no indices at all.
  if (mode == ExecutionMode::kBaseline) {
    auto out =
        RunBaselinePlan(corpus, query, ctx, options.soft_fail, scanned);
    if (!out.ok()) {
      return WithProgress(out.status(), "baseline", bytes_scanned(), ctx);
    }
    return out;
  }

  Timer timer;
  QueryResult result;
  result.stats.corpus_bytes = corpus.size();

  if (state.compiler == nullptr || state.built == nullptr) {
    return Status::InvalidArgument(
        "indexes not built; call BuildIndexes() first (or use "
        "ExecutionMode::kBaseline)");
  }
  std::shared_ptr<const QueryPlan> plan_ptr = std::move(cached_plan);
  if (plan_ptr == nullptr) {
    QOF_ASSIGN_OR_RETURN(QueryPlan compiled,
                         state.compiler->Compile(query));
    plan_ptr = std::make_shared<const QueryPlan>(std::move(compiled));
    if (plan_key != nullptr && plan_cache_ != nullptr) {
      auto entry = std::make_shared<PlanCache::Entry>();
      entry->query = query;
      entry->build = state.epoch.build;
      entry->plan = plan_ptr;
      plan_cache_->Insert(*plan_key, std::move(entry));
    }
  }
  const QueryPlan& plan = *plan_ptr;
  result.stats.notes = plan.notes;
  if (state.maintain.generation > 0) {
    const MaintainStats& ms = state.maintain;
    result.stats.notes.push_back(
        "indexes maintained incrementally: generation " +
        std::to_string(ms.generation) + ", " +
        std::to_string(ms.tombstones) + " tombstone(s), " +
        std::to_string(ms.compactions) + " compaction(s)");
  }

  if (plan.trivially_empty) {
    result.stats.strategy = "empty";
    result.stats.exact = true;
    result.stats.micros = timer.Micros();
    return result;
  }

  // Baseline fallback shared by the view-not-indexed case and the bottom
  // rung of the degradation ladder: the query is already parsed and
  // view-checked, and the accumulated notes (ending in the fallback
  // decision) come before any notes the plan itself adds.
  auto run_baseline_fallback = [&]() -> Result<QueryResult> {
    auto fallback =
        RunBaselinePlan(corpus, query, ctx, options.soft_fail, scanned);
    if (!fallback.ok()) {
      return WithProgress(fallback.status(), "baseline", bytes_scanned(),
                          ctx);
    }
    fallback->stats.notes.insert(fallback->stats.notes.begin(),
                                 result.stats.notes.begin(),
                                 result.stats.notes.end());
    return fallback;
  };

  if (!plan.view_indexed) {
    if (mode == ExecutionMode::kIndexOnly ||
        mode == ExecutionMode::kTwoPhase) {
      return Status::InvalidArgument(
          "view region is not indexed; only baseline execution can "
          "answer this query");
    }
    result.stats.notes.push_back("auto: baseline (view not indexed)");
    return run_baseline_fallback();
  }

  const bool wants_projection = query.IsProjection();
  const bool index_serves_projection =
      !wants_projection || plan.projection != nullptr;

  // Graceful degradation (kAuto only): a corrupt or missing index
  // mid-plan (kInternal / kNotFound) or a region budget blown by
  // index-side materialization falls back one rung of the ladder
  //   index strategy -> two-phase -> baseline
  // with a note naming the trigger. Deadline, cancellation and the byte
  // budget never degrade: a cheaper strategy cannot refund wall-clock
  // time or bytes already scanned.
  auto degradable = [&](const Status& status) {
    if (mode != ExecutionMode::kAuto) return false;
    if (status.code() == StatusCode::kInternal ||
        status.code() == StatusCode::kNotFound) {
      return true;
    }
    return status.IsBudgetExhausted() && ctx != nullptr &&
           ctx->regions_exhausted();
  };
  auto degrade_to = [&](const char* rung, const Status& status) {
    result.stats.notes.push_back(std::string("degraded to ") + rung + ": " +
                                 status.message());
    governed.ResetForFallback();
  };

  // Lower the plan's expression legs into one dataflow program, optimize
  // it, and evaluate nodes at most once per query with shared slots
  // across the candidate/projection/join roots.
  result.stats.engine = "ir";
  IrProgram ir = LowerToIr(plan.candidates.get(), plan.projection.get(),
                           plan.join_lhs_attrs.get(),
                           plan.join_rhs_attrs.get());
  RunPasses(&ir, ir_options_, &state.built->regions, &state.built->words,
            &state.compiler->partial_rig());
  // The eval cache is the system's current instance; entries keyed under
  // a snapshot's pinned epoch are retained as long as the snapshot lives.
  IrExecutor ir_exec(&ir, &state.built->regions, &state.built->words,
                     &corpus, ctx, eval_cache_.get(), state.epoch);
  ir_exec.SetJoinFn([&corpus](const RegionSet& cands, const RegionSet& lhs,
                              const RegionSet& rhs) {
    return RunIndexJoin(corpus, cands, lhs, rhs);
  });
  // Morsel-driven execution: ready IR nodes (and large node-internal
  // folds/scans) dispatch onto `pool`. Results are byte-identical at
  // every worker count — see DESIGN.md §5k.
  const int exec_workers = EffectiveParallelism(options.exec_workers);
  if (pool != nullptr && exec_workers > 1) {
    ir_exec.SetThreadPool(pool, exec_workers);
    result.stats.exec_workers = exec_workers;
  }
  if (ir_options_.morsel_grain != 0) {
    ir_exec.set_morsel_grain(ir_options_.morsel_grain);
  }
  if (ir_options_.inject_racy_merge) ir_exec.set_inject_racy_merge(true);

  // Phase 1: evaluate the candidate expression on the indices. With the
  // eval cache on, every composite subexpression is first looked up by
  // its serialized normal form under the state's index epoch.
  RegionSet candidates;
  {
    auto cand = ir_exec.EvaluateRoot(ir.candidates, &result.stats.algebra);
    if (!cand.ok()) {
      // No index-backed rung can run without candidates (two-phase needs
      // them too): kAuto degrades straight to the baseline.
      if (!degradable(cand.status())) {
        return WithProgress(cand.status(), "phase-1 candidates",
                            bytes_scanned(), ctx);
      }
      degrade_to("baseline", cand.status());
      return run_baseline_fallback();
    }
    candidates = std::move(*cand);
  }
  result.stats.candidates = candidates.size();

  bool index_rung_degraded = false;
  if (plan.exact && index_serves_projection &&
      mode != ExecutionMode::kTwoPhase) {
    // Full computation on the indexing engine (§5): no parsing at all.
    // Built into locals and committed only on success, so a degradation
    // leaves `result` clean for the next rung.
    Status rung = Status::OK();
    std::vector<Value> values;
    if (wants_projection) {
      // The kProject root evaluates the attribute expression and keeps
      // the attributes within candidates, with the candidate root served
      // from its memoized slot.
      Result<RegionSet> within_r =
          ir_exec.EvaluateRoot(ir.project, &result.stats.algebra);
      if (!within_r.ok()) {
        rung = within_r.status();
      } else {
        for (const Region& r : *within_r) {
          values.push_back(
              Value::Str(std::string(corpus.ScanText(r.start, r.end))));
        }
      }
    }
    if (rung.ok()) {
      result.regions.assign(candidates.begin(), candidates.end());
      if (wants_projection) {
        result.values = std::move(values);
        result.stats.notes.push_back(
            "projection served by region index (attribute text reads "
            "only)");
      }
      result.stats.strategy = "index-only";
      result.stats.exact = true;
      result.stats.results =
          wants_projection ? result.values.size() : result.regions.size();
      result.stats.bytes_scanned = bytes_scanned();
      result.stats.op_timings = ir_exec.timings();
      result.stats.micros = timer.Micros();
      return result;
    }
    if (!degradable(rung)) {
      return WithProgress(rung, "index-only", bytes_scanned(), ctx);
    }
    degrade_to("two-phase", rung);
    index_rung_degraded = true;
  }

  if (mode == ExecutionMode::kIndexOnly) {
    return Status::InvalidArgument(
        "plan is not exact (" + std::string(plan.exact ? "projection" :
        "candidates") + " need the database); index-only mode cannot "
        "answer this query");
  }

  // §5.2 index-assisted join: compare attribute text without parsing.
  // Skipped once an index rung already degraded — the join reads the same
  // indexes that just failed.
  if (!index_rung_degraded && plan.index_join && !wants_projection &&
      mode != ExecutionMode::kTwoPhase) {
    Status rung = Status::OK();
    std::vector<Region> joined;
    // The kJoin root evaluates both attribute legs (sharing any
    // subexpression the candidates already computed) and runs the join
    // through the injected callback.
    auto out = ir_exec.EvaluateRoot(ir.join, &result.stats.algebra);
    if (!out.ok()) {
      rung = out.status();
    } else {
      joined.assign(out->begin(), out->end());
    }
    if (rung.ok()) {
      result.regions = std::move(joined);
      result.stats.strategy = "index-join";
      result.stats.exact = true;
      result.stats.results = result.regions.size();
      result.stats.bytes_scanned = bytes_scanned();
      result.stats.op_timings = ir_exec.timings();
      result.stats.micros = timer.Micros();
      return result;
    }
    if (!degradable(rung)) {
      return WithProgress(rung, "index-join", bytes_scanned(), ctx);
    }
    degrade_to("two-phase", rung);
  }

  // Phase 2 (§6.2): parse candidates, filter in the database.
  ObjectStore store;
  auto two_phase =
      RunTwoPhase(schema_, corpus, plan, candidates, full_rig_, &store, pool,
                  ctx, options.soft_fail);
  if (!two_phase.ok()) {
    if (!degradable(two_phase.status())) {
      return WithProgress(two_phase.status(), "two-phase",
                          bytes_scanned(), ctx);
    }
    degrade_to("baseline", two_phase.status());
    return run_baseline_fallback();
  }
  result.regions = std::move(two_phase->regions);
  result.values = std::move(two_phase->projected);
  result.stats.strategy = "two-phase";
  // After filtering the answer is exact — unless soft-fail truncated it
  // to the verified prefix.
  result.stats.exact = !two_phase->truncated;
  result.stats.truncated = two_phase->truncated;
  if (two_phase->truncated) {
    result.stats.notes.push_back("result truncated: " +
                                 two_phase->interrupted.message());
  }
  result.stats.objects_built = two_phase->candidates_parsed;
  result.stats.results =
      wants_projection ? result.values.size() : result.regions.size();
  result.stats.bytes_scanned = bytes_scanned();
  result.stats.op_timings = ir_exec.timings();
  result.stats.micros = timer.Micros();
  return result;
}

uint64_t FileQuerySystem::IndexBytes() const {
  if (built_ == nullptr) return 0;
  return built_->regions.ApproxBytes() + built_->words.ApproxBytes();
}

Result<std::string> FileQuerySystem::ExportIndexes() {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (built_ == nullptr) {
    return Status::InvalidArgument("indexes not built; nothing to export");
  }
  if (corpus_->fragmented()) {
    // Blob offsets must describe a dense layout; folding the tombstones
    // away also makes the export canonical (byte-comparable to a fresh
    // build's). Same rules as CompactIndexes (whose lock we already
    // hold): readers pinned to the fragmented layout keep their copy.
    CowIfPinnedLocked();
    QOF_RETURN_IF_ERROR(maintainer_->Compact(EnsurePool(parallelism_)));
  }
  // Serialization walks every instance and posting list; a disk-backed
  // index must be fully paged in first (no-ops when already resident).
  QOF_RETURN_IF_ERROR(built_->regions.EnsureResident());
  QOF_RETURN_IF_ERROR(built_->words.EnsureResident());
  return SerializeIndexes(*built_, spec_, *corpus_,
                          maintainer_ != nullptr ? maintainer_->generation()
                                                 : 0);
}

Status FileQuerySystem::SaveStore(const std::string& path,
                                  uint32_t page_size) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (built_ == nullptr) {
    return Status::InvalidArgument("indexes not built; nothing to save");
  }
  if (spec_.word_options.token_filter) {
    return Status::InvalidArgument(
        "word-index token filters are code and cannot be serialized; "
        "rebuild instead of loading");
  }
  if (corpus_->fragmented()) {
    // Store offsets must describe a dense layout, same as ExportIndexes.
    CowIfPinnedLocked();
    QOF_RETURN_IF_ERROR(maintainer_->Compact(EnsurePool(parallelism_)));
  }
  // The writer walks every instance and posting list directly.
  QOF_RETURN_IF_ERROR(built_->regions.EnsureResident());
  QOF_RETURN_IF_ERROR(built_->words.EnsureResident());
  std::string spec_bytes;
  EncodeIndexSpec(spec_, &spec_bytes);
  QOF_ASSIGN_OR_RETURN(std::string doc_table, EncodeDocTable(*corpus_));
  StoreWriterInput input;
  input.regions = &built_->regions;
  input.words = &built_->words;
  input.spec_bytes = spec_bytes;
  input.doc_table_bytes = doc_table;
  input.generation =
      maintainer_ != nullptr ? maintainer_->generation() : 0;
  input.doc_count = built_->documents;
  QOF_ASSIGN_OR_RETURN(std::string image, BuildStoreImage(input, page_size));
  return WriteFileBytes(path, image);
}

Status FileQuerySystem::OpenStore(const std::string& path,
                                  PagedStoreOptions options) {
  std::lock_guard<std::mutex> lock(state_mu_);
  // Staged like ImportIndexes: a damaged or stale store must leave the
  // installed indexes fully intact and queryable. The staleness check
  // reads the corpus's memoized fingerprints: only the first open of a
  // corpus hashes its text.
  QOF_ASSIGN_OR_RETURN(std::shared_ptr<const PagedStore> store,
                       PagedStore::Open(path, options));
  QOF_ASSIGN_OR_RETURN(std::string spec_bytes,
                       store->ReadSection(StoreSection::kSpec));
  QOF_ASSIGN_OR_RETURN(IndexSpec spec, DecodeIndexSpec(spec_bytes));
  QOF_ASSIGN_OR_RETURN(std::string doc_bytes,
                       store->ReadSection(StoreSection::kDocTable));
  QOF_ASSIGN_OR_RETURN(std::vector<DocFingerprint> docs,
                       DecodeDocTableBytes(doc_bytes));
  if (corpus_->fragmented()) {
    return Status::InvalidArgument(
        "corpus has tombstoned spans; compact before opening a store");
  }
  std::vector<std::string> stale = DiagnoseStaleDocs(docs, *corpus_);
  if (!stale.empty()) {
    return Status::InvalidArgument("store does not match the corpus: " +
                                   FormatStaleDocs(stale));
  }
  auto built = std::make_shared<BuiltIndexes>();
  // Register names/counts from the dictionaries; instances and posting
  // lists stay on disk until a query touches them.
  QOF_RETURN_IF_ERROR(built->regions.AttachSource(
      std::make_shared<StoreRegionSource>(store)));
  built->words =
      WordIndex::FromEntries({}, spec.word_options.fold_case);
  built->words.AttachSource(std::make_shared<StorePostingSource>(store));
  built->documents = store->meta().doc_count;
  auto compiler = std::make_shared<const QueryCompiler>(
      &full_rig_, spec.IndexedNames(schema_), schema_.view_name(),
      spec.within);
  // Commit: nothing past this point can fail.
  spec_ = std::move(spec);
  built_ = std::move(built);
  compiler_ = std::move(compiler);
  store_ = store;
  index_source_ = "paged-store";
  ++builds_;
  ResetMaintainer(store->meta().generation);
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  if (eval_cache_ != nullptr) {
    eval_cache_->AdvanceEpoch(CurrentEpochUnlocked());
  }
  return Status::OK();
}

FileQuerySystem::IndexStats FileQuerySystem::index_stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  IndexStats stats;
  stats.built = built_ != nullptr;
  stats.source = index_source_;
  stats.generation =
      maintainer_ != nullptr ? maintainer_->generation() : 0;
  stats.disk_resident =
      built_ != nullptr && (built_->regions.disk_resident() ||
                            built_->words.disk_resident());
  if (store_ != nullptr) stats.pool = store_->pool_stats();
  return stats;
}

Status FileQuerySystem::ImportIndexes(std::string_view blob) {
  std::lock_guard<std::mutex> lock(state_mu_);
  // Stage everything the import will install before touching any member:
  // a corrupt or stale blob (or an injected index_io fault) must leave
  // previously installed indexes, spec, compiler and maintainer exactly
  // as they were — still queryable.
  struct Staged {
    std::shared_ptr<BuiltIndexes> built;
    std::shared_ptr<const QueryCompiler> compiler;
    uint64_t generation = 0;
  } staged;
  {
    QOF_ASSIGN_OR_RETURN(SerializedIndexes loaded,
                         DeserializeIndexes(blob, *corpus_));
    staged.built = std::make_shared<BuiltIndexes>(std::move(loaded.indexes));
    staged.compiler = std::make_shared<const QueryCompiler>(
        &full_rig_, loaded.spec.IndexedNames(schema_), schema_.view_name(),
        loaded.spec.within);
    staged.generation = loaded.generation;
    // Commit: nothing past this point can fail.
    spec_ = std::move(loaded.spec);
  }
  built_ = std::move(staged.built);
  compiler_ = std::move(staged.compiler);
  store_.reset();
  index_source_ = "blob-v3";
  ++builds_;
  ResetMaintainer(staged.generation);
  // Same reasoning as BuildIndexes: plans may describe the old spec —
  // clear the plan cache; the eval cache advances to the new build's
  // epoch, keeping only entries pinned by live snapshots.
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  if (eval_cache_ != nullptr) {
    eval_cache_->AdvanceEpoch(CurrentEpochUnlocked());
  }
  return Status::OK();
}

}  // namespace qof
