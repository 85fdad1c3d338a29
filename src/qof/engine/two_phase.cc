#include "qof/engine/two_phase.h"

#include "qof/engine/condition_eval.h"
#include "qof/exec/fault_injector.h"
#include "qof/parse/parser.h"
#include "qof/parse/value_builder.h"

namespace qof {
namespace {

/// Phase-2 outcome for one candidate, filled by whichever worker drew it.
/// Slots are indexed by candidate position, so assembling them in order
/// preserves the serial output order exactly.
struct CandidateOutcome {
  Status status = Status::OK();
  /// False only when an early stop left the slot unclaimed — such a slot
  /// must not be read as "candidate filtered out".
  bool done = false;
  bool keep = false;
  std::vector<Value> projected;
};

/// Decorates a candidate parse failure; governance interrupts and
/// injected faults keep their code untouched.
Status CandidateParseFailure(const Region& candidate, const Status& status) {
  if (status.code() != StatusCode::kParseError) return status;
  return Status::ParseError("candidate region " + candidate.ToString() +
                            ": " + status.message());
}

void ProcessCandidate(const StructuringSchema& schema, const Corpus& corpus,
                      const SelectQuery& query, const Rig& full_rig,
                      const SchemaParser& parser, const Region& candidate,
                      const ExecContext* ctx, ObjectStore* store,
                      CandidateOutcome* out) {
  out->done = true;
  if (ctx != nullptr) {
    out->status = ctx->Check();
    if (!out->status.ok()) return;
  }
  out->status = MaybeInjectFault(fault_site::kTwoPhaseCandidate);
  if (!out->status.ok()) return;
  // Parsing a candidate reads its text.
  std::string_view text = corpus.ScanText(candidate.start, candidate.end);
  auto tree = parser.Parse(text, candidate.start, schema.view());
  if (!tree.ok()) {
    out->status = CandidateParseFailure(candidate, tree.status());
    return;
  }
  auto id = BuildObject(schema, corpus, **tree, store);
  if (!id.ok()) {
    out->status = id.status();
    return;
  }
  auto obj = store->Get(*id);
  if (!obj.ok()) {
    out->status = obj.status();
    return;
  }
  Value root = Value::Ref(*id).WithType((*obj)->class_name);
  bool keep = true;
  if (query.where != nullptr) {
    auto kept = EvaluateCondition(*store, root, *query.where, full_rig,
                                  schema.view_name());
    if (!kept.ok()) {
      out->status = kept.status();
      return;
    }
    keep = *kept;
  }
  if (!keep) return;
  out->keep = true;
  if (query.IsProjection()) {
    auto values = EvaluateTarget(*store, root, query.target, full_rig,
                                 schema.view_name());
    if (!values.ok()) {
      out->status = values.status();
      return;
    }
    out->projected = std::move(*values);
  }
}

}  // namespace

Result<TwoPhaseResult> RunTwoPhase(const StructuringSchema& schema,
                                   const Corpus& corpus,
                                   const QueryPlan& plan,
                                   const RegionSet& candidates,
                                   const Rig& full_rig, ObjectStore* store,
                                   ThreadPool* pool, const ExecContext* ctx,
                                   bool soft_fail) {
  TwoPhaseResult result;
  SchemaParser parser(&schema, ctx);
  const SelectQuery& query = plan.query;

  if (pool != nullptr && pool->size() > 1 && candidates.size() > 1) {
    // Parallel phase 2: each worker parses and filters candidates into
    // its own scratch store; per-candidate outcomes are assembled in
    // candidate order below, so results match the serial path.
    std::vector<ObjectStore> scratch(static_cast<size_t>(pool->size()));
    std::vector<CandidateOutcome> outcomes(candidates.size());
    // Carry the query thread's accounting/governance thread-locals onto
    // every worker: snapshot queries route scans into a per-query
    // counter, and the disk tier picks the ExecContext up thread-locally.
    std::atomic<uint64_t>* scan_counter = Corpus::CurrentThreadScanCounter();
    pool->ParallelFor(
        candidates.size(),
        [&](int worker, size_t i) {
          ExecContext::ThreadScope thread_scope(ctx);
          Corpus::ScanCounterScope scan_scope(scan_counter);
          ProcessCandidate(schema, corpus, query, full_rig, parser,
                           candidates[i], ctx, &scratch[worker],
                           &outcomes[i]);
        },
        ctx != nullptr ? ctx->stop_flag() : nullptr);
    size_t complete = candidates.size();
    for (size_t i = 0; i < candidates.size(); ++i) {
      // First failing candidate in order — the same error the serial
      // loop reports. A slot left unclaimed by an early stop re-derives
      // the governance error that tripped the stop flag.
      Status status = outcomes[i].status;
      if (status.ok() && !outcomes[i].done) {
        status = ctx != nullptr ? ctx->Check() : Status::OK();
        if (status.ok()) {
          status =
              Status::Internal("candidate skipped without a recorded cause");
        }
      }
      if (status.ok()) continue;
      if (soft_fail && IsGovernanceError(status)) {
        complete = i;
        result.truncated = true;
        result.interrupted = status;
        break;
      }
      return status;
    }
    result.candidates_parsed = complete;
    for (size_t i = 0; i < complete; ++i) {
      CandidateOutcome& outcome = outcomes[i];
      if (!outcome.keep) continue;
      result.regions.push_back(candidates[i]);
      result.projected.insert(
          result.projected.end(),
          std::make_move_iterator(outcome.projected.begin()),
          std::make_move_iterator(outcome.projected.end()));
    }
    return result;
  }

  for (const Region& candidate : candidates) {
    if (ctx != nullptr) {
      Status limit = ctx->Check();
      if (!limit.ok()) {
        if (!soft_fail) return limit;
        result.truncated = true;
        result.interrupted = limit;
        return result;
      }
    }
    QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kTwoPhaseCandidate));
    // Parsing a candidate reads its text.
    std::string_view text =
        corpus.ScanText(candidate.start, candidate.end);
    auto tree = parser.Parse(text, candidate.start, schema.view());
    if (!tree.ok()) {
      if (IsGovernanceError(tree.status())) {
        if (!soft_fail) return tree.status();
        result.truncated = true;
        result.interrupted = tree.status();
        return result;
      }
      return CandidateParseFailure(candidate, tree.status());
    }
    ++result.candidates_parsed;
    QOF_ASSIGN_OR_RETURN(ObjectId id,
                         BuildObject(schema, corpus, **tree, store));
    QOF_ASSIGN_OR_RETURN(const StoredObject* obj, store->Get(id));
    Value root = Value::Ref(id).WithType(obj->class_name);
    bool keep = true;
    if (query.where != nullptr) {
      QOF_ASSIGN_OR_RETURN(
          keep, EvaluateCondition(*store, root, *query.where, full_rig,
                                  schema.view_name()));
    }
    if (!keep) continue;
    result.regions.push_back(candidate);
    if (query.IsProjection()) {
      QOF_ASSIGN_OR_RETURN(
          std::vector<Value> values,
          EvaluateTarget(*store, root, query.target, full_rig,
                         schema.view_name()));
      result.projected.insert(result.projected.end(), values.begin(),
                              values.end());
    }
  }
  return result;
}

}  // namespace qof
