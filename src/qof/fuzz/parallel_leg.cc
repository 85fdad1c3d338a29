#include "qof/fuzz/parallel_leg.h"

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "qof/engine/system.h"
#include "qof/fuzz/canon.h"

namespace qof {
namespace {

std::string StorePath(uint64_t seed) {
  return "/tmp/qof-fuzz-parallel-" + std::to_string(::getpid()) + "-" +
         std::to_string(seed) + ".qofstore";
}

struct FileGuard {
  std::string path;
  ~FileGuard() { std::remove(path.c_str()); }
};

/// Candidate counts are cache- and worker-invariant: a mismatch means a
/// morsel path miscounted (or mis-merged) even if the final answer
/// happened to survive.
bool CandidatesAgree(const std::string& label, const Result<QueryResult>& a,
                     const Result<QueryResult>& b, const ConcreteCase& c,
                     std::string* failure) {
  if (!a.ok() || !b.ok()) return true;  // Agrees covers status identity
  if (a->stats.candidates == b->stats.candidates) return true;
  *failure = "[" + label + "] candidate counts diverge: serial=" +
             std::to_string(a->stats.candidates) +
             " parallel=" + std::to_string(b->stats.candidates) +
             " (fql: " + c.fql + ")";
  return false;
}

}  // namespace

Status CheckParallelExec(
    const StructuringSchema& schema,
    const std::vector<std::pair<std::string, std::string>>& docs,
    const ConcreteCase& c, const OracleOptions& options, uint64_t seed,
    std::string* failure) {
  auto make_system = [&]() {
    auto system = std::make_unique<FileQuerySystem>(schema);
    for (const auto& [name, text] : docs) {
      (void)system->AddFile(name, text);
    }
    return system;
  };

  // Grain 2: inputs of four regions already split, so morsel machinery
  // runs on nearly every generated case instead of only the large ones.
  IrPlanOptions knobs;
  knobs.morsel_grain = 2;
  knobs.inject_racy_merge = options.bug == InjectedBug::kRacyMerge;

  std::unique_ptr<FileQuerySystem> sys = make_system();
  sys->SetParallelism(1);
  sys->SetCacheOptions(CacheOptions::Enabled());
  if (!sys->BuildIndexes(IndexSpec::Full()).ok()) {
    return Status::OK();  // the index legs report build failures
  }
  sys->SetIrOptions(knobs);

  QueryOptions serial;

  // Serial baseline (this also warms the eval cache, so the parallel
  // runs below get the merge-from-cache interleavings too).
  Result<QueryResult> serial_auto = sys->Execute(c.fql, ExecutionMode::kAuto,
                                                 serial);
  CanonExec base = Canon(serial_auto);
  Result<QueryResult> serial_two =
      sys->Execute(c.fql, ExecutionMode::kTwoPhase, serial);
  CanonExec base_two = Canon(serial_two);

  for (int workers : {2, 4}) {
    QueryOptions par = serial;
    par.exec_workers = workers;
    const std::string tail = " w=" + std::to_string(workers);
    Result<QueryResult> got = sys->Execute(c.fql, ExecutionMode::kAuto, par);
    if (!Agrees("parallel/auto" + tail, base, Canon(got), c, failure)) {
      return Status::OK();
    }
    if (!CandidatesAgree("parallel/auto" + tail, serial_auto, got, c,
                         failure)) {
      return Status::OK();
    }
    if (!Agrees("parallel/two-phase" + tail, base_two,
                Canon(sys->Execute(c.fql, ExecutionMode::kTwoPhase, par)), c,
                failure)) {
      return Status::OK();
    }
  }

  // Disk tier: prefetch changes page-read batching, never answers; the
  // worker × prefetch grid must all land on the in-memory baseline.
  // Prefetch is a store option, so each setting opens its own system.
  const std::string path = StorePath(seed);
  FileGuard guard{path};
  QOF_RETURN_IF_ERROR(sys->SaveStore(path, /*page_size=*/256));
  for (bool prefetch : {true, false}) {
    std::unique_ptr<FileQuerySystem> disk = make_system();
    disk->SetParallelism(1);
    PagedStoreOptions store_options;
    store_options.prefetch = prefetch;
    QOF_RETURN_IF_ERROR(disk->OpenStore(path, store_options));
    disk->SetIrOptions(knobs);
    for (int workers : {1, 2, 4}) {
      QueryOptions par = serial;
      par.exec_workers = workers;
      const std::string tail = " w=" + std::to_string(workers) +
                               (prefetch ? " pf=on" : " pf=off");
      if (!Agrees("parallel/disk" + tail, base,
                  Canon(disk->Execute(c.fql, ExecutionMode::kAuto, par)), c,
                  failure)) {
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

}  // namespace qof
