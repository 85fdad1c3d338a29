// Parallel scaling of the two build/query hot paths this engine owns:
// index construction (parse + tokenize every document) and two-phase
// execution (parse + filter every candidate). Reports wall time and
// speedup at 1/2/4/8 workers and cross-checks that every parallel build
// is byte-identical to the serial one — the determinism contract.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

struct Fixture {
  std::unique_ptr<qof::FileQuerySystem> system;
  std::string serial_blob;
};

Fixture MakeBibtexFixture(int num_files, int refs_per_file) {
  auto schema = qof::BibtexSchema();
  Fixture f;
  f.system = std::make_unique<qof::FileQuerySystem>(*schema);
  for (int i = 0; i < num_files; ++i) {
    qof::BibtexGenOptions gen;
    gen.num_references = refs_per_file;
    gen.seed = static_cast<uint32_t>(i + 1);
    if (!f.system
             ->AddFile("bench" + std::to_string(i) + ".bib",
                       qof::GenerateBibtex(gen))
             .ok()) {
      std::fprintf(stderr, "fixture setup failed\n");
      std::abort();
    }
  }
  return f;
}

void BenchIndexBuild(Fixture* f, int num_files, int refs_per_file) {
  std::printf("index build: %d files x %d refs (%.1f MB corpus)\n",
              num_files, refs_per_file,
              static_cast<double>(f->system->corpus().size()) / 1e6);
  std::printf("%8s %12s %9s %8s\n", "threads", "build", "speedup",
              "identical");
  double serial_micros = 0;
  for (int threads : {1, 2, 4, 8}) {
    f->system->SetParallelism(threads);
    double micros = qof_bench::MedianMicros(3, [&] {
      if (!f->system->BuildIndexes(qof::IndexSpec::Full()).ok()) {
        std::abort();
      }
    });
    auto blob = f->system->ExportIndexes();
    bool identical = true;
    if (threads == 1) {
      serial_micros = micros;
      f->serial_blob = blob.ok() ? *blob : std::string();
    } else {
      identical = blob.ok() && *blob == f->serial_blob;
    }
    std::printf("%8d %10.1f ms %8.2fx %8s\n", threads, micros / 1000.0,
                serial_micros / micros, identical ? "yes" : "NO");
  }
}

void BenchTwoPhase(Fixture* f) {
  // A partial index makes the flagship query inexact, forcing phase 2
  // over every Chang candidate.
  qof::IndexSpec spec =
      qof::IndexSpec::Partial({"Reference", "Key", "Last_Name"});
  if (!f->system->BuildIndexes(spec).ok()) std::abort();
  const std::string fql =
      "SELECT r FROM References r "
      "WHERE r.Authors.Name.Last_Name = \"Chang\"";
  std::printf("\ntwo-phase query: %s\n", fql.c_str());
  std::printf("%8s %12s %9s %11s %8s\n", "threads", "query", "speedup",
              "candidates", "results");
  double serial_micros = 0;
  std::vector<std::string> serial_values;
  for (int threads : {1, 2, 4, 8}) {
    f->system->SetParallelism(threads);
    uint64_t candidates = 0;
    uint64_t results = 0;
    std::vector<std::string> values;
    double micros = qof_bench::MedianMicros(5, [&] {
      auto r = f->system->Execute(fql, qof::ExecutionMode::kTwoPhase);
      if (!r.ok()) std::abort();
      candidates = r->stats.candidates;
      results = r->stats.results;
      values = r->RenderedValues();
    });
    bool identical = true;
    if (threads == 1) {
      serial_micros = micros;
      serial_values = values;
    } else {
      identical = values == serial_values;
    }
    std::printf("%8d %10.1f ms %8.2fx %11llu %7llu%s\n", threads,
                micros / 1000.0, serial_micros / micros,
                static_cast<unsigned long long>(candidates),
                static_cast<unsigned long long>(results),
                identical ? "" : "  RESULT MISMATCH");
  }
}

}  // namespace

int main() {
  std::printf("parallel scaling (hardware threads: %d)\n\n",
              qof::EffectiveParallelism(0));
  const int kFiles = 32;
  const int kRefsPerFile = 250;
  Fixture f = MakeBibtexFixture(kFiles, kRefsPerFile);
  BenchIndexBuild(&f, kFiles, kRefsPerFile);
  BenchTwoPhase(&f);
  return 0;
}
