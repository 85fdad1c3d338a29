// qofbench: FQL text in, rendered result out, on three seeded workloads.
//
//   qofbench --workload <bib-mem|grammar-disk-cold|bib-serve> --seed <n>
//            --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints one `metric` line per measurement and, last, one JSON object
// with `correct`, `attempted`, `failed` and every metric. --trace 1 runs
// an untraced half and a traced replay of the same ops, and writes the
// spans to <work-dir>/spans-<workload>-<seed>.jsonl.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  qofbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  args.nproc = qofbench::Nproc();
  const int threads = qofbench::ThreadsNeeded(args.workload, args.nproc);
  std::printf("nproc %d; workload %s needs %d threads; seed %llu; "
              "%.1f s; trace %d\n",
              args.nproc, args.workload.c_str(), threads,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (threads == 0) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (threads > args.nproc) {
    std::fprintf(stderr,
                 "thread budget: %s needs %d threads but nproc is %d; "
                 "refusing to run\n",
                 args.workload.c_str(), threads, args.nproc);
    return 3;
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  qofbench::Report report;
  qofbench::Outcome out;
  if (args.workload == "bib-mem") {
    out = qofbench::RunBibMem(args, &report);
  } else if (args.workload == "grammar-disk-cold") {
    out = qofbench::RunGrammarDiskCold(args, &report);
  } else {
    out = qofbench::RunBibServe(args, &report);
  }
  report.Set("nproc", args.nproc, "count");
  report.Print(out.correct, out.attempted, out.failed);
  return 0;
}
