#ifndef QOFBENCH_WORKLOADS_H_
#define QOFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace qofbench {

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  /// Errors + rejections + oracle mismatches.
  uint64_t failed = 0;
};

/// The thread budget: threads the workload runs at once, counting the
/// client/generator/mutator threads, service workers and the system's
/// worker pool (whose calling thread is worker 0). Returns 0 for an
/// unknown workload.
int ThreadsNeeded(const std::string& workload, int nproc);

Outcome RunBibMem(const Args& args, Report* report);
Outcome RunGrammarDiskCold(const Args& args, Report* report);
Outcome RunBibServe(const Args& args, Report* report);

}  // namespace qofbench

#endif  // QOFBENCH_WORKLOADS_H_
