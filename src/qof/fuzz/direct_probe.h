#ifndef QOF_FUZZ_DIRECT_PROBE_H_
#define QOF_FUZZ_DIRECT_PROBE_H_

#include <string>
#include <utility>
#include <vector>

#include "qof/engine/system.h"
#include "qof/util/result.h"

namespace qof {

/// Which algebra engine evaluates the probes.
enum class ProbeEngine { kTree, kIr };

/// The direct-inclusion probes of a built system: for every edge (A, B)
/// of the compiler's partial RIG, `A >> B` and `B << A`. The compiler
/// relaxes most ⊃d/⊂d of a generated query to ⊃/⊂, so a query alone
/// rarely puts a name with two RIG parents (a sub rule shared by two
/// fields, two recursive fields) on the inner side of a direct operator;
/// the probes do so on every case. kTree runs the universe-based tree
/// evaluator (the oracle), kIr the IR pipeline with the system's
/// IrPlanOptions and encloser sets.
///
/// Returns one (probe key, answer) pair per probe, in a fixed order; the
/// answer is the region list ("start:end;...") or "error: <status>".
Result<std::vector<std::pair<std::string, std::string>>> RunDirectProbes(
    FileQuerySystem& system, ProbeEngine engine);

/// Compares two probe runs; on the first difference fills `failure`
/// ("[<label>] ...") and returns false.
bool ProbesAgree(const std::string& label,
                 const std::vector<std::pair<std::string, std::string>>& want,
                 const std::vector<std::pair<std::string, std::string>>& got,
                 std::string* failure);

}  // namespace qof

#endif  // QOF_FUZZ_DIRECT_PROBE_H_
