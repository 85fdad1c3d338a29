// Shared machinery of the repo benchmark: the metric report, sample
// statistics, the span tracer, seeded draws and the thread budget.
//
// Every number here is taken from outside the library: wall time around
// calls into public functions, plus the counters those functions already
// return (QueryStats, EvalStats, CacheStats, BufferPoolStats,
// MaintainStats, ServiceStats).

#ifndef QOFBENCH_HARNESS_H_
#define QOFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "qof/engine/system.h"

namespace qofbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (store files, span dumps).
  std::string work_dir = ".";
  int nproc = 1;
};

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Every metric one run measured, by name; run.py picks the
/// end-to-end or per-layer subset BENCHMARK.json lists.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  /// Prints one `metric` line per entry and the final JSON result line.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    double value;
    std::string unit;
    size_t samples;
  };
  std::map<std::string, Entry> entries_;
};

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<double>& v, double p);
double Median(std::vector<double> v);
/// Names the highest of p50/p90/p99/p99.9 that has at least ten samples
/// beyond it ("p90 valid"); printed beside every timing.
std::string HighestValidPercentile(size_t samples);

/// Sets `<prefix>_p50_ms` / `_p90_ms` (and `_p99_ms` when asked) from
/// millisecond samples, printing the sample count beside them.
void SetTimings(Report* report, const std::string& prefix,
                std::vector<double> ms, bool with_p99 = false);

/// Deterministic draws from the run's seed. mt19937_64's output sequence
/// is fixed by the standard, and every draw below is built from raw
/// outputs, so a seed gives the same inputs with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}
  double Uniform() { return (gen_() >> 11) * (1.0 / 9007199254740992.0); }
  size_t Below(size_t n) { return static_cast<size_t>(Uniform() * n); }
  /// Rank-Zipf draw over [0, n): weight of rank r is 1 / (r + 1)^s.
  size_t Zipf(size_t n, double s);
  uint32_t Next32() { return static_cast<uint32_t>(gen_() >> 32); }

 private:
  std::mt19937_64 gen_;
};

/// A query template: `fql` with `%s` replaced by a literal drawn
/// Zipf-style from `literals` (in rank order), or used verbatim when
/// there are none. `weight` slots per shuffled block of draws.
struct Template {
  std::string name;
  std::string fql;
  std::vector<std::string> literals;
  int weight = 1;
};

struct Op {
  int tmpl = 0;
  std::string fql;
};

/// Stratified seeded op stream: each block holds every template exactly
/// `weight` times in a seeded shuffle, so template shares are exact in
/// every block and only the order and the literals vary with the seed.
class OpStream {
 public:
  OpStream(const std::vector<Template>* templates, uint64_t seed,
           double zipf_s);
  Op Next();
  /// Every FQL text the stream can produce (the oracle precomputes all).
  std::vector<std::string> AllFql() const;

 private:
  const std::vector<Template>* templates_;
  Rng rng_;
  double zipf_s_;
  std::vector<int> block_;
  size_t next_ = 0;
};

std::string Instantiate(const Template& t, const std::string& literal);

/// Canonical answer of a query, counted by the benchmark itself: the
/// answer regions as (start, end) and the rendered projected values.
struct Answer {
  std::vector<std::pair<uint64_t, uint64_t>> regions;
  std::vector<std::string> values;
  size_t Count() const {
    return values.empty() ? regions.size() : values.size();
  }
  bool operator==(const Answer& o) const {
    return regions == o.regions && values == o.values;
  }
};
Answer AnswerOf(const qof::QueryResult& result);
uint64_t HashAnswer(const Answer& a);

/// In-memory span recorder. Spans of one op share `op`; `parent` is the
/// index of the enclosing span (-1 for the root). Spans synthesized from
/// numbers the program reports (op_timings, QueryStats::micros) are
/// flagged `reported`. Written out once, at the end of the run.
class Tracer {
 public:
  struct Span {
    uint64_t op;
    int parent;
    std::string name;
    double t0;
    double t1;
    bool reported;
  };
  int Add(uint64_t op, int parent, std::string name, double t0, double t1,
          bool reported = false);
  void SetEnd(int span, double t1) { spans_[span].t1 = t1; }
  /// Synthesizes `engine.op.<kind>` children under `execute` from
  /// QueryStats::op_timings, laid end to end from the span's start. With
  /// exec_workers > 1 they sum CPU time, so they may overrun the parent;
  /// self time clamps children to the parent's interval.
  void AddOpTimings(uint64_t op, int execute, const qof::IrOpTimings& t);

  /// Mean self time per root span, in microseconds, keyed by span name:
  /// a span's duration minus the part of it its children cover.
  std::map<std::string, double> SelfMicrosPerOp() const;
  /// Sum of reported op_timings over the engine.execute wall time.
  double ReportedOverWall() const;
  size_t ops() const;
  size_t size() const { return spans_.size(); }
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Sets the traced run's metrics: self time per span name
/// (trace.self.<name>_us), the per-layer times named after their span
/// (query.parse_us, compiler.plan_us, ir.lower_passes_us, render_us),
/// reported-over-wall and spans per op; writes the spans to
/// <work_dir>/spans-<workload>-<seed>.jsonl.
void ReportTrace(const Tracer& tracer, const Args& args, Report* report);

/// Peak resident set of this process, MiB (getrusage high-water mark).
double PeakRssMb();

/// CPUs this process may run on (sched_getaffinity, as nproc reports).
int Nproc();

/// The IR operator kinds, in IrOpName spelling.
const std::vector<std::string>& IrOpKinds();
/// The strategies QueryStats::strategy can name.
const std::vector<std::string>& Strategies();

}  // namespace qofbench

#endif  // QOFBENCH_HARNESS_H_
