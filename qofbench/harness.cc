#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace qofbench {

void Report::Set(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  entries_[name] = Entry{value, unit, samples};
}

void Report::Print(bool correct, uint64_t attempted,
                   uint64_t failed) const {
  for (const auto& [name, e] : entries_) {
    if (e.samples > 0) {
      std::printf("metric %-40s %14.6g %-6s n=%zu (%s)\n", name.c_str(),
                  e.value, e.unit.c_str(), e.samples,
                  HighestValidPercentile(e.samples).c_str());
    } else {
      std::printf("metric %-40s %14.6g %s\n", name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : entries_) {
    char value[64];
    // %.17g keeps every digit a double carries.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            e.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) { return Percentile(v, 0.5); }

std::string HighestValidPercentile(size_t samples) {
  const double n = static_cast<double>(samples);
  if (n * 0.001 >= 10) return "p99.9 valid";
  if (n * 0.01 >= 10) return "p99 valid";
  if (n * 0.1 >= 10) return "p90 valid";
  return "only p50 valid";
}

void SetTimings(Report* report, const std::string& prefix,
                std::vector<double> ms, bool with_p99) {
  const size_t n = ms.size();
  report->Set(prefix + "_p50_ms", Percentile(ms, 0.5), "ms", n);
  report->Set(prefix + "_p90_ms", Percentile(ms, 0.9), "ms", n);
  if (with_p99) report->Set(prefix + "_p99_ms", Percentile(ms, 0.99), "ms", n);
}

size_t Rng::Zipf(size_t n, double s) {
  double total = 0;
  for (size_t r = 0; r < n; ++r) total += 1.0 / std::pow(r + 1.0, s);
  double u = Uniform() * total;
  for (size_t r = 0; r < n; ++r) {
    u -= 1.0 / std::pow(r + 1.0, s);
    if (u < 0) return r;
  }
  return n - 1;
}

OpStream::OpStream(const std::vector<Template>* templates, uint64_t seed,
                   double zipf_s)
    : templates_(templates), rng_(seed), zipf_s_(zipf_s) {}

Op OpStream::Next() {
  if (next_ == block_.size()) {
    block_.clear();
    for (size_t t = 0; t < templates_->size(); ++t) {
      for (int w = 0; w < (*templates_)[t].weight; ++w) {
        block_.push_back(static_cast<int>(t));
      }
    }
    for (size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[rng_.Below(i)]);
    }
    next_ = 0;
  }
  Op op;
  op.tmpl = block_[next_++];
  const Template& t = (*templates_)[op.tmpl];
  std::string literal;
  if (!t.literals.empty()) {
    literal = t.literals[rng_.Zipf(t.literals.size(), zipf_s_)];
  }
  op.fql = Instantiate(t, literal);
  return op;
}

std::vector<std::string> OpStream::AllFql() const {
  std::vector<std::string> out;
  for (const Template& t : *templates_) {
    if (t.literals.empty()) out.push_back(Instantiate(t, ""));
    for (const std::string& l : t.literals) out.push_back(Instantiate(t, l));
  }
  return out;
}

std::string Instantiate(const Template& t, const std::string& literal) {
  std::string out = t.fql;
  for (size_t at = out.find("%s"); at != std::string::npos;
       at = out.find("%s", at + literal.size())) {
    out.replace(at, 2, literal);
  }
  return out;
}

Answer AnswerOf(const qof::QueryResult& result) {
  Answer a;
  a.regions.reserve(result.regions.size());
  for (const qof::Region& r : result.regions) {
    a.regions.emplace_back(r.start, r.end);
  }
  a.values = result.RenderedValues();
  return a;
}

uint64_t HashAnswer(const Answer& a) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [s, e] : a.regions) {
    mix(s);
    mix(e);
  }
  for (const std::string& v : a.values) {
    for (unsigned char c : v) mix(c);
    mix(0xff);
  }
  return h;
}

int Tracer::Add(uint64_t op, int parent, std::string name, double t0,
                double t1, bool reported) {
  spans_.push_back(Span{op, parent, std::move(name), t0, t1, reported});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::AddOpTimings(uint64_t op, int execute,
                          const qof::IrOpTimings& timings) {
  double at = spans_[execute].t0;
  for (const auto& [kind, t] : timings) {
    double ms = t.micros / 1000.0;
    Add(op, execute, "engine.op." + kind, at, at + ms, /*reported=*/true);
    at += ms;
  }
}

std::map<std::string, double> Tracer::SelfMicrosPerOp() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) children[spans_[i].parent].push_back(i);
  }
  std::map<std::string, double> total_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clamped to this span.
    std::vector<std::pair<double, double>> iv;
    for (int c : children[i]) {
      double a = std::max(s.t0, spans_[c].t0);
      double b = std::min(s.t1, spans_[c].t1);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, reach = s.t0;
    for (const auto& [a, b] : iv) {
      double from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    total_ms[s.name] += (s.t1 - s.t0) - covered;
  }
  std::map<std::string, double> out;
  const double n = std::max<size_t>(1, ops());
  for (const auto& [name, ms] : total_ms) out[name] = ms * 1000.0 / n;
  return out;
}

double Tracer::ReportedOverWall() const {
  double reported = 0, wall = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.reported && s.parent >= 0 &&
        spans_[s.parent].name == "engine.execute") {
      reported += s.t1 - s.t0;
    } else if (s.name == "engine.execute") {
      wall += s.t1 - s.t0;
    }
  }
  return wall > 0 ? reported / wall : 0;
}

size_t Tracer::ops() const {
  size_t n = 0;
  for (const Span& s : spans_) n += s.parent < 0 ? 1 : 0;
  return n;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"span\": %zu, \"op\": %llu, \"parent\": %d, "
                  "\"name\": \"%s\", \"start_ms\": %.4f, \"end_ms\": %.4f, "
                  "\"program_reported\": %s}\n",
                  i, static_cast<unsigned long long>(s.op), s.parent,
                  s.name.c_str(), s.t0, s.t1, s.reported ? "true" : "false");
    out << line;
  }
  return static_cast<bool>(out);
}

void ReportTrace(const Tracer& tracer, const Args& args, Report* r) {
  const std::map<std::string, double> self = tracer.SelfMicrosPerOp();
  for (const auto& [name, us] : self) {
    r->Set("trace.self." + name + "_us", us, "us/op");
  }
  auto get = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  r->Set("query.parse_us", get("query.parse"), "us");
  r->Set("compiler.plan_us", get("compiler.plan"), "us");
  r->Set("ir.lower_passes_us", get("ir.lower_passes"), "us");
  r->Set("render_us", get("render"), "us");
  r->Set("trace.reported_over_wall", tracer.ReportedOverWall(), "ratio");
  r->Set("trace.spans_per_op",
         tracer.size() / static_cast<double>(std::max<size_t>(1, tracer.ops())),
         "count/op");
  const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
  if (tracer.WriteJsonl(path)) {
    std::printf("spans: %zu written to %s\n", tracer.size(), path.c_str());
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

const std::vector<std::string>& IrOpKinds() {
  static const std::vector<std::string> kinds = {
      "load",      "union",
      "intersect", "difference",
      "innermost", "outermost",
      "including", "included",
      "directly-including", "directly-included",
      "select",    "fuse",
      "project",   "join"};
  return kinds;
}

const std::vector<std::string>& Strategies() {
  static const std::vector<std::string> names = {
      "index-only", "two-phase", "index-join", "baseline", "empty"};
  return names;
}

}  // namespace qofbench
