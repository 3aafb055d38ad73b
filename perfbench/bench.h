//===- perfbench/bench.h - Shared pieces of the cmmex benchmark -*- C++ -*-===//
//
// The end-to-end benchmark's common vocabulary: run options, the outcome
// every workload fills (correctness, operation counts, named metrics), an
// in-memory span recorder for the traced run, and order statistics.
//
//===----------------------------------------------------------------------===//

#ifndef CMMBENCH_BENCH_H
#define CMMBENCH_BENCH_H

#include "costmodel/DiffHarness.h"
#include "costmodel/DispatchWorkloads.h"
#include "engine/Engine.h"
#include "sem/Value.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace cmb {

inline uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

inline double secondsSince(uint64_t T0) { return double(nowNs() - T0) / 1e9; }

/// Command-line options shared by every workload.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Self-check size: every workload shrinks to a pass of a few seconds.
  bool Small = false;
  /// Negative self-check: "expected" corrupts one expected value before it
  /// is compared, "answer" corrupts one answer the program produced.
  std::string Inject;
  /// Scratch directory inside the checkout (sockets, artifact caches,
  /// the span dump).
  std::string RunDir = ".bench_run";
  /// The daemon binary the serve workload starts.
  std::string Daemon;
  unsigned Threads = 1;
};

/// Set-up repetitions per run; setup_s reports their median.
inline constexpr int SetupReps = 5;

/// What one run reports.
struct Outcome {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;

  /// Records a check failure (the first few are printed).
  void wrong(const std::string &Why) {
    Correct = false;
    if (Errors.size() < 8)
      Errors.push_back(Why);
  }
  void check(bool Cond, const std::string &Why) {
    if (!Cond)
      wrong(Why);
  }
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
};

//===----------------------------------------------------------------------===//
// Order statistics
//===----------------------------------------------------------------------===//

/// Nearest-rank percentile (0 for an empty sample).
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(P / 100.0 * double(V.size()) + 0.999999);
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  return V[Rank - 1];
}

inline double median(const std::vector<double> &V) {
  return percentile(V, 50);
}

inline double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

/// The differential harness's "full" optimizer configuration: every scalar
/// pass, callee-saves placement, validation after each pass.
inline cmm::OptOptions fullPipeline() {
  for (const cmm::DiffOptConfig &C : cmm::diffOptConfigs())
    if (C.Name == "full")
      return C.Opts;
  return cmm::OptOptions();
}

/// The run-time dispatcher a rendering under \p T needs.
inline cmm::engine::DispatcherKind dispatcherFor(cmm::DispatchTechnique T) {
  using cmm::engine::DispatcherKind;
  return T == cmm::DispatchTechnique::CutRuntime      ? DispatcherKind::Cut
         : T == cmm::DispatchTechnique::UnwindRuntime ? DispatcherKind::Unwind
                                                      : DispatcherKind::None;
}

/// A bits32 result compared as the machine returns it.
inline uint32_t low32(const cmm::Value &V) { return uint32_t(V.Raw); }

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One timed interval at a layer boundary. Names are string literals.
struct Span {
  const char *Name;
  uint64_t Start, End;
  int32_t Parent; ///< index into the same recorder, -1 at the root
  uint64_t Id;    ///< the job or request the span belongs to
};

/// Keeps spans in memory (one recorder per thread) and derives per-layer
/// figures from them: total and self time by name. Disabled recorders cost
/// one branch per span.
class Tracer {
public:
  explicit Tracer(bool On = false) : On(On) {}

  bool on() const { return On; }

  int32_t begin(const char *Name, uint64_t Id) {
    if (!On)
      return -1;
    Spans.push_back({Name, nowNs(), 0, Cur, Id});
    Cur = int32_t(Spans.size() - 1);
    return Cur;
  }
  void end(int32_t Idx) {
    if (Idx < 0)
      return;
    Spans[size_t(Idx)].End = nowNs();
    Cur = Spans[size_t(Idx)].Parent;
  }
  /// Records an interval measured elsewhere, under the current span.
  void record(const char *Name, uint64_t Id, uint64_t Start, uint64_t End) {
    if (On)
      Spans.push_back({Name, Start, End, Cur, Id});
  }

  /// RAII span.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, uint64_t Id)
        : T(T), Idx(T.begin(Name, Id)) {}
    ~Scope() { T.end(Idx); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int32_t Idx;
  };

  /// Appends \p O's spans (another thread's recorder) to this one.
  void merge(const Tracer &O) {
    int32_t Base = int32_t(Spans.size());
    for (Span S : O.Spans) {
      if (S.Parent >= 0)
        S.Parent += Base;
      Spans.push_back(S);
    }
  }

  /// Durations in microseconds of every span named \p Name.
  std::vector<double> durationsUs(const std::string &Name) const {
    std::vector<double> D;
    for (const Span &S : Spans)
      if (Name == S.Name)
        D.push_back(double(S.End - S.Start) / 1e3);
    return D;
  }
  size_t count(const std::string &Name) const {
    return durationsUs(Name).size();
  }
  double totalUs(const std::string &Name) const {
    return sum(durationsUs(Name));
  }
  double meanUs(const std::string &Name) const {
    std::vector<double> D = durationsUs(Name);
    return D.empty() ? 0 : sum(D) / double(D.size());
  }
  /// Self time: each span's duration minus what its direct children cover,
  /// summed over every span named \p Name.
  double selfUs(const std::string &Name) const {
    std::vector<double> Child(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Child[size_t(S.Parent)] += double(S.End - S.Start);
    double Total = 0;
    for (size_t I = 0; I < Spans.size(); ++I)
      if (Name == Spans[I].Name)
        Total += double(Spans[I].End - Spans[I].Start) - Child[I];
    return Total / 1e3;
  }

  /// Writes one JSON object per span (name, start/end ns, parent, id).
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"i\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"parent\":%d,\"id\":%llu}\n",
                   I, S.Name, (unsigned long long)S.Start,
                   (unsigned long long)S.End, S.Parent,
                   (unsigned long long)S.Id);
    }
    return std::fclose(F) == 0;
  }

private:
  bool On;
  std::vector<Span> Spans;
  int32_t Cur = -1;
};

/// Per-layer values of a traced run, by metric name. A workload sets the
/// layers it exercises; the rest print as 0 (README.md maps each metric to
/// its workload).
using LayerMetrics = std::map<std::string, double>;

/// Every per-layer metric, in BENCHMARK.json order, with its unit.
const std::vector<std::pair<std::string, std::string>> &layerCatalog();

/// Percent by which the traced run's throughput fell short of the untraced
/// part of the same run.
inline double overheadPct(double UntracedRate, double TracedRate) {
  return TracedRate > 0 ? (UntracedRate / TracedRate - 1.0) * 100.0 : 0;
}

void runExn(const Options &O, Outcome &Out, LayerMetrics &L);
void runCompile(const Options &O, Outcome &Out, LayerMetrics &L);
void runServe(const Options &O, Outcome &Out, LayerMetrics &L);

/// Peak resident set of this process, in MiB.
double selfPeakRssMb();

} // namespace cmb

#endif // CMMBENCH_BENCH_H
