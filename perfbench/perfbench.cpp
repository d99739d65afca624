//===- perfbench/perfbench.cpp - End-to-end host benchmark ----------------===//
//
// Part of the CGCM reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one seeded workload through the public entry points of every
/// layer -- compileMiniC, runPassPipeline, runCommCostAnalysis,
/// Machine::loadModule/run and SessionManager::replay -- for a fixed
/// number of host seconds, checks every output, and prints the
/// end-to-end metrics (untraced run) or the per-layer metrics (traced
/// run) as the last line of stdout, in the shape BENCHMARK.json names.
///
/// Workloads, metric definitions and known limits: perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "analysis/commcost/CommCost.h"
#include "exec/Machine.h"
#include "frontend/IRGen.h"
#include "fuzz/ProgGen.h"
#include "pass/StandardInstrumentations.h"
#include "runtime/RuntimeAuditor.h"
#include "server/SessionManager.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "transform/Pipeline.h"
#include "workloads/Runner.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace cgcm;

namespace {

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

/// Microseconds on the same clock the pass manager's trace spans use.
double nowUs() {
  return std::chrono::duration<double, std::micro>(
             Clock::now().time_since_epoch())
      .count();
}

/// splitmix64: every seeded choice (program seeds, shuffles) draws from
/// it, so one seed gives the same inputs on every platform.
uint64_t splitmix(uint64_t &State) {
  State += 0x9E3779B97F4A7C15ull;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

template <typename T> void shuffle(std::vector<T> &V, uint64_t &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[splitmix(Rng) % I]);
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ull;
  return H;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile, P in (0, 1].
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(V.size())));
  return V[std::max<size_t>(Rank, 1) - 1];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / static_cast<double>(V.size()));
}

unsigned hostCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return 1;
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, is not carried over from the parent across exec.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0;
}

//===----------------------------------------------------------------------===//
// Spans (traced run only)
//===----------------------------------------------------------------------===//

struct Span {
  uint32_t Id = 0;
  uint32_t Parent = 0; ///< 0 = op root.
  uint64_t Op = 0;
  std::string Name;
  double StartUs = 0, EndUs = 0;
};

/// In-memory span recorder. Disabled, every call is a branch.
class Tracer {
public:
  bool Enabled = false;
  std::vector<Span> Spans;

  void beginOp() { ++OpId; }
  uint32_t begin(const char *Name) {
    if (!Enabled)
      return 0;
    Span S;
    S.Id = static_cast<uint32_t>(Spans.size()) + 1;
    S.Parent = Stack.empty() ? 0 : Stack.back();
    S.Op = OpId;
    S.Name = Name;
    S.StartUs = nowUs();
    Spans.push_back(std::move(S));
    Stack.push_back(Spans.back().Id);
    return Spans.back().Id;
  }
  void end(uint32_t Id) {
    if (!Enabled || !Id)
      return;
    Spans[Id - 1].EndUs = nowUs();
    Stack.pop_back();
  }
  /// Adopts the pass manager's spans (µs, same clock) as children of the
  /// open span, nesting fixpoint members under their group.
  void importPassSpans(const std::vector<TraceEvent> &Events) {
    if (!Enabled)
      return;
    uint32_t Root = Stack.empty() ? 0 : Stack.back();
    std::vector<TraceEvent> Sorted;
    for (const TraceEvent &E : Events)
      if (E.Phase == TracePhase::Complete && E.Category == "pass")
        Sorted.push_back(E);
    // Parents first: earlier start, then the longer span.
    std::sort(Sorted.begin(), Sorted.end(),
              [](const TraceEvent &A, const TraceEvent &B) {
                if (A.TsCycles != B.TsCycles)
                  return A.TsCycles < B.TsCycles;
                return A.DurCycles > B.DurCycles;
              });
    std::vector<uint32_t> Open{Root};
    for (const TraceEvent &E : Sorted) {
      double End = E.TsCycles + E.DurCycles;
      while (Open.size() > 1 && Spans[Open.back() - 1].EndUs < End)
        Open.pop_back();
      Span S;
      S.Id = static_cast<uint32_t>(Spans.size()) + 1;
      S.Parent = Open.back();
      S.Op = OpId;
      S.Name = "pass." + E.Name;
      S.StartUs = E.TsCycles;
      S.EndUs = End;
      Spans.push_back(std::move(S));
      Open.push_back(Spans.back().Id);
    }
  }

private:
  std::vector<uint32_t> Stack;
  uint64_t OpId = 0;
};

class Scope {
public:
  Scope(Tracer &T, const char *Name) : T(T), Id(T.begin(Name)) {}
  ~Scope() { T.end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  uint32_t Id;
};

//===----------------------------------------------------------------------===//
// One program run through the layers
//===----------------------------------------------------------------------===//

/// What one program run leaves behind: output plus every deterministic
/// count and modeled value (compared exactly across rounds).
struct RunRecord {
  std::string Output;
  bool Ok = true;
  std::string Error;
  // Modeled (deterministic) figures.
  double TotalCycles = 0, CommCycles = 0, KernelCycles = 0,
         RuntimeCycles = 0;
  uint64_t CpuOps = 0, GpuOps = 0, KernelLaunches = 0, RuntimeCalls = 0,
           EpochSuppressed = 0, BytesHtoD = 0, BytesDtoH = 0, Transfers = 0,
           PeakResident = 0, IndexProbes = 0, XlatHits = 0;
  // Compiler counts.
  uint64_t IrInsts = 0, IrInstsOut = 0, MapPromoted = 0, AnalysisHits = 0,
           AnalysisBuilds = 0;

  /// Compiler counts are collected only in traced runs, so they are left
  /// out: traced records are compared with untraced ones.
  bool sameAs(const RunRecord &O) const {
    return Output == O.Output && Ok == O.Ok && TotalCycles == O.TotalCycles &&
           CommCycles == O.CommCycles && KernelCycles == O.KernelCycles &&
           RuntimeCycles == O.RuntimeCycles && CpuOps == O.CpuOps &&
           GpuOps == O.GpuOps && KernelLaunches == O.KernelLaunches &&
           RuntimeCalls == O.RuntimeCalls &&
           EpochSuppressed == O.EpochSuppressed &&
           BytesHtoD == O.BytesHtoD && BytesDtoH == O.BytesDtoH &&
           Transfers == O.Transfers && PeakResident == O.PeakResident &&
           IndexProbes == O.IndexProbes && XlatHits == O.XlatHits;
  }
};

/// The runtime's lookup counters live in the process-wide registry;
/// deltas around one single-threaded run belong to that run.
struct RuntimeProbes {
  MetricCounter &Hits = MetricsRegistry::get().counter("runtime.xlat.hits");
  MetricHistogram &Probes =
      MetricsRegistry::get().histogram("runtime.index.probes");
};

/// Mirrors runWorkload's configuration switch, one layer at a time.
void configFor(BenchConfig C, PipelineOptions &Opts, LaunchPolicy &Policy) {
  Policy = LaunchPolicy::Managed;
  switch (C) {
  case BenchConfig::Sequential:
    Opts.Parallelize = false;
    Opts.Manage = false;
    Opts.Optimize = false;
    Policy = LaunchPolicy::CpuEmulation;
    break;
  case BenchConfig::CGCMUnoptimized:
    Opts.Optimize = false;
    break;
  default:
    break;
  }
}

struct RunOptions {
  bool Commcost = false; ///< Statically check the post-pipeline module.
  /// Traced run: collect compiler counts, and decode every function
  /// before run so decode time gets its own span.
  bool Traced = false;
};

/// Compiles \p Src, runs the pipeline for \p C, optionally checks it
/// statically, executes it under a RuntimeAuditor, and tears it down --
/// each step in its own span.
RunRecord runProgram(const std::string &Name, const std::string &Src,
                     BenchConfig C, const RunOptions &RO, Tracer &T) {
  static RuntimeProbes RP;
  RunRecord R;
  PipelineOptions Opts;
  LaunchPolicy Policy;
  configFor(C, Opts, Policy);

  std::unique_ptr<Module> M;
  {
    Scope S(T, "frontend");
    M = compileMiniC(Src, Name);
  }
  if (RO.Traced)
    R.IrInsts = moduleInstructionCount(*M);

  ModuleAnalysisManager AM;
  {
    Scope S(T, "pass");
    std::unique_ptr<TraceCollector> PassTrace;
    PipelineRunOptions PRO;
    PRO.AM = &AM;
    if (T.Enabled) {
      PassTrace = std::make_unique<TraceCollector>(256);
      PassTrace->setEnabled(true);
      PRO.Trace = PassTrace.get();
    }
    PipelineResult P =
        runPassPipeline(*M, buildDefaultPipelineText(Opts), PRO);
    if (PassTrace)
      T.importPassSpans(PassTrace->snapshot());
    R.MapPromoted = P.MapPromo.LoopHoists + P.MapPromo.FunctionHoists;
  }
  if (RO.Traced) {
    R.IrInstsOut = moduleInstructionCount(*M);
    for (const AnalysisCacheStats &CS : AM.getCacheStats()) {
      R.AnalysisHits += CS.Hits;
      R.AnalysisBuilds += CS.Constructions;
    }
  }

  if (RO.Commcost) {
    Scope S(T, "commcost");
    CommCostReport Rep = runCommCostAnalysis(*M);
    for (const Diagnostic &D : Rep.Diagnostics)
      if (D.Severity == DiagSeverity::Error) {
        R.Ok = false;
        R.Error += "commcost " + D.ID + ": " + D.Message + "\n";
      }
  }

  uint64_t Hits0 = RP.Hits.value(), Probes0 = RP.Probes.count();
  RuntimeAuditor Auditor;
  auto Mach = std::make_unique<Machine>();
  {
    Scope S(T, "exec.load");
    Mach->setLaunchPolicy(Policy);
    Mach->setOpLimit(500u * 1000u * 1000u);
    Mach->getRuntime().setObserver(&Auditor);
    Mach->loadModule(*M);
  }
  if (RO.Traced) {
    Scope S(T, "exec.decode");
    for (const auto &F : M->functions())
      if (!F->isDeclaration())
        Mach->getDecoded(F.get());
  }
  {
    Scope S(T, "exec.run");
    Mach->run();
  }
  {
    Scope S(T, "check");
    Auditor.finish(Mach->getRuntime(), Mach->getDevice(), Mach->getStats());
    if (!Auditor.getReport().clean()) {
      R.Ok = false;
      R.Error += "audit: " + Auditor.getReport().str() + "\n";
    }
    const ExecStats &St = Mach->getStats();
    R.Output = Mach->getOutput();
    R.TotalCycles = St.wallCycles();
    R.CommCycles = St.CommCycles;
    R.KernelCycles = St.GpuCycles;
    R.RuntimeCycles = St.RuntimeCycles;
    R.CpuOps = St.CpuOps;
    R.GpuOps = St.GpuOps;
    R.KernelLaunches = St.KernelLaunches;
    R.RuntimeCalls = St.RuntimeCalls;
    R.EpochSuppressed = St.EpochSuppressedCopies;
    R.BytesHtoD = St.BytesHtoD;
    R.BytesDtoH = St.BytesDtoH;
    R.Transfers = St.TransfersHtoD + St.TransfersDtoH;
    R.PeakResident = St.PeakResidentDeviceBytes;
    R.XlatHits = RP.Hits.value() - Hits0;
    R.IndexProbes = RP.Probes.count() - Probes0;
  }
  {
    Scope S(T, "teardown");
    Mach.reset();
    M.reset();
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Expected outputs of the 24 paper programs
//===----------------------------------------------------------------------===//

// File format: a '#' comment line, then per program a header line
// "@@ <name> <bytes>" followed by exactly <bytes> bytes of output and a
// newline.
bool loadExpected(const std::string &Path,
                  std::map<std::string, std::string> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Text = SS.str();
  size_t Pos = Text.find("\n@@ ");
  while (Pos != std::string::npos) {
    size_t LineEnd = Text.find('\n', Pos + 1);
    if (LineEnd == std::string::npos)
      return false;
    std::istringstream Hdr(Text.substr(Pos + 4, LineEnd - Pos - 4));
    std::string Name;
    size_t Bytes = 0;
    if (!(Hdr >> Name >> Bytes) || LineEnd + 1 + Bytes > Text.size())
      return false;
    Out[Name] = Text.substr(LineEnd + 1, Bytes);
    Pos = Text.find("\n@@ ", LineEnd + Bytes);
  }
  return !Out.empty();
}

/// Maintenance mode: runs every paper program under the three configs,
/// requires them to agree, and writes the expected-output file.
int recordExpected(const std::string &Path) {
  std::ofstream OS(Path, std::ios::binary);
  OS << "# Expected printed output of the 24 paper programs; identical "
        "under sequential, cgcm-unoptimized and cgcm-optimized.\n";
  for (const Workload &W : getWorkloads()) {
    std::string Seq = runWorkload(W, BenchConfig::Sequential).Output;
    for (BenchConfig C :
         {BenchConfig::CGCMUnoptimized, BenchConfig::CGCMOptimized})
      if (runWorkload(W, C).Output != Seq) {
        std::fprintf(stderr, "perfbench: %s output differs under %s\n",
                     W.Name.c_str(), getConfigName(C));
        return 1;
      }
    OS << "@@ " << W.Name << " " << Seq.size() << "\n" << Seq << "\n";
  }
  return OS ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Measurement bookkeeping
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<double> OpMs;
  /// Completed ops per wall second of each round; a median of these is
  /// robust to a burst of host contention inside a run.
  std::vector<double> RoundRates;
  std::vector<std::string> Errors;

  void fail(const std::string &What) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(What);
  }
};

/// Per-layer aggregation over the traced run's op trees.
struct LayerProfile {
  std::map<std::string, double> SelfUsByName;  ///< exec.run, pass.doall...
  std::map<std::string, double> SelfUsByLayer; ///< frontend, pass, exec...
  double OpWallUs = 0;
  double RootSelfUs = 0; ///< Op time no layer span covers.
  double WorstOpRootShare = 0;
  uint64_t Ops = 0;
};

std::string layerOf(const std::string &Name) {
  return Name.substr(0, Name.find('.'));
}

LayerProfile profileSpans(const std::vector<Span> &Spans) {
  LayerProfile P;
  std::vector<double> ChildUs(Spans.size() + 1, 0.0);
  for (const Span &S : Spans)
    if (S.Parent)
      ChildUs[S.Parent] += S.EndUs - S.StartUs;
  for (const Span &S : Spans) {
    double Dur = S.EndUs - S.StartUs;
    double Self = Dur - ChildUs[S.Id];
    if (!S.Parent) {
      P.OpWallUs += Dur;
      P.RootSelfUs += Self;
      ++P.Ops;
      if (Dur > 0)
        P.WorstOpRootShare = std::max(P.WorstOpRootShare, Self / Dur);
      continue;
    }
    P.SelfUsByName[S.Name] += Self;
    P.SelfUsByLayer[layerOf(S.Name)] += Self;
  }
  return P;
}

void writeSpans(const std::string &Path, const std::vector<Span> &Spans) {
  if (Path.empty())
    return;
  std::ofstream OS(Path);
  for (const Span &S : Spans) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "\"start_us\":%.3f,\"end_us\":%.3f",
                  S.StartUs, S.EndUs);
    OS << "{\"op\":" << S.Op << ",\"id\":" << S.Id << ",\"parent\":"
       << S.Parent << ",\"name\":\"" << S.Name << "\"," << Buf << "}\n";
  }
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string DataDir = "perfbench";
  std::string SpansOut;
};

/// One unit of single-threaded work: a program under one or two configs.
struct OpSpec {
  std::string Name;
  const std::string *Source = nullptr;
  std::vector<BenchConfig> Configs; ///< Runs, in order; outputs must agree.
  const std::string *Expected = nullptr; ///< Null: compare to Configs[0].
  bool Commcost = false; ///< Check the last config's module statically.
};

struct RoundResult {
  std::vector<std::vector<RunRecord>> Runs; ///< Per op, per config.
  std::vector<double> Ms;                   ///< Per op wall time.
};

/// The figures a workload reports; filled by the workload and printed by
/// main.
struct Report {
  std::vector<Metric> EndToEnd;
  std::vector<Metric> Extra; ///< Printed, not part of the JSON line.
  std::vector<Metric> PerLayer;
  Tally T;
  bool Correct = true;
  /// Hash of every output, count and modeled value of one round; equal
  /// across runs of one seed (eviction counts excluded).
  uint64_t Digest = 0;
};

const char *PassNames[] = {"mem2reg",   "doall",      "comm",
                           "fixpoint",  "glue",       "alloca-promote",
                           "map-promote", "simplify", "verify",
                           "verify-par"};

/// Runs \p Ops once in order, timing each, checking outputs.
RoundResult runRound(const std::vector<OpSpec> &Ops, const RunOptions &RO,
                     Tracer &Tr, Tally &T) {
  RoundResult RR;
  RR.Runs.reserve(Ops.size());
  double BusyMs = 0;
  size_t Completed = 0;
  for (const OpSpec &Op : Ops) {
    Tr.beginOp();
    double T0 = nowUs();
    uint32_t Root = Tr.begin("op");
    std::vector<RunRecord> Runs;
    for (size_t I = 0; I < Op.Configs.size(); ++I) {
      RunOptions Opt = RO;
      Opt.Commcost = Op.Commcost && I + 1 == Op.Configs.size();
      Runs.push_back(runProgram(Op.Name, *Op.Source, Op.Configs[I], Opt, Tr));
    }
    Tr.end(Root);
    double Ms = (nowUs() - T0) / 1000.0;
    ++T.Attempted;
    const std::string &Ref = Op.Expected ? *Op.Expected : Runs[0].Output;
    bool Ok = true;
    for (size_t I = 0; I < Runs.size(); ++I) {
      if (!Runs[I].Ok) {
        Ok = false;
        T.fail(Op.Name + " under " + getConfigName(Op.Configs[I]) + ": " +
               Runs[I].Error);
      } else if (Runs[I].Output != Ref) {
        Ok = false;
        T.fail(Op.Name + " under " + getConfigName(Op.Configs[I]) +
               ": output mismatch");
      }
    }
    if (Ok) {
      T.OpMs.push_back(Ms);
      BusyMs += Ms;
      ++Completed;
    }
    RR.Runs.push_back(std::move(Runs));
    RR.Ms.push_back(Ms);
  }
  if (BusyMs > 0)
    T.RoundRates.push_back(static_cast<double>(Completed) * 1000.0 / BusyMs);
  return RR;
}

/// Compares a later round against the first: every count and modeled
/// value must repeat exactly.
void checkDeterminism(const RoundResult &First, const RoundResult &Now,
                      const std::vector<OpSpec> &Ops, Tally &T) {
  for (size_t I = 0; I < Ops.size(); ++I)
    for (size_t J = 0; J < Now.Runs[I].size(); ++J)
      if (!Now.Runs[I][J].sameAs(First.Runs[I][J]))
        T.fail(Ops[I].Name + " under " + getConfigName(Ops[I].Configs[J]) +
               ": counts or modeled cycles differ between rounds");
}

/// Whether another round of \p RoundS seconds, started now, ends closer
/// to the \p Seconds budget than stopping here.
bool moreRounds(double T0, double RoundS, double Seconds) {
  return (nowUs() - T0) / 1e6 + RoundS / 2 < Seconds;
}

/// Rounds of \p Ops until \p Seconds of wall time have passed (at least
/// one). Every round is compared with \p Reference, or, when that is
/// null, with the first round, which is returned.
RoundResult measureRounds(const std::vector<OpSpec> &Ops, const RunOptions &RO,
                          Tracer &Tr, Tally &T, double Seconds,
                          const RoundResult *Reference) {
  double T0 = nowUs();
  RoundResult First = runRound(Ops, RO, Tr, T);
  if (Reference)
    checkDeterminism(*Reference, First, Ops, T);
  double RoundS = (nowUs() - T0) / 1e6;
  while (moreRounds(T0, RoundS, Seconds))
    checkDeterminism(Reference ? *Reference : First,
                     runRound(Ops, RO, Tr, T), Ops, T);
  return First;
}

uint64_t digestOf(const RoundResult &RR) {
  std::string S;
  char Buf[512];
  for (const auto &Op : RR.Runs)
    for (const RunRecord &R : Op) {
      std::snprintf(
          Buf, sizeof(Buf),
          "%a %a %a %a %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu "
          "%llu|",
          R.TotalCycles, R.CommCycles, R.KernelCycles, R.RuntimeCycles,
          (unsigned long long)R.CpuOps, (unsigned long long)R.GpuOps,
          (unsigned long long)R.KernelLaunches,
          (unsigned long long)R.RuntimeCalls,
          (unsigned long long)R.EpochSuppressed,
          (unsigned long long)R.BytesHtoD, (unsigned long long)R.BytesDtoH,
          (unsigned long long)R.Transfers, (unsigned long long)R.PeakResident,
          (unsigned long long)R.IndexProbes, (unsigned long long)R.XlatHits);
      S += R.Output;
      S += Buf;
    }
  return fnv1a(S);
}

/// Sums a count over the first round's records.
template <typename F> double sumRuns(const RoundResult &RR, F Field) {
  double S = 0;
  for (const auto &Op : RR.Runs)
    for (const RunRecord &R : Op)
      S += static_cast<double>(Field(R));
  return S;
}

/// Modeled metrics over one round: geomean speedup of each managed
/// config over the op's sequential run, and bytes moved by the
/// optimized runs.
void modeledMetrics(const std::vector<OpSpec> &Ops, const RoundResult &RR,
                    const std::map<std::string, double> &SeqCycles,
                    Report &Rep, bool Unopt) {
  std::vector<double> Opt, Un;
  double Bytes = 0;
  for (size_t I = 0; I < Ops.size(); ++I)
    for (size_t J = 0; J < Ops[I].Configs.size(); ++J) {
      const RunRecord &R = RR.Runs[I][J];
      double Seq = SeqCycles.at(Ops[I].Name);
      if (Ops[I].Configs[J] == BenchConfig::CGCMOptimized) {
        Opt.push_back(Seq / R.TotalCycles);
        Bytes += static_cast<double>(R.BytesHtoD + R.BytesDtoH);
      } else if (Ops[I].Configs[J] == BenchConfig::CGCMUnoptimized) {
        Un.push_back(Seq / R.TotalCycles);
      }
    }
  Rep.EndToEnd.push_back({"modeled_speedup_opt", geomean(Opt), "x"});
  Rep.EndToEnd.push_back({"modeled_bytes_moved", Bytes, "B"});
  if (Unopt)
    Rep.Extra.push_back({"modeled_speedup_unopt", geomean(Un), "x"});
}

/// Per-layer metrics from a traced round set and its first round.
void layerMetrics(const LayerProfile &P, const RoundResult &RR,
                  Report &Rep) {
  double Ops = std::max<double>(1, static_cast<double>(P.Ops));
  auto MsPerOp = [&](double Us) { return Us / 1000.0 / Ops; };
  auto Self = [&](const std::string &N) {
    auto It = P.SelfUsByName.find(N);
    return It == P.SelfUsByName.end() ? 0.0 : It->second;
  };
  auto Layer = [&](const std::string &N) {
    auto It = P.SelfUsByLayer.find(N);
    return It == P.SelfUsByLayer.end() ? 0.0 : It->second;
  };
  double Wall = std::max(P.OpWallUs, 1.0);
  auto &L = Rep.PerLayer;
  L.push_back({"frontend.ms", MsPerOp(Layer("frontend")), "ms"});
  L.push_back({"frontend.share", Layer("frontend") / Wall, "ratio"});
  L.push_back({"frontend.ir_insts",
               sumRuns(RR, [](const RunRecord &R) { return R.IrInsts; }),
               "count"});
  L.push_back({"pass.ms", MsPerOp(Layer("pass")), "ms"});
  L.push_back({"pass.share", Layer("pass") / Wall, "ratio"});
  for (const char *N : PassNames)
    L.push_back({std::string("pass.") + N + ".ms",
                 MsPerOp(Self(std::string("pass.") + N)), "ms"});
  double Hits = sumRuns(RR, [](const RunRecord &R) { return R.AnalysisHits; });
  double Builds =
      sumRuns(RR, [](const RunRecord &R) { return R.AnalysisBuilds; });
  L.push_back({"pass.analysis_hit_ratio",
               Hits + Builds > 0 ? Hits / (Hits + Builds) : 0, "ratio"});
  L.push_back({"pass.map_promote.applied",
               sumRuns(RR, [](const RunRecord &R) { return R.MapPromoted; }),
               "count"});
  L.push_back({"pass.ir_insts_out",
               sumRuns(RR, [](const RunRecord &R) { return R.IrInstsOut; }),
               "count"});
  // Printed only where the layer runs: a time that is 0 on every run of
  // a workload is no measurement.
  if (Layer("commcost") > 0)
    Rep.Extra.push_back({"commcost.ms", MsPerOp(Layer("commcost")), "ms"});
  double RunUs = Self("exec.run");
  L.push_back({"exec.load_ms", MsPerOp(Self("exec.load")), "ms"});
  L.push_back({"exec.decode_ms", MsPerOp(Self("exec.decode")), "ms"});
  L.push_back({"exec.run_ms", MsPerOp(RunUs), "ms"});
  L.push_back({"exec.share", Layer("exec") / Wall, "ratio"});
  double CpuOps = sumRuns(RR, [](const RunRecord &R) { return R.CpuOps; });
  double GpuOps = sumRuns(RR, [](const RunRecord &R) { return R.GpuOps; });
  L.push_back({"exec.cpu_ops", CpuOps, "count"});
  L.push_back({"exec.gpu_ops", GpuOps, "count"});
  // Interpreted ops per round vs exec.run time per round: the traced run
  // covers whole rounds, so scale the summed self time by rounds.
  double Rounds = Ops / std::max<double>(1, static_cast<double>(RR.Runs.size()));
  L.push_back({"exec.ns_per_op",
               CpuOps + GpuOps > 0 ? RunUs * 1000.0 / Rounds / (CpuOps + GpuOps)
                                   : 0,
               "ns/op"});
  L.push_back({"exec.kernel_launches",
               sumRuns(RR, [](const RunRecord &R) { return R.KernelLaunches; }),
               "count"});
  L.push_back({"runtime.calls",
               sumRuns(RR, [](const RunRecord &R) { return R.RuntimeCalls; }),
               "count"});
  double Probes = sumRuns(RR, [](const RunRecord &R) { return R.IndexProbes; });
  double Xlat = sumRuns(RR, [](const RunRecord &R) { return R.XlatHits; });
  L.push_back({"runtime.index_probes", Probes, "count"});
  L.push_back({"runtime.xlat_hit_ratio",
               Probes + Xlat > 0 ? Xlat / (Probes + Xlat) : 0, "ratio"});
  L.push_back({"runtime.epoch_suppressed",
               sumRuns(RR, [](const RunRecord &R) { return R.EpochSuppressed; }),
               "count"});
  L.push_back({"runtime.modeled_cycles",
               sumRuns(RR, [](const RunRecord &R) { return R.RuntimeCycles; }),
               "cycles"});
  L.push_back({"gpusim.bytes_htod",
               sumRuns(RR, [](const RunRecord &R) { return R.BytesHtoD; }), "B"});
  L.push_back({"gpusim.bytes_dtoh",
               sumRuns(RR, [](const RunRecord &R) { return R.BytesDtoH; }), "B"});
  L.push_back({"gpusim.transfers",
               sumRuns(RR, [](const RunRecord &R) { return R.Transfers; }),
               "count"});
  double Peak = 0;
  for (const auto &Op : RR.Runs)
    for (const RunRecord &R : Op)
      Peak = std::max(Peak, static_cast<double>(R.PeakResident));
  L.push_back({"gpusim.peak_resident_bytes", Peak, "B"});
  L.push_back({"gpusim.modeled_comm_cycles",
               sumRuns(RR, [](const RunRecord &R) { return R.CommCycles; }),
               "cycles"});
  L.push_back({"gpusim.modeled_kernel_cycles",
               sumRuns(RR, [](const RunRecord &R) { return R.KernelCycles; }),
               "cycles"});
}

/// The server metrics, zero where the workload has no server.
struct ServerFigures {
  double ReplayMs = 0, Efficiency = 0, Evictions = 0, EvictedBytes = 0,
         CapacityStalls = 0, LeasesCreated = 0, PeakResident = 0;
};

void serverLayerMetrics(const ServerFigures &S, Report &Rep) {
  auto &L = Rep.PerLayer;
  if (S.ReplayMs > 0)
    Rep.Extra.push_back({"server.replay_ms", S.ReplayMs, "ms"});
  L.push_back({"server.parallel_efficiency", S.Efficiency, "ratio"});
  L.push_back({"server.evictions", S.Evictions, "count"});
  L.push_back({"server.evicted_bytes", S.EvictedBytes, "B"});
  L.push_back({"server.capacity_stalls", S.CapacityStalls, "count"});
  L.push_back({"server.leases_created", S.LeasesCreated, "count"});
  L.push_back({"server.peak_resident_bytes", S.PeakResident, "B"});
}

/// Unattributed op time the traced run tolerates: harness glue between
/// layer spans must stay below this share of summed op wall time.
constexpr double SelfTimeTolerance = 0.02;

void checkSelfTimes(const LayerProfile &P, Report &Rep) {
  double Share = P.OpWallUs > 0 ? P.RootSelfUs / P.OpWallUs : 0;
  std::printf("trace: %llu ops, layer self times cover %.3f%% of op wall "
              "time (tolerance %.1f%%), worst op %.2f%% unattributed\n",
              static_cast<unsigned long long>(P.Ops), 100.0 * (1.0 - Share),
              100.0 * SelfTimeTolerance, 100.0 * P.WorstOpRootShare);
  if (Share > SelfTimeTolerance) {
    Rep.Correct = false;
    Rep.T.Errors.push_back("layer self times miss op wall time by more than "
                           "the tolerance");
  }
}

/// Setup: builds the inputs \p Reps times (the first build is kept) and
/// runs one warm-up op after each; reports the median.
template <typename Prep, typename Warm>
double measureSetup(unsigned Reps, Prep Prepare, Warm WarmUp) {
  std::vector<double> S;
  for (unsigned I = 0; I < Reps; ++I) {
    double T0 = nowUs();
    Prepare(I == 0);
    WarmUp();
    S.push_back((nowUs() - T0) / 1e6);
  }
  return median(S);
}

constexpr unsigned SetupReps = 9;

double opsPerSecond(const Tally &T) { return median(T.RoundRates); }

void merge(Tally &Into, const Tally &From) {
  Into.Attempted += From.Attempted;
  Into.Failed += From.Failed;
  for (const std::string &E : From.Errors)
    if (Into.Errors.size() < 8)
      Into.Errors.push_back(E);
}

/// Runs single-threaded op rounds: untraced for the end-to-end metrics;
/// for the per-layer ones, an untraced half then a traced half whose
/// records must equal the untraced ones exactly.
void runOpWorkload(const Args &A, const std::vector<OpSpec> &Ops,
                   bool Unopt, Report &Rep) {
  Tracer Plain;
  if (!A.Trace) {
    RoundResult First =
        measureRounds(Ops, RunOptions(), Plain, Rep.T, A.Seconds, nullptr);
    Rep.EndToEnd.push_back({"ops_per_s", opsPerSecond(Rep.T), "1/s"});
    Rep.EndToEnd.push_back({"op_ms_p50", percentile(Rep.T.OpMs, 0.5), "ms"});
    Rep.EndToEnd.push_back({"op_ms_p90", percentile(Rep.T.OpMs, 0.9), "ms"});
    // Sequential modeled cycles per program, from its sequential run.
    std::map<std::string, double> Seq;
    for (size_t I = 0; I < Ops.size(); ++I)
      if (Ops[I].Configs[0] == BenchConfig::Sequential)
        Seq[Ops[I].Name] = First.Runs[I][0].TotalCycles;
    modeledMetrics(Ops, First, Seq, Rep, Unopt);
    Rep.Digest = digestOf(First);
    return;
  }
  double Half = A.Seconds / 2;
  RoundResult First =
      measureRounds(Ops, RunOptions(), Plain, Rep.T, Half, nullptr);
  Tracer Tr;
  Tr.Enabled = true;
  RunOptions RO;
  RO.Traced = true;
  Tally TT;
  // Predecoding is reported apart from exec.run only because these
  // traced records must reproduce the untraced ones exactly.
  RoundResult Traced = measureRounds(Ops, RO, Tr, TT, Half, &First);
  merge(Rep.T, TT);
  Rep.Digest = digestOf(First);
  LayerProfile P = profileSpans(Tr.Spans);
  checkSelfTimes(P, Rep);
  layerMetrics(P, Traced, Rep);
  serverLayerMetrics(ServerFigures(), Rep);
  Rep.PerLayer.push_back(
      {"trace.overhead_pct",
       100.0 * (opsPerSecond(Rep.T) / opsPerSecond(TT) - 1.0), "%"});
  writeSpans(A.SpansOut, Tr.Spans);
}

//----------------------------------------------------------------------------
// paper-suite
//----------------------------------------------------------------------------

int paperSuite(const Args &A, Report &Rep) {
  std::map<std::string, std::string> Expected;
  std::vector<OpSpec> Ops;
  std::vector<Workload> Suite;
  auto Prepare = [&](bool Keep) {
    std::map<std::string, std::string> E;
    if (!loadExpected(A.DataDir + "/expected_outputs.txt", E))
      return false;
    std::vector<Workload> S = getWorkloads();
    std::vector<std::pair<size_t, BenchConfig>> Order;
    for (size_t I = 0; I < S.size(); ++I)
      for (BenchConfig C : {BenchConfig::Sequential,
                            BenchConfig::CGCMUnoptimized,
                            BenchConfig::CGCMOptimized})
        Order.push_back({I, C});
    uint64_t Rng = A.Seed;
    shuffle(Order, Rng);
    if (Keep) {
      Expected = std::move(E);
      Suite = std::move(S);
      for (auto &[I, C] : Order) {
        OpSpec Op;
        Op.Name = Suite[I].Name;
        Op.Source = &Suite[I].Source;
        Op.Configs = {C};
        auto It = Expected.find(Op.Name);
        Op.Expected = It == Expected.end() ? nullptr : &It->second;
        Ops.push_back(std::move(Op));
      }
    }
    return true;
  };
  if (!Prepare(false)) {
    std::fprintf(stderr, "perfbench: cannot read %s/expected_outputs.txt\n",
                 A.DataDir.c_str());
    return 2;
  }
  const Workload *Warm = findWorkload("gemm");
  Tracer Off;
  double Setup = measureSetup(SetupReps, Prepare, [&] {
    runProgram(Warm->Name, Warm->Source, BenchConfig::CGCMOptimized,
               RunOptions(), Off);
  });
  for (const OpSpec &Op : Ops)
    if (!Op.Expected)
      Rep.T.fail(Op.Name + ": no expected output recorded");

  runOpWorkload(A, Ops, true, Rep);
  if (!A.Trace)
    Rep.EndToEnd.push_back({"setup_s", Setup, "s"});
  return 0;
}

//----------------------------------------------------------------------------
// fuzz-programs
//----------------------------------------------------------------------------

constexpr unsigned FuzzPrograms = 300;

int fuzzPrograms(const Args &A, Report &Rep) {
  std::vector<std::string> Sources;
  std::vector<OpSpec> Ops;
  auto Prepare = [&](bool Keep) {
    std::vector<std::string> Src;
    std::vector<std::string> Names;
    uint64_t Rng = A.Seed ^ 0xF022ull;
    for (unsigned I = 0; I < FuzzPrograms; ++I) {
      uint64_t S = splitmix(Rng);
      Src.push_back(generateProgram(S).render());
      Names.push_back("fuzz-" + std::to_string(S));
    }
    if (Keep) {
      Sources = std::move(Src);
      for (size_t I = 0; I < Sources.size(); ++I) {
        OpSpec Op;
        Op.Name = Names[I];
        Op.Source = &Sources[I];
        Op.Configs = {BenchConfig::Sequential, BenchConfig::CGCMOptimized};
        Op.Commcost = true;
        Ops.push_back(std::move(Op));
      }
    }
    return true;
  };
  std::string WarmSrc = generateProgram(0).render();
  Tracer Off;
  double Setup = measureSetup(SetupReps, Prepare, [&] {
    runProgram("warm", WarmSrc, BenchConfig::CGCMOptimized, RunOptions(), Off);
  });
  runOpWorkload(A, Ops, false, Rep);
  if (!A.Trace)
    Rep.EndToEnd.push_back({"setup_s", Setup, "s"});
  return 0;
}

//----------------------------------------------------------------------------
// server-evict
//----------------------------------------------------------------------------

/// One round's mix: every paper (program, config) pair this many times,
/// plus this many distinct generated programs, in seeded order.
constexpr unsigned ServerPaperCopies = 4;
constexpr unsigned ServerGenerated = 48;

int serverEvict(const Args &A, Report &Rep) {
  struct Program {
    std::string Name;
    std::string Source;
    BenchConfig Config;
    std::string Key; ///< Source identity, shared by +unopt.
    unsigned Copies = 1;
  };
  std::vector<Program> Distinct;
  std::vector<size_t> Mix; ///< Indices into Distinct, in request order.
  std::vector<ServerRequest> Reqs;
  unsigned Workers = std::max(1u, hostCpus() - 1);
  ServerConfig SC;
  SC.Threads = Workers;
  SC.Quotas.SessionDeviceBytes = 64ull << 10;
  SC.Quotas.GlobalDeviceBytes = 256ull << 10;

  auto Prepare = [&](bool Keep) {
    std::vector<Program> D;
    for (const Workload &W : getWorkloads()) {
      D.push_back({W.Name, W.Source, BenchConfig::CGCMOptimized, W.Name,
                   ServerPaperCopies});
      D.push_back({W.Name + "+unopt", W.Source, BenchConfig::CGCMUnoptimized,
                   W.Name, ServerPaperCopies});
    }
    uint64_t Rng = A.Seed ^ 0x5E7Eull;
    for (unsigned I = 0; I < ServerGenerated; ++I) {
      uint64_t S = splitmix(Rng);
      std::string N = "fuzz-" + std::to_string(S);
      D.push_back({N, generateProgram(S).render(), BenchConfig::CGCMOptimized,
                   N, 1});
    }
    std::vector<size_t> M;
    for (size_t I = 0; I < D.size(); ++I)
      M.insert(M.end(), D[I].Copies, I);
    shuffle(M, Rng);
    std::vector<ServerRequest> R;
    for (size_t I : M)
      R.push_back({D[I].Name, D[I].Source, D[I].Config});
    if (Keep) {
      Distinct = std::move(D);
      Mix = std::move(M);
      Reqs = std::move(R);
    }
    return true;
  };
  const Workload *Warm = findWorkload("gemm");
  std::vector<ServerRequest> WarmReqs(
      Workers, ServerRequest{Warm->Name, Warm->Source,
                             BenchConfig::CGCMOptimized});
  double Setup = measureSetup(SetupReps, Prepare, [&] {
    SessionManager M(SC);
    M.replay(WarmReqs);
  });

  // Each round replays the whole mix on a fresh manager, so it starts
  // from an empty residency index.
  std::vector<ServerResponse> FirstRs;
  ServerStats FirstStats;
  std::vector<double> RoundMs;
  ServerFigures SF;
  auto Replays = [&](double Seconds, Tracer &Tr, Tally &T) {
    double T0 = nowUs(), RoundS = 0;
    do {
      SessionManager M(SC);
      Tr.beginOp();
      uint32_t Root = Tr.begin("op");
      uint32_t Sp = Tr.begin("server.replay");
      double R0 = nowUs();
      std::vector<ServerResponse> All = M.replay(Reqs);
      double Round = (nowUs() - R0) / 1000.0;
      Tr.end(Sp);
      Tr.end(Root);
      RoundMs.push_back(Round);
      RoundS = Round / 1000.0;
      ServerStats S = M.summarize(All);
      T.Attempted += All.size();
      size_t Completed = 0;
      for (size_t I = 0; I < All.size(); ++I) {
        // Lease and eviction counts depend on the interleave; outputs
        // and modeled cycles may not.
        bool Same = FirstRs.empty() ||
                    (All[I].Output == FirstRs[I].Output &&
                     All[I].ServiceCycles == FirstRs[I].ServiceCycles);
        if (!All[I].Ok)
          T.fail(All[I].Name + ": " + All[I].Error);
        else if (!Same)
          T.fail(All[I].Name + ": differs between rounds");
        else
          ++Completed;
      }
      T.RoundRates.push_back(static_cast<double>(Completed) * 1000.0 / Round);
      if (!FirstRs.empty() && S.P99LatencyCycles != FirstStats.P99LatencyCycles)
        T.fail("modeled p99 differs between rounds");
      const ResidencyIndex &Idx = M.index();
      SF.Evictions += static_cast<double>(Idx.evictions());
      SF.EvictedBytes += static_cast<double>(Idx.evictedBytes());
      SF.CapacityStalls += static_cast<double>(Idx.capacityStalls());
      SF.PeakResident = std::max(SF.PeakResident,
                                 static_cast<double>(Idx.peakResidentBytes()));
      for (const ServerResponse &R : All)
        SF.LeasesCreated += static_cast<double>(R.LeasesCreated);
      if (FirstRs.empty()) {
        FirstRs = std::move(All);
        FirstStats = S;
      }
    } while (moreRounds(T0, RoundS, Seconds));
  };

  Tracer Plain, Replayed;
  Replayed.Enabled = A.Trace;
  Tally TracedT;
  if (!A.Trace) {
    Replays(A.Seconds, Plain, Rep.T);
  } else {
    Replays(A.Seconds / 2, Plain, Rep.T);
    Replays(A.Seconds / 2, Replayed, TracedT);
    merge(Rep.T, TracedT);
  }

  // References: every distinct source's sequential run, and every
  // distinct request's solo run -- the work the replay parallelizes,
  // through the same layers as the other workloads (traced in the
  // traced run).
  std::vector<OpSpec> SeqOps, SoloOps;
  std::map<std::string, size_t> SeqIndex;
  for (const Program &P : Distinct) {
    SoloOps.push_back({P.Name, &P.Source, {P.Config}, nullptr, false});
    if (SeqIndex.emplace(P.Key, SeqOps.size()).second)
      SeqOps.push_back({P.Key, &P.Source, {BenchConfig::Sequential}, nullptr,
                        false});
  }
  Tally RefTally;
  Tracer Off, SoloTr;
  SoloTr.Enabled = A.Trace;
  RunOptions RO;
  RO.Traced = A.Trace;
  RoundResult SeqRR = runRound(SeqOps, RunOptions(), Off, RefTally);
  RoundResult SoloRR = runRound(SoloOps, RO, SoloTr, RefTally);
  for (const std::string &E : RefTally.Errors)
    Rep.T.fail("reference " + E);

  // Every response must match its program's sequential output, and its
  // modeled service cycles must equal the solo run's: eviction is pure
  // capacity accounting.
  std::vector<double> Opt, Un;
  double Bytes = 0;
  for (size_t I = 0; I < Mix.size(); ++I) {
    const Program &P = Distinct[Mix[I]];
    const RunRecord &Seq = SeqRR.Runs[SeqIndex.at(P.Key)][0];
    const RunRecord &Solo = SoloRR.Runs[Mix[I]][0];
    if (FirstRs[I].Output != Seq.Output)
      Rep.T.fail(P.Name + ": output differs from the sequential run");
    if (FirstRs[I].ServiceCycles != Solo.TotalCycles)
      Rep.T.fail(P.Name + ": service cycles differ from the solo run");
    double Speedup = Seq.TotalCycles / FirstRs[I].ServiceCycles;
    if (P.Config == BenchConfig::CGCMOptimized) {
      Opt.push_back(Speedup);
      Bytes += static_cast<double>(Solo.BytesHtoD + Solo.BytesDtoH);
    } else {
      Un.push_back(Speedup);
    }
  }
  Rep.Digest =
      digestOf(SoloRR) ^ fnv1a(std::to_string(FirstStats.P99LatencyCycles));

  double Rounds = static_cast<double>(RoundMs.size());
  SF.Evictions /= Rounds;
  SF.EvictedBytes /= Rounds;
  SF.CapacityStalls /= Rounds;
  SF.LeasesCreated /= Rounds;
  if (!A.Trace) {
    Rep.EndToEnd.push_back({"ops_per_s", opsPerSecond(Rep.T), "1/s"});
    // replay() takes only a whole batch, so per-request latency is not
    // observable from outside: these are replay ms per request, per round.
    std::vector<double> PerRequest;
    for (double Ms : RoundMs)
      PerRequest.push_back(Ms / static_cast<double>(Reqs.size()));
    Rep.EndToEnd.push_back({"op_ms_p50", percentile(PerRequest, 0.5), "ms"});
    Rep.EndToEnd.push_back({"op_ms_p90", percentile(PerRequest, 0.9), "ms"});
    Rep.EndToEnd.push_back({"modeled_speedup_opt", geomean(Opt), "x"});
    Rep.EndToEnd.push_back({"modeled_bytes_moved", Bytes, "B"});
    Rep.EndToEnd.push_back({"setup_s", Setup, "s"});
    Rep.Extra.push_back({"modeled_speedup_unopt", geomean(Un), "x"});
    Rep.Extra.push_back(
        {"modeled_p99_mcycles", FirstStats.P99LatencyCycles / 1e6, "Mcycles"});
    Rep.Extra.push_back({"server.evictions", SF.Evictions, "count"});
    Rep.Extra.push_back({"server.capacity_stalls", SF.CapacityStalls, "count"});
    Rep.Extra.push_back({"server.requests", static_cast<double>(Mix.size()),
                         "count"});
    Rep.Extra.push_back({"server.workers", static_cast<double>(Workers),
                         "count"});
    return 0;
  }

  LayerProfile P = profileSpans(SoloTr.Spans);
  checkSelfTimes(P, Rep);
  layerMetrics(P, SoloRR, Rep);
  // Solo wall time of the whole mix: each distinct request's solo op
  // time, times its copies.
  double SoloMs = 0;
  for (size_t I = 0; I < Distinct.size(); ++I)
    SoloMs += Distinct[I].Copies * SoloRR.Ms[I];
  SF.ReplayMs = median(RoundMs);
  SF.Efficiency = SoloMs / (Workers * SF.ReplayMs);
  serverLayerMetrics(SF, Rep);
  Rep.PerLayer.push_back(
      {"trace.overhead_pct",
       100.0 * (opsPerSecond(Rep.T) / opsPerSecond(TracedT) - 1.0), "%"});
  // Replay spans first, then the solo ops' spans renumbered after them.
  std::vector<Span> All = Replayed.Spans;
  uint32_t IdBase = static_cast<uint32_t>(All.size());
  uint64_t OpBase = All.empty() ? 0 : All.back().Op;
  for (Span S : SoloTr.Spans) {
    S.Id += IdBase;
    if (S.Parent)
      S.Parent += IdBase;
    S.Op += OpBase;
    All.push_back(std::move(S));
  }
  writeSpans(A.SpansOut, All);
  return 0;
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

void printJson(const Report &Rep, const std::vector<Metric> &Ms) {
  std::string S = "{\"correct\": ";
  S += Rep.Correct && Rep.T.Failed == 0 ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(Rep.T.Attempted);
  S += ", \"failed\": " + std::to_string(Rep.T.Failed);
  S += ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Ms[I].Value);
    S += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  S += "}}";
  std::printf("%s\n", S.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper-suite|fuzz-programs|"
               "server-evict --seed N --seconds S --trace 0|1\n"
               "                 [--data DIR] [--spans-out FILE]\n"
               "       perfbench --record-expected FILE\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    std::string V = Argv[++I];
    if (K == "--record-expected")
      return recordExpected(V);
    if (K == "--workload")
      A.Workload = V, HaveWorkload = true;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--data")
      A.DataDir = V;
    else if (K == "--spans-out")
      A.SpansOut = V;
    else
      return usage();
  }
  if (!HaveWorkload)
    return usage();

  Report Rep;
  int RC;
  if (A.Workload == "paper-suite")
    RC = paperSuite(A, Rep);
  else if (A.Workload == "fuzz-programs")
    RC = fuzzPrograms(A, Rep);
  else if (A.Workload == "server-evict")
    RC = serverEvict(A, Rep);
  else
    return usage();
  if (RC)
    return RC;

  if (!A.Trace)
    Rep.EndToEnd.push_back({"peak_rss_mb", peakRssMb(), "MiB"});
  double FailedShare =
      Rep.T.Attempted ? static_cast<double>(Rep.T.Failed) /
                            static_cast<double>(Rep.T.Attempted)
                      : 0;
  std::printf("workload %s, seed %llu, %s run\n", A.Workload.c_str(),
              static_cast<unsigned long long>(A.Seed),
              A.Trace ? "traced" : "untraced");
  for (const std::string &E : Rep.T.Errors)
    std::printf("FAIL %s\n", E.c_str());
  std::printf("  %-32s %.6g %s\n", "failed_share", FailedShare, "ratio");
  if (Rep.Digest)
    std::printf("  %-32s %016llx\n", "determinism_digest",
                static_cast<unsigned long long>(Rep.Digest));
  const std::vector<Metric> &Main = A.Trace ? Rep.PerLayer : Rep.EndToEnd;
  for (const std::vector<Metric> *L : {&Main, static_cast<const std::vector<Metric> *>(&Rep.Extra)})
    for (const Metric &M : *L)
      std::printf("  %-32s %.6g %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
  printJson(Rep, Main);
  return 0;
}
