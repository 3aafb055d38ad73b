//===- perfbench/exn_run.cpp - The exn-run workload -----------------------===//
//
// Execution-bound: warm, pre-compiled artifacts of the paper's programs run
// as Engine batch jobs, one batch per backend over the same job list. The
// list covers Figure 1 (sp1/sp2/sp3), the Figure 2 dispatch programs under
// all five techniques, the raise-period / depth sweep, Figures 7-10's
// TryAMove under its three policies, generator programs under all five
// renderings (optimized and not), and a scheduled share (green-thread
// renderings and a channel relay). Every answer is checked against a closed
// form or against a reference run made apart from the engine.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "costmodel/DispatchWorkloads.h"
#include "costmodel/RandomProgram.h"
#include "engine/Engine.h"
#include "frontend/MiniM3.h"
#include "rts/Dispatchers.h"
#include "rts/SchedFormat.h"
#include "support/Rng.h"
#include "vm/BytecodeIO.h"

#include <memory>

using namespace cmm;
using namespace cmm::engine;
using namespace cmb;

namespace {

/// Figure 1 of the paper: sum and product of 1..n, three ways.
const char *figure1Source() {
  return R"(export sp1, sp2, sp3;
sp1(bits32 n) {
  bits32 s, p;
  if n == 1 {
    return (1, 1);
  } else {
    s, p = sp1(n - 1);
    return (s + n, p * n);
  }
}
sp2(bits32 n) { jump sp2_help(n, 1, 1); }
sp2_help(bits32 n, bits32 s, bits32 p) {
  if n == 1 {
    return (s, p);
  } else {
    jump sp2_help(n - 1, s + n, p * n);
  }
}
sp3(bits32 n) {
  bits32 s, p;
  s = 1; p = 1;
loop:
  if n == 1 {
    return (s, p);
  } else {
    s = s + n;
    p = p * n;
    n = n - 1;
    goto loop;
  }
}
)";
}

/// Figure 7's TryAMove with a depth knob: Main(x) decodes
/// x = move*1000000 + depth*1000 + iters and sums iters TryAMove results.
const char *tryAMoveSource() {
  return R"(
EXCEPTION BadMove(INTEGER);
EXCEPTION NoMoreTiles;
VAR movesTried: INTEGER;

PROCEDURE MakeMoveAt(move: INTEGER, depth: INTEGER) =
BEGIN
  IF depth > 0 THEN
    MakeMoveAt(move, depth - 1);
    RETURN;
  END;
  IF move = 7 THEN RAISE BadMove(move); END;
  IF move = 9 THEN RAISE NoMoreTiles; END;
END MakeMoveAt;

PROCEDURE TryAMove(move: INTEGER, depth: INTEGER): INTEGER =
VAR result: INTEGER;
BEGIN
  TRY
    MakeMoveAt(move, depth);
    result := 1;
  EXCEPT
  | BadMove(why) => result := 100 + why;
  | NoMoreTiles => result := 200;
  END;
  movesTried := movesTried + 1;
  RETURN result;
END TryAMove;

PROCEDURE Main(x: INTEGER): INTEGER =
VAR move: INTEGER;
VAR depth: INTEGER;
VAR iters: INTEGER;
VAR i: INTEGER;
VAR acc: INTEGER;
BEGIN
  move := x DIV 1000000;
  depth := (x DIV 1000) MOD 1000;
  iters := x MOD 1000;
  i := 0;
  acc := 0;
  WHILE i < iters DO
    acc := acc + TryAMove(move, depth);
    i := i + 1;
  END;
  RETURN acc;
END Main;
)";
}

/// The green-threads relay: n workers in a chain of capacity-32 channels,
/// m tokens each incremented once per worker. Returns m(m-1)/2 + m*n.
std::string relaySource() {
  auto T = [](uint64_t Tag) { return schedTagLiteral(Tag); };
  return "export main;\n"
         "data chans { bits32[128]; }\n"
         "worker(bits32 cin, bits32 cout) {\n"
         "  bits32 v;\n"
         "loop:\n"
         "  v = yield(" + T(SchedTagChanRecv) + ", cin);\n"
         "  if v == 999999 {\n"
         "    yield(" + T(SchedTagChanSend) + ", cout, v);\n"
         "    return (0);\n"
         "  }\n"
         "  yield(" + T(SchedTagChanSend) + ", cout, v + 1);\n"
         "  goto loop;\n"
         "}\n"
         "main(bits32 n, bits32 m) {\n"
         "  bits32 i, t, v, c, sum;\n"
         "  i = 0;\n"
         "mkchan:\n"
         "  if i > n { goto spawn; }\n"
         "  c = yield(" + T(SchedTagChanNew) + ", 32);\n"
         "  bits32[chans + i * 4] = c;\n"
         "  i = i + 1;\n"
         "  goto mkchan;\n"
         "spawn:\n"
         "  i = 0;\n"
         "spawnloop:\n"
         "  if i == n { goto feed; }\n"
         "  t = yield(" + T(SchedTagSpawn) + ", worker,\n"
         "            bits32[chans + i * 4], bits32[chans + (i + 1) * 4]);\n"
         "  i = i + 1;\n"
         "  goto spawnloop;\n"
         "feed:\n"
         "  i = 0;\n"
         "feedloop:\n"
         "  if i == m { goto fin; }\n"
         "  yield(" + T(SchedTagChanSend) + ", bits32[chans], i);\n"
         "  i = i + 1;\n"
         "  goto feedloop;\n"
         "fin:\n"
         "  yield(" + T(SchedTagChanSend) + ", bits32[chans], 999999);\n"
         "  sum = 0;\n"
         "drain:\n"
         "  v = yield(" + T(SchedTagChanRecv) + ", bits32[chans + n * 4]);\n"
         "  if v == 999999 { goto done; }\n"
         "  sum = sum + v;\n"
         "  goto drain;\n"
         "done:\n"
         "  return (sum);\n"
         "}\n";
}

/// One entry of the job list (run once per backend per round).
struct ExnJob {
  std::string Label;
  std::shared_ptr<const ProgramArtifact> Art;
  std::string Entry = "main";
  std::vector<Value> Args;
  DispatcherKind Disp = DispatcherKind::None;
  bool Sched = false;
  /// The answer, from a closed form or from a reference run of the
  /// unoptimized cut-in-generated-code rendering on the walker.
  std::vector<uint32_t> Expect;
};

struct Suite {
  std::unique_ptr<Engine> E;
  std::vector<ExnJob> Jobs;
  std::vector<std::shared_ptr<const ProgramArtifact>> Artifacts;
};

uint32_t spSum(uint32_t N) { return uint32_t(uint64_t(N) * (N + 1) / 2); }
uint32_t spProd(uint32_t N) {
  uint32_t P = 1;
  for (uint32_t I = 2; I <= N; ++I)
    P *= I;
  return P;
}

Value b32(uint64_t V) { return Value::bits(32, V); }

/// Compiles everything the job list needs through the engine, builds the
/// VM bytecode and threaded stream of each artifact up front, and computes
/// each generator program's reference answer. Returns false (with the
/// reason in \p Out) when anything fails to compile.
bool buildSuite(const Options &O, Suite &S, Tracer &T, Outcome &Out) {
  EngineOptions EO;
  EO.Threads = O.Threads;
  EO.CacheCapacity = 0;
  S.E = std::make_unique<Engine>(EO);
  Rng R(O.Seed * 0x9e3779b97f4a7c15ull + 0x65786e);

  const OptOptions Full = fullPipeline();

  auto compile = [&](std::vector<std::string> Sources, bool Optimize,
                     const std::string &What)
      -> std::shared_ptr<const ProgramArtifact> {
    CompileRequest Req;
    Req.Sources = std::move(Sources);
    Req.Optimize = Optimize;
    Req.Opt = Full;
    std::shared_ptr<const ProgramArtifact> A = S.E->compile(Req);
    if (!A->ok()) {
      Out.wrong(What + ": " + A->error());
      return nullptr;
    }
    A->threaded(); // bytecode and fused stream, built before any timing
    S.Artifacts.push_back(A);
    return A;
  };
  auto add = [&](ExnJob J) { S.Jobs.push_back(std::move(J)); };

  // Figure 2 sweep: handler-scope entries against raises, across raise
  // period and depth (the heaviest share, listed first so the pool starts
  // on it).
  const DispatchTechnique SweepTechs[] = {DispatchTechnique::CutGenerated,
                                          DispatchTechnique::UnwindGenerated,
                                          DispatchTechnique::UnwindRuntime};
  std::vector<uint32_t> Depths = {32, 8, 2};
  std::vector<uint32_t> Periods = {1, 4, 16, 64};
  if (O.Small) {
    Depths = {8};
    Periods = {1, 4};
  }
  for (DispatchTechnique Tech : SweepTechs) {
    auto A = compile({sweepWorkloadSource(Tech)}, true, "sweep");
    if (!A)
      return false;
    for (uint32_t D : Depths)
      for (uint32_t P : Periods) {
        // Fixed sizes: the heavy share of the list does the same work on
        // every seed, so seeds move only the light, generated part.
        const uint32_t Iters = 1000;
        uint32_t Raises = (Iters + P - 1) / P;
        ExnJob J;
        J.Label = std::string("sweep/") + dispatchTechniqueName(Tech);
        J.Art = A;
        J.Entry = "sweep";
        J.Args = {b32(Iters), b32(P), b32(D)};
        J.Disp = dispatcherFor(Tech);
        J.Expect = {Raises * 1099 + (Iters - Raises)};
        add(J);
      }
  }

  // Figures 7-10: TryAMove under each policy, normal and raising moves.
  const ExnPolicy Policies[] = {ExnPolicy::StackCutting,
                                ExnPolicy::RuntimeUnwinding,
                                ExnPolicy::NativeUnwinding};
  for (ExnPolicy P : Policies) {
    int32_t Span = T.begin("frontend.m3_build", uint64_t(P));
    DiagnosticEngine Diags;
    std::optional<M3Compiled> M3 = compileMiniM3(tryAMoveSource(), P, Diags);
    T.end(Span);
    if (!M3) {
      Out.wrong("TryAMove: " + Diags.str());
      return false;
    }
    auto A = compile({M3->CmmSource}, true, "TryAMove");
    if (!A)
      return false;
    for (uint32_t Move : {1u, 7u, 9u})
      for (uint32_t Depth : {0u, 8u, 32u}) {
        const uint32_t Iters = 100;
        uint32_t Per = Move == 7 ? 107 : Move == 9 ? 200 : 1;
        ExnJob J;
        J.Label = std::string("m3/") + exnPolicyName(P);
        J.Art = A;
        J.Entry = "m3main";
        J.Args = {b32(Move * 1000000 + Depth * 1000 + Iters)};
        J.Disp = P == ExnPolicy::RuntimeUnwinding ? DispatcherKind::Unwind
                                                  : DispatcherKind::None;
        J.Expect = {0, Iters * Per};
        add(J);
      }
  }

  // Figure 1.
  {
    auto A = compile({figure1Source()}, true, "figure1");
    if (!A)
      return false;
    for (const char *Entry : {"sp1", "sp2", "sp3"})
      for (int K = 0; K < 4; ++K) {
        uint32_t N = uint32_t(R.range(150, 250));
        ExnJob J;
        J.Label = std::string("fig1/") + Entry;
        J.Art = A;
        J.Entry = Entry;
        J.Args = {b32(N)};
        J.Expect = {spSum(N), spProd(N)};
        add(J);
      }
  }

  // Figure 2: one descent and (maybe) one raise, five techniques.
  for (DispatchTechnique Tech : AllDispatchTechniques) {
    auto A = compile({dispatchWorkloadSource(Tech)}, true, "dispatch");
    if (!A)
      return false;
    for (uint32_t Raise : {0u, 1u})
      for (int K = 0; K < 2; ++K) {
        ExnJob J;
        J.Label = std::string("fig2/") + dispatchTechniqueName(Tech);
        J.Art = A;
        J.Entry = "bench";
        J.Args = {b32(uint32_t(R.range(16, 48))), b32(Raise)};
        J.Disp = dispatcherFor(Tech);
        J.Expect = {Raise ? 1099u : 1u};
        add(J);
      }
  }

  // Generator programs: one computation per seed, five renderings, each
  // unoptimized and under the full pipeline, plus scheduled renderings.
  // The answer comes from the unoptimized cut rendering run on the walker
  // outside the engine.
  const unsigned GenSeeds = O.Small ? 2 : 8;
  const unsigned SchedSeeds = O.Small ? 1 : 4;
  for (unsigned G = 0; G < GenSeeds; ++G) {
    uint64_t GenSeed = R.next();
    std::vector<uint32_t> Inputs = {uint32_t(R.below(64)),
                                    uint32_t(64 + R.below(192))};
    RandomProgramOptions RO;
    RO.Strategy = DispatchTechnique::CutGenerated;
    CompileRequest RefReq;
    RefReq.Sources = {generateRandomProgram(GenSeed, RO)};
    std::shared_ptr<const ProgramArtifact> Ref = compileArtifact(RefReq);
    if (!Ref->ok()) {
      Out.wrong("generator reference: " + Ref->error());
      return false;
    }
    std::vector<uint32_t> Answers;
    for (uint32_t In : Inputs) {
      std::unique_ptr<Executor> X = Ref->newExecutor(Backend::Walk);
      X->start("main", {b32(In)});
      if (X->run() != MachineStatus::Halted || X->argArea().size() != 1) {
        Out.wrong("generator reference run did not halt");
        return false;
      }
      Answers.push_back(low32(X->argArea()[0]));
    }
    const bool Scheduled = G < SchedSeeds;
    for (DispatchTechnique Tech : AllDispatchTechniques) {
      RO.Strategy = Tech;
      for (int Sched = 0; Sched <= int(Scheduled); ++Sched) {
        RO.Scheduled = Sched != 0;
        std::string Src = generateRandomProgram(GenSeed, RO);
        for (bool Opt : {false, true}) {
          if (Sched && !Opt)
            continue;
          auto A = compile({Src}, Opt, "generator");
          if (!A)
            return false;
          for (size_t I = 0; I < Inputs.size(); ++I) {
            ExnJob J;
            J.Label = std::string(Sched ? "gen-sched/" : "gen/") +
                      dispatchTechniqueName(Tech) + (Opt ? "/full" : "/none");
            J.Art = A;
            J.Args = {b32(Inputs[I])};
            J.Disp = dispatcherFor(Tech);
            J.Sched = Sched != 0;
            J.Expect = {Answers[I]};
            add(J);
          }
        }
      }
    }
  }

  // The channel relay, scheduled.
  {
    auto A = compile({relaySource()}, true, "relay");
    if (!A)
      return false;
    for (int K = 0; K < 2; ++K) {
      uint32_t N = 8, M = uint32_t(R.range(96, 160));
      ExnJob J;
      J.Label = "sched/relay";
      J.Art = A;
      J.Args = {b32(N), b32(M)};
      J.Sched = true;
      J.Expect = {M * (M - 1) / 2 + M * N};
      add(J);
    }
  }
  return true;
}

Job makeJob(const ExnJob &X, Backend B) {
  Job J;
  J.Artifact = X.Art;
  J.B = B;
  J.Entry = X.Entry;
  J.Args = X.Args;
  J.Dispatcher = X.Disp;
  J.Sched.Enabled = X.Sched;
  J.Sched.Drivers = 1;
  return J;
}

/// Compares one answer with the expected one; false on a mismatch.
bool sameAnswer(const ExnJob &X, const std::vector<Value> &Got) {
  if (Got.size() != X.Expect.size())
    return false;
  for (size_t I = 0; I < Got.size(); ++I)
    if (low32(Got[I]) != X.Expect[I])
      return false;
  return true;
}

const char *runSpanName(Backend B) {
  switch (B) {
  case Backend::Walk:
    return "sem.walk_run";
  case Backend::Vm:
    return "vm.vm_run";
  case Backend::Threaded:
    return "vm.threaded_run";
  }
  return "?";
}

/// The traced run's direct pass: every unscheduled job once per backend,
/// outside the engine, with spans around executor set-up, the run, and
/// each handler call inside runWithRuntime.
struct DirectTotals {
  uint64_t Steps[3] = {0, 0, 0};
  uint64_t Jobs[3] = {0, 0, 0};
  uint64_t UnwindDispatches = 0;
  uint64_t Walked = 0;
};

void directPass(const Suite &S, Tracer &T, DirectTotals &D, Outcome &Out) {
  for (Backend B : AllBackends)
    for (size_t I = 0; I < S.Jobs.size(); ++I) {
      const ExnJob &X = S.Jobs[I];
      if (X.Sched)
        continue;
      Tracer::Scope JobSpan(T, "exn.job", I);
      int32_t Set = T.begin("sem.executor_setup", I);
      std::unique_ptr<Executor> M = X.Art->newExecutor(B);
      M->start(X.Entry, X.Args);
      T.end(Set);
      int32_t Run = T.begin(runSpanName(B), I);
      MachineStatus St;
      if (X.Disp == DispatcherKind::Unwind) {
        UnwindingDispatcher Dsp(*M);
        St = runWithRuntime(*M, [&](Executor &E) {
          Tracer::Scope Sp(T, "rts.dispatch", I);
          return Dsp(E);
        });
        D.UnwindDispatches += Dsp.dispatches();
        D.Walked += Dsp.walkStats().ActivationsVisited;
      } else if (X.Disp == DispatcherKind::Cut) {
        CuttingDispatcher Dsp(*M);
        St = runWithRuntime(*M, [&](Executor &E) {
          Tracer::Scope Sp(T, "rts.dispatch", I);
          return Dsp(E);
        });
      } else {
        St = M->run();
      }
      T.end(Run);
      D.Steps[int(B)] += M->stats().Steps;
      ++D.Jobs[int(B)];
      if (St != MachineStatus::Halted || !sameAnswer(X, M->argArea()))
        Out.wrong("direct run of " + X.Label + " on " +
                  std::string(backendName(B)) + " gave a wrong answer");
    }
}

} // namespace

void cmb::runExn(const Options &O, Outcome &Out, LayerMetrics &L) {
  Tracer T(O.Trace);

  // Set-up, repeated: a fresh engine compiling and warming every artifact.
  Suite S;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    S = Suite();
    uint64_t T0 = nowNs();
    if (!buildSuite(O, S, T, Out))
      return;
    SetupS.push_back(secondsSince(T0));
  }
  double CodeBytes = 0;
  for (const auto &A : S.Artifacts) {
    ByteWriter W;
    serializeBytecode(*A->bytecode(), *A->program(), W);
    CodeBytes += double(W.size());
  }
  if (O.Inject == "expected")
    S.Jobs[0].Expect[0] += 1;

  std::vector<Job> Batches[3];
  for (Backend B : AllBackends)
    for (const ExnJob &X : S.Jobs)
      Batches[int(B)].push_back(makeJob(X, B));
  const size_t N = S.Jobs.size();

  // Measured rounds: one batch per backend. The first round warms caches
  // and is checked but not timed. With tracing, the first third of the run
  // is untraced (the overhead baseline) and the rest is traced.
  std::vector<double> Rate[3], AllRate, AllRateTraced, RunUs;
  double QueueUs = 0, OverheadUs = 0, SchedRunNs = 0, SchedSwitches = 0;
  uint64_t TracedJobs = 0;
  DirectTotals D;
  bool Injected = false;
  const uint64_t Start = nowNs();
  for (uint64_t Round = 0;; ++Round) {
    double Elapsed = secondsSince(Start);
    if (Round > 1 && Elapsed >= O.Seconds)
      break;
    const bool Timed = Round > 0;
    const bool Traced = O.Trace && Timed && Elapsed >= O.Seconds / 3;
    double Wall[3];
    for (Backend B : AllBackends) {
      std::vector<Job> Jobs = Batches[int(B)];
      int32_t Span = Traced ? T.begin("engine.batch", Round * 3 + int(B)) : -1;
      uint64_t T0 = nowNs();
      std::vector<JobResult> Rs = S.E->run(std::move(Jobs));
      uint64_t T1 = nowNs();
      T.end(Span);
      Wall[int(B)] = double(T1 - T0) / 1e9;
      Out.Attempted += N;
      double RunSum = 0;
      for (size_t I = 0; I < N; ++I) {
        JobResult &R = Rs[I];
        if (O.Inject == "answer" && !Injected && !R.Results.empty()) {
          R.Results[0].Raw ^= 1;
          Injected = true;
        }
        if (!R.ok()) {
          ++Out.Failed;
          Out.wrong(S.Jobs[I].Label + " on " + std::string(backendName(B)) +
                    " did not halt: " + R.CompileError + R.WrongReason);
          continue;
        }
        if (!sameAnswer(S.Jobs[I], R.Results))
          Out.wrong(S.Jobs[I].Label + " on " + std::string(backendName(B)) +
                    " gave a wrong answer");
        RunSum += R.RunMillis * 1e3;
        if (Timed && !O.Trace)
          RunUs.push_back(R.RunMillis * 1e3);
        if (Traced) {
          QueueUs += R.QueueMillis * 1e3;
          if (S.Jobs[I].Sched) {
            SchedRunNs += R.RunMillis * 1e6;
            SchedSwitches += double(R.SchedSwitches);
          }
        }
      }
      if (Traced) {
        OverheadUs += Wall[int(B)] * 1e6 * O.Threads - RunSum;
        TracedJobs += N;
      }
      if (Timed && !O.Trace)
        Rate[int(B)].push_back(double(N) / Wall[int(B)]);
    }
    if (!Timed)
      continue;
    double Round3 = 3.0 * double(N) / (Wall[0] + Wall[1] + Wall[2]);
    (Traced ? AllRateTraced : AllRate).push_back(Round3);
    if (Traced)
      directPass(S, T, D, Out);
  }

  if (!O.Trace) {
    Out.add("setup_s", median(SetupS), "s");
    Out.add("ops_per_s", median(AllRate), "1/s");
    Out.add("op_p50_us", median(RunUs), "us");
    Out.add("walk_jobs_per_s", median(Rate[0]), "1/s");
    Out.add("vm_jobs_per_s", median(Rate[1]), "1/s");
    Out.add("threaded_jobs_per_s", median(Rate[2]), "1/s");
    Out.add("code_bytes", CodeBytes, "bytes");
    Out.add("peak_rss_mb", selfPeakRssMb(), "MB");
    return;
  }

  auto perStep = [&](Backend B) {
    return D.Steps[int(B)] ? T.selfUs(runSpanName(B)) * 1e3 /
                                 double(D.Steps[int(B)])
                           : 0;
  };
  uint64_t DirectJobs = D.Jobs[0] + D.Jobs[1] + D.Jobs[2];
  L["sem.walk_ns_per_step"] = perStep(Backend::Walk);
  L["vm.vm_ns_per_step"] = perStep(Backend::Vm);
  L["vm.threaded_ns_per_step"] = perStep(Backend::Threaded);
  L["sem.steps_per_job"] =
      D.Jobs[0] ? double(D.Steps[0]) / double(D.Jobs[0]) : 0;
  L["sem.executor_setup_us"] = T.meanUs("sem.executor_setup");
  L["rts.dispatch_ns"] = T.meanUs("rts.dispatch") * 1e3;
  L["rts.dispatches_per_job"] =
      DirectJobs ? double(T.count("rts.dispatch")) / double(DirectJobs) : 0;
  L["rts.activations_walked_per_dispatch"] =
      D.UnwindDispatches ? double(D.Walked) / double(D.UnwindDispatches) : 0;
  L["sched.switch_ns"] = SchedSwitches ? SchedRunNs / SchedSwitches : 0;
  L["engine.queue_us"] = TracedJobs ? QueueUs / double(TracedJobs) : 0;
  L["engine.job_overhead_us"] =
      TracedJobs ? OverheadUs / double(TracedJobs) : 0;
  L["frontend.m3_build_us"] = T.meanUs("frontend.m3_build");
  L["trace.overhead_pct"] =
      overheadPct(median(AllRate), median(AllRateTraced));
  T.write(O.RunDir + "/trace-exn-run.jsonl");
}
