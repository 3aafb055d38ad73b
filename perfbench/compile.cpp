//===- perfbench/compile.cpp - The compile workload -----------------------===//
//
// Front-end and optimizer bound. Each round draws a seeded corpus of
// distinct six-procedure generator programs, renders each under all five
// exception techniques, and compiles every rendering cold through
// Engine::compile with the full optimizer pipeline and a fresh persistent
// cache directory; the artifact's bytecode and threaded stream are built
// and the artifact is written to disk. Then, once per backend, a fresh
// engine over the same directory runs every program as a job: each
// request is a disk load with zero IR compiles, and each answer must equal
// a reference run of the unoptimized rendering made outside the engine.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "costmodel/RandomProgram.h"
#include "engine/ArtifactStore.h"
#include "engine/Engine.h"
#include "ir/Serialize.h"
#include "ir/Translate.h"
#include "ir/Validate.h"
#include "support/Rng.h"
#include "syntax/Parser.h"
#include "syntax/Sema.h"
#include "vm/BytecodeIO.h"
#include "vm/Fuse.h"

#include <filesystem>
#include <memory>
#include <unistd.h>
#include <unordered_set>

using namespace cmm;
using namespace cmm::engine;
using namespace cmb;
namespace fs = std::filesystem;

namespace {

/// Generator seeds per round; each is rendered five ways.
unsigned programsPerRound(const Options &O) { return O.Small ? 2 : 8; }

/// One corpus entry: a rendering, its request, and its expected answer.
struct Unit {
  CompileRequest Req;
  DispatchTechnique Tech;
  uint32_t Input = 0;
  uint32_t Expect = 0;
};

/// Draws round \p Round's corpus and computes every answer with a
/// reference run (unoptimized cut rendering, walker, no engine).
bool drawCorpus(const Options &O, uint64_t Round, std::vector<Unit> &Units,
                Outcome &Out) {
  Rng R(O.Seed * 0x2545f4914f6cdd1dull + Round * 0x9e3779b97f4a7c15ull + 7);
  const OptOptions Full = fullPipeline();
  std::unordered_set<CacheKey, CacheKeyHash> Keys;
  for (unsigned P = 0; P < programsPerRound(O); ++P) {
    uint64_t GenSeed = R.next();
    uint32_t Input = uint32_t(R.below(256));
    RandomProgramOptions RO;
    RO.NumProcs = 6;
    CompileRequest Ref;
    Ref.Sources = {generateRandomProgram(GenSeed, RO)};
    std::shared_ptr<const ProgramArtifact> A = compileArtifact(Ref);
    if (!A->ok()) {
      Out.wrong("reference compile failed: " + A->error());
      return false;
    }
    std::unique_ptr<Executor> X = A->newExecutor(Backend::Walk);
    X->start("main", {Value::bits(32, Input)});
    if (X->run() != MachineStatus::Halted || X->argArea().size() != 1) {
      Out.wrong("reference run did not halt");
      return false;
    }
    uint32_t Expect = low32(X->argArea()[0]);
    for (DispatchTechnique Tech : AllDispatchTechniques) {
      RO.Strategy = Tech;
      Unit U;
      U.Req.Sources = {generateRandomProgram(GenSeed, RO)};
      U.Req.Optimize = true;
      U.Req.Opt = Full;
      // Renderings that come out identical (a computation with no handler
      // renders the same under several techniques) are one program.
      if (!Keys.insert(cacheKeyFor(U.Req)).second)
        continue;
      U.Tech = Tech;
      U.Input = Input;
      U.Expect = Expect;
      Units.push_back(std::move(U));
    }
  }
  return true;
}

/// The traced decomposition of one compile: the public entry points the
/// engine's compile path goes through, each in its own span, plus the
/// artifact store's write and load and a resident-key cache hit.
struct Decomposed {
  double Nodes = 0, Rewrites = 0, FusedSites = 0;
  double ConstPropUs = 0, CopyPropUs = 0, DeadCodeUs = 0, CalleeSavesUs = 0;
  uint64_t Count = 0;
};

void decompose(const Unit &U, uint64_t Id, Engine &E, const std::string &Dir,
               Tracer &T, Decomposed &D, Outcome &Out) {
  Tracer::Scope Whole(T, "compile.decomposed", Id);
  DiagnosticEngine Diags;
  auto Names = std::make_shared<Interner>();
  std::vector<AnalyzedModule> Mods;
  std::vector<std::string> Sources = U.Req.Sources;
  Sources.push_back(stdLibSource());
  for (const std::string &Src : Sources) {
    int32_t S = T.begin("syntax.parse", Id);
    Parser P(Src, Diags, Names);
    auto Mod = std::make_shared<Module>(P.parseModule());
    T.end(S);
    S = T.begin("syntax.sema", Id);
    SemaInfo Info = analyze(*Mod, Diags);
    T.end(S);
    Mods.push_back({std::move(Mod), std::move(Info)});
  }
  int32_t S = T.begin("ir.translate", Id);
  std::unique_ptr<IrProgram> Prog =
      Diags.hasErrors() ? nullptr : translateProgram(std::move(Mods), Diags);
  T.end(S);
  if (!Prog) {
    Out.wrong("decomposed compile failed: " + Diags.str());
    return;
  }
  S = T.begin("opt.optimize", Id);
  OptReport R = optimizeProgram(*Prog, U.Req.Opt);
  T.end(S);
  DiagnosticEngine VDiags;
  if (!R.ValidationErrors.empty() || !validateProgram(*Prog, VDiags)) {
    Out.wrong("decomposed optimize produced an invalid program");
    return;
  }
  for (const auto &P : Prog->Procs)
    for (const auto &N : P->Nodes)
      D.Nodes += N != nullptr;
  for (const PassStat &P : R.Passes)
    D.Rewrites += double(P.Changes);
  D.ConstPropUs += R.pass(PassId::ConstProp).Millis * 1e3;
  D.CopyPropUs += R.pass(PassId::CopyProp).Millis * 1e3;
  D.DeadCodeUs += R.pass(PassId::DeadCode).Millis * 1e3;
  D.CalleeSavesUs += R.pass(PassId::CalleeSaves).Millis * 1e3;

  S = T.begin("vm.bytecode_compile", Id);
  auto Bc = std::make_shared<const CompiledProgram>(compileToBytecode(*Prog));
  T.end(S);
  S = T.begin("vm.fuse", Id);
  std::shared_ptr<const ThreadedProgram> Tp = fuseProgram(Bc);
  T.end(S);
  D.FusedSites += double(Tp->Fusion.FusedSites);

  ByteWriter W;
  S = T.begin("ir.serialize", Id);
  serializeIr(*Prog, W);
  T.end(S);
  ByteReader Rd(W.buffer());
  S = T.begin("ir.deserialize", Id);
  std::unique_ptr<IrProgram> Back = deserializeIr(Rd);
  T.end(S);
  if (!Back)
    Out.wrong("IR failed to deserialize");

  // The store's write and load of the engine's own artifact (a cache hit
  // on the resident key hands it back).
  S = T.begin("engine.cache_hit", Id);
  std::shared_ptr<const ProgramArtifact> A = E.compile(U.Req);
  T.end(S);
  S = T.begin("engine.store_write", Id);
  bool Wrote = ArtifactStore::writeFile(Dir, *A);
  T.end(S);
  S = T.begin("engine.store_load", Id);
  std::shared_ptr<ProgramArtifact> L = ArtifactStore::loadFile(Dir, A->key());
  T.end(S);
  if (!Wrote || !L)
    Out.wrong("artifact store round trip failed");
  ++D.Count;
}

} // namespace

void cmb::runCompile(const Options &O, Outcome &Out, LayerMetrics &L) {
  Tracer T(O.Trace);
  const std::string Root =
      O.RunDir + "/compile-" + std::to_string(uint64_t(getpid()));
  std::error_code Ec;
  fs::remove_all(Root, Ec);

  // Set-up, repeated: the cache directory, an engine over it, and a warm
  // compile of the five renderings of one program outside the corpus
  // (stdlib parse, allocator arenas, code paths).
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    uint64_t T0 = nowNs();
    std::string Dir = Root + "/setup" + std::to_string(Rep);
    fs::create_directories(Dir, Ec);
    EngineOptions EO;
    EO.Threads = 1;
    EO.CacheDir = Dir;
    Engine E(EO);
    RandomProgramOptions RO;
    RO.NumProcs = 6;
    for (DispatchTechnique Tech : AllDispatchTechniques) {
      RO.Strategy = Tech;
      CompileRequest Req;
      Req.Sources = {generateRandomProgram(0x5e7u + uint64_t(Rep), RO)};
      Req.Optimize = true;
      Req.Opt = fullPipeline();
      std::shared_ptr<const ProgramArtifact> A = E.compile(Req);
      Out.check(A->ok(), "set-up compile failed");
      if (A->ok())
        A->threaded();
    }
    SetupS.push_back(secondsSince(T0));
  }

  // Compile rates are totals over every timed round: {compiles, seconds}.
  std::vector<double> CompileOps(2), TracedOps(2);
  // Disk-warm batches are a few milliseconds each, so one slow file-system
  // call moves a round; their rates are medians over rounds.
  std::vector<double> Rate[3], CodeBytes, CompileUs;
  Decomposed Dc;
  std::vector<double> LoadUs;
  bool InjectedExpect = false, InjectedAnswer = false;
  const uint64_t Start = nowNs();
  for (uint64_t Round = 0;; ++Round) {
    double Elapsed = secondsSince(Start);
    if (Round > 1 && Elapsed >= O.Seconds)
      break;
    const bool Timed = Round > 0;
    const bool Traced = O.Trace && Timed && Elapsed >= O.Seconds / 3;
    std::vector<Unit> Units;
    if (!drawCorpus(O, Round, Units, Out))
      return;
    if (O.Inject == "expected" && !InjectedExpect) {
      Units[0].Expect += 1;
      InjectedExpect = true;
    }
    const std::string Dir = Root + "/r" + std::to_string(Round);
    fs::create_directories(Dir, Ec);

    // Cold phase: every rendering compiled, bytecode and threaded stream
    // built, artifact persisted.
    std::vector<std::shared_ptr<const ProgramArtifact>> Arts;
    double RoundUs = 0, RoundBytes = 0;
    {
      EngineOptions EO;
      EO.Threads = 1;
      EO.CacheDir = Dir;
      Engine E(EO);
      for (size_t I = 0; I < Units.size(); ++I) {
        int32_t Sp = Traced ? T.begin("engine.compile", Round * 64 + I) : -1;
        uint64_t T0 = nowNs();
        std::shared_ptr<const ProgramArtifact> A = E.compile(Units[I].Req);
        if (A->ok())
          A->threaded();
        double Us = double(nowNs() - T0) / 1e3;
        T.end(Sp);
        ++Out.Attempted;
        if (!A->ok()) {
          ++Out.Failed;
          Out.wrong("compile failed: " + A->error());
          return;
        }
        RoundUs += Us;
        if (Timed && !O.Trace)
          CompileUs.push_back(Us);
        Arts.push_back(A);
      }
      CacheStats CS = E.cacheStats();
      Out.check(CS.IrCompiles == Units.size() &&
                    CS.DiskWrites == Units.size(),
                "cold phase did not compile and persist every rendering");
      if (Traced) {
        std::string DDir = Dir + "/decomposed";
        for (size_t I = 0; I < Units.size(); ++I)
          decompose(Units[I], Round * 64 + I, E, DDir, T, Dc, Out);
      }
    }
    // serialize . deserialize . serialize is the identity on the bytes.
    for (const auto &A : Arts) {
      std::vector<uint8_t> B1 = ArtifactStore::serialize(*A);
      std::shared_ptr<ProgramArtifact> Back =
          ArtifactStore::deserialize(B1.data(), B1.size(), &A->key());
      Out.check(Back && ArtifactStore::serialize(*Back) == B1,
                "artifact serialization is not a byte-identical round trip");
      ByteWriter W;
      serializeBytecode(*A->bytecode(), *A->program(), W);
      RoundBytes += double(W.size());
    }
    Arts.clear();

    // Disk-warm phase: a fresh engine per backend; every request is a
    // disk load and every answer must match the reference. One worker: the
    // jobs are ~100 us each, and spread over idle cores their batch time
    // measured wake-ups more than loads and runs.
    double Wall[3];
    for (Backend B : AllBackends) {
      EngineOptions EO;
      EO.Threads = 1;
      EO.CacheDir = Dir;
      Engine E(EO);
      std::vector<Job> Jobs;
      for (const Unit &U : Units) {
        Job J;
        J.Request = U.Req;
        J.B = B;
        J.Args = {Value::bits(32, U.Input)};
        J.Dispatcher = dispatcherFor(U.Tech);
        Jobs.push_back(std::move(J));
      }
      uint64_t T0 = nowNs();
      std::vector<JobResult> Rs = E.run(std::move(Jobs));
      Wall[int(B)] = secondsSince(T0);
      Out.Attempted += Units.size();
      CacheStats CS = E.cacheStats();
      Out.check(CS.IrCompiles == 0 && CS.DiskHits == Units.size(),
                "disk-warm phase compiled instead of loading (" +
                    std::to_string(CS.IrCompiles) + " compiles, " +
                    std::to_string(CS.DiskHits) + " disk hits, " +
                    std::to_string(CS.DiskErrors) + " disk errors)");
      for (size_t I = 0; I < Rs.size(); ++I) {
        JobResult &R = Rs[I];
        if (O.Inject == "answer" && !InjectedAnswer && !R.Results.empty()) {
          R.Results[0].Raw ^= 1;
          InjectedAnswer = true;
        }
        if (!R.ok()) {
          ++Out.Failed;
          Out.wrong("disk-loaded job did not halt: " + R.CompileError +
                    R.WrongReason);
        } else if (R.Results.size() != 1 ||
                   low32(R.Results[0]) != Units[I].Expect) {
          Out.wrong(std::string("disk-loaded ") +
                    dispatchTechniqueName(Units[I].Tech) + " rendering on " +
                    std::string(backendName(B)) +
                    " disagrees with the reference");
        }
      }
    }
    // Loads alone: one more fresh engine resolving every key from disk.
    if (Traced) {
      EngineOptions EO;
      EO.Threads = 1;
      EO.CacheDir = Dir;
      Engine E(EO);
      for (size_t I = 0; I < Units.size(); ++I) {
        uint64_t T0 = nowNs();
        std::shared_ptr<const ProgramArtifact> A = E.compile(Units[I].Req);
        LoadUs.push_back(double(nowNs() - T0) / 1e3);
        Out.check(A->ok(), "disk load failed");
      }
      Out.check(E.cacheStats().IrCompiles == 0, "load phase compiled");
    }
    fs::remove_all(Dir, Ec);

    if (!Timed)
      continue;
    std::vector<double> &Ops = Traced ? TracedOps : CompileOps;
    Ops[0] += double(Units.size());
    Ops[1] += RoundUs / 1e6;
    if (Traced)
      continue;
    CodeBytes.push_back(RoundBytes);
    for (Backend B : AllBackends)
      Rate[int(B)].push_back(double(Units.size()) / Wall[int(B)]);
  }
  fs::remove_all(Root, Ec);
  auto rate = [](const std::vector<double> &OpsSecs) {
    return OpsSecs[1] > 0 ? OpsSecs[0] / OpsSecs[1] : 0;
  };

  if (!O.Trace) {
    Out.add("setup_s", median(SetupS), "s");
    Out.add("ops_per_s", rate(CompileOps), "1/s");
    Out.add("op_p50_us", median(CompileUs), "us");
    Out.add("walk_jobs_per_s", median(Rate[0]), "1/s");
    Out.add("vm_jobs_per_s", median(Rate[1]), "1/s");
    Out.add("threaded_jobs_per_s", median(Rate[2]), "1/s");
    Out.add("code_bytes", median(CodeBytes), "bytes");
    Out.add("peak_rss_mb", selfPeakRssMb(), "MB");
    return;
  }

  const double N = Dc.Count ? double(Dc.Count) : 1;
  L["syntax.parse_us"] = T.totalUs("syntax.parse") / N;
  L["syntax.sema_us"] = T.totalUs("syntax.sema") / N;
  L["ir.translate_us"] = T.meanUs("ir.translate");
  L["ir.nodes"] = Dc.Nodes / N;
  L["opt.optimize_us"] = T.meanUs("opt.optimize");
  L["opt.constprop_us"] = Dc.ConstPropUs / N;
  L["opt.copyprop_us"] = Dc.CopyPropUs / N;
  L["opt.deadcode_us"] = Dc.DeadCodeUs / N;
  L["opt.calleesaves_us"] = Dc.CalleeSavesUs / N;
  L["opt.rewrites"] = Dc.Rewrites / N;
  L["vm.bytecode_compile_us"] = T.meanUs("vm.bytecode_compile");
  L["vm.fuse_us"] = T.meanUs("vm.fuse");
  L["vm.fused_sites"] = Dc.FusedSites / N;
  L["ir.serialize_us"] = T.meanUs("ir.serialize");
  L["engine.store_write_us"] = T.meanUs("engine.store_write");
  L["ir.deserialize_us"] = T.meanUs("ir.deserialize");
  L["engine.store_load_us"] = T.meanUs("engine.store_load");
  L["engine.loads_per_s"] = LoadUs.empty() ? 0 : 1e6 / median(LoadUs);
  L["engine.cache_hit_us"] = T.meanUs("engine.cache_hit");
  L["trace.overhead_pct"] = overheadPct(rate(CompileOps), rate(TracedOps));
  T.write(O.RunDir + "/trace-compile.jsonl");
}
