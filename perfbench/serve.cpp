//===- perfbench/serve.cpp - The serve workload ---------------------------===//
//
// Wire-bound: a cmmexd daemon runs as a separate process on a Unix socket;
// a closed loop of pipelined svc::Client connections sends a hot : cold :
// yield mix (as in cmmload) with backends in equal shares. Hot requests
// run one fixed program (an artifact-cache hit), cold ones embed a fresh
// constant (a compile that inserts into, and eventually evicts from, the
// cache), and yield ones run a run-time-unwinding sweep whose raises the
// daemon's dispatcher services. Every response is validated; at the end
// the daemon's own stats snapshot must reconcile and drain to zero.
//
// The yield requests do not park: a parked session resumed over the wire
// can be expired by the daemon's session reaper moments after it is
// created, so those resumes fail now and then (see CHANGES.md).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "costmodel/DispatchWorkloads.h"
#include "engine/Engine.h"
#include "support/MiniJson.h"
#include "support/Rng.h"
#include "svc/Client.h"
#include "vm/BytecodeIO.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace cmm;
using namespace cmb;

namespace {

// Two connections and one engine worker: fewer runnable threads than
// cores. With four connections and four workers the host's scheduling
// moved throughput by 30% between runs minutes apart; with two connections
// and idle cores, by 4x (cross-core wake-ups).
constexpr unsigned Clients = 2;   ///< connections, one thread each
constexpr unsigned Pipeline = 16; ///< requests in flight per connection
constexpr unsigned DaemonThreads = 1;
/// Small enough that the cold share evicts steadily.
constexpr unsigned CacheCapacity = 64;
/// Mix weights out of 10: hot 0-7, cold 8, yield 9 (cmmload's 8:1:1).
constexpr unsigned MixTotal = 10;
constexpr uint32_t YieldIters = 3, YieldPeriod = 1, YieldDepth = 4;
/// sweep(3, 1, 4) raises on every iteration: 3 * (1000 + 99).
constexpr uint32_t YieldAnswer = YieldIters * 1099;

enum Class : uint8_t { Hot, Cold, Yield };
const char *const ClassSpan[] = {"svc.hot", "svc.cold", "svc.yield"};

std::string hotSource() {
  return "export main;\nmain(bits32 n) { return (n + 1); }\n";
}
std::string coldSource(uint64_t K) {
  return "export main;\nmain(bits32 n) { return (n + " + std::to_string(K) +
         "); }\n";
}

/// The daemon process: spawned with its stdout on a pipe (the readiness
/// line), stopped by a wire shutdown, reaped with its resource usage.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() {
    if (Pid > 0) {
      kill(Pid, SIGKILL);
      reap(nullptr);
    }
    if (OutFd >= 0)
      close(OutFd);
  }

  bool start(const std::string &Bin, const std::string &Socket,
             std::string &Err) {
    int P[2];
    if (pipe2(P, O_CLOEXEC) != 0) {
      Err = "pipe failed";
      return false;
    }
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_adddup2(&FA, P[1], 1);
    std::string Threads = std::to_string(DaemonThreads);
    std::string Cap = std::to_string(CacheCapacity);
    const char *Argv[] = {Bin.c_str(),       "--socket",
                          Socket.c_str(),    "--threads",
                          Threads.c_str(),   "--cache-capacity",
                          Cap.c_str(),       nullptr};
    int Rc = posix_spawn(&Pid, Bin.c_str(), &FA, nullptr,
                         const_cast<char *const *>(Argv), environ);
    posix_spawn_file_actions_destroy(&FA);
    close(P[1]);
    OutFd = P[0];
    if (Rc != 0) {
      Pid = -1;
      Err = "cannot start " + Bin + ": " + std::strerror(Rc);
      return false;
    }
    // Wait (at most 20 s) for the readiness line.
    std::string Line;
    uint64_t Deadline = nowNs() + 20'000'000'000ull;
    while (Line.find('\n') == std::string::npos) {
      if (nowNs() > Deadline) {
        Err = "daemon did not become ready";
        return false;
      }
      struct pollfd PF = {OutFd, POLLIN, 0};
      if (poll(&PF, 1, 100) <= 0)
        continue;
      char Buf[256];
      ssize_t N = read(OutFd, Buf, sizeof Buf);
      if (N <= 0) {
        Err = "daemon exited before it was ready";
        return false;
      }
      Line.append(Buf, size_t(N));
    }
    if (Line.find("listening") == std::string::npos) {
      Err = "unexpected daemon output: " + Line;
      return false;
    }
    return true;
  }

  /// Waits (at most 20 s, then kills) for the daemon to exit; returns true
  /// on a clean exit and fills \p U with its resource usage.
  bool reap(struct rusage *U) {
    struct rusage Tmp;
    int Status = 0;
    uint64_t Deadline = nowNs() + 20'000'000'000ull;
    for (;;) {
      pid_t R = wait4(Pid, &Status, WNOHANG, U ? U : &Tmp);
      if (R == Pid)
        break;
      if (R < 0 && errno != EINTR) {
        Pid = -1;
        return false;
      }
      if (nowNs() > Deadline)
        kill(Pid, SIGKILL);
      drain();
      usleep(2000);
    }
    Pid = -1;
    return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

private:
  /// Reads whatever the daemon printed since, so it never blocks on a full
  /// pipe.
  void drain() {
    struct pollfd PF = {OutFd, POLLIN, 0};
    char Buf[256];
    while (OutFd >= 0 && poll(&PF, 1, 0) > 0 && read(OutFd, Buf, sizeof Buf) > 0)
      ;
  }

  pid_t Pid = -1;
  int OutFd = -1;
};

/// One completed round trip.
struct Sample {
  uint64_t DoneNs;
  uint64_t Ns;
  uint8_t C;
  uint8_t B;
};

struct ClientResult {
  std::vector<Sample> Samples;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Errors;
  Tracer T;
  std::vector<svc::RunRequestMsg> SentMsgs;
  std::vector<svc::ResultMsg> GotMsgs;
  explicit ClientResult(bool Trace) : T(Trace) {}
};

struct Pending {
  uint8_t C = Hot;
  uint8_t B = 0;
  uint64_t SentNs = 0;
  uint32_t Expect = 0;
};

/// One closed-loop client: keeps Pipeline requests in flight until
/// \p StopNs, then drains.
/// Tracing starts at \p TraceFromNs.
void clientLoop(const Options &O, unsigned Idx, const std::string &Socket,
                uint64_t StopNs, uint64_t TraceFromNs, bool &InjectAnswer,
                ClientResult &Out) {
  std::string Err;
  std::unique_ptr<svc::Client> Cli = svc::Client::connectUnix(Socket, &Err);
  if (!Cli) {
    Out.Errors.push_back("connect: " + Err);
    ++Out.Failed;
    return;
  }
  Rng R(O.Seed * 0x9e3779b97f4a7c15ull + Idx * 0x632be59bd9b4e019ull + 3);
  const std::string YieldSrc =
      sweepWorkloadSource(DispatchTechnique::UnwindRuntime);
  const std::string HotSrc = hotSource();
  // Cold constants: distinct per client and below 2^32 (they are bits32
  // literals).
  uint64_t ColdK = uint64_t(Idx) * 1'000'000'000 + (O.Seed % 1000) * 1'000'000;
  std::map<uint64_t, Pending> InFlight;
  uint64_t Seq = 0;
  bool InjectExpect = O.Inject == "expected" && Idx == 0;

  auto send = [&] {
    Pending P;
    P.C = Seq % MixTotal < 8 ? Hot : Seq % MixTotal == 8 ? Cold : Yield;
    P.B = uint8_t(Seq % 3);
    svc::RunRequestMsg M;
    M.Tenant = "bench";
    M.Backend = P.B;
    if (P.C == Hot) {
      uint32_t Arg = uint32_t(R.below(1u << 20));
      M.Sources = {HotSrc};
      M.Args = {Value::bits(32, Arg)};
      P.Expect = Arg + 1;
    } else if (P.C == Cold) {
      uint64_t K = ++ColdK;
      M.Sources = {coldSource(K)};
      M.Args = {Value::bits(32, 1)};
      P.Expect = uint32_t(1 + K);
    } else {
      M.Sources = {YieldSrc};
      M.Entry = "sweep";
      M.Args = {Value::bits(32, YieldIters), Value::bits(32, YieldPeriod),
                Value::bits(32, YieldDepth)};
      M.Dispatcher = uint8_t(engine::DispatcherKind::Unwind);
      P.Expect = YieldAnswer;
    }
    if (InjectExpect) {
      P.Expect += 1;
      InjectExpect = false;
    }
    ++Seq;
    ++Out.Attempted;
    P.SentNs = nowNs();
    if (Out.T.on() && P.SentNs >= TraceFromNs && Out.SentMsgs.size() < 512)
      Out.SentMsgs.push_back(M);
    InFlight.emplace(Cli->sendRun(std::move(M)), P);
  };
  auto fail = [&](const std::string &Why) {
    ++Out.Failed;
    if (Out.Errors.size() < 4)
      Out.Errors.push_back(Why);
  };

  for (;;) {
    bool Open = nowNs() < StopNs;
    while (Open && InFlight.size() < Pipeline)
      send();
    if (InFlight.empty())
      break;
    std::optional<svc::Reply> Rep = Cli->waitAny();
    if (!Rep) {
      fail("transport: " + Cli->error());
      Out.Failed += InFlight.size() - 1;
      return;
    }
    uint64_t Now = nowNs();
    auto It = InFlight.find(Rep->ReqId);
    if (It == InFlight.end()) {
      fail("response to an unknown request id");
      continue;
    }
    Pending P = It->second;
    InFlight.erase(It);
    Out.Samples.push_back(
        {Now, Now - P.SentNs, P.C, P.B});
    if (Out.T.on() && P.SentNs >= TraceFromNs)
      Out.T.record(ClassSpan[P.C], Rep->ReqId, P.SentNs, Now);
    if (Rep->Type != svc::MsgType::RespResult) {
      fail("error response: " + Rep->Error.Message);
      continue;
    }
    svc::ResultMsg &M = Rep->Result;
    if (Out.T.on() && P.SentNs >= TraceFromNs && Out.GotMsgs.size() < 512)
      Out.GotMsgs.push_back(M);
    if (InjectAnswer && !M.Results.empty()) {
      M.Results[0].Raw ^= 1;
      InjectAnswer = false;
    }
    if (!M.CompileError.empty()) {
      fail("compile error: " + M.CompileError);
      continue;
    }
    if (MachineStatus(M.Status) != MachineStatus::Halted) {
      fail("request did not halt: " + M.WrongReason);
      continue;
    }
    if (M.Results.size() != 1 || low32(M.Results[0]) != P.Expect)
      fail(std::string(ClassSpan[P.C]) + " request returned a wrong answer");
  }
}

double statAt(const JsonValue &S, const char *Section, const char *Name,
              const char *Field = nullptr) {
  const JsonValue *Sec = S.get(Section);
  const JsonValue *V = Sec ? Sec->get(Name) : nullptr;
  if (V && Field)
    V = V->get(Field);
  return V && V->isNumber() ? V->number() : -1;
}

/// Serialized bytecode of the programs the mix runs (one cold instance).
double codeBytes() {
  double Bytes = 0;
  for (const std::string &Src :
       {hotSource(), coldSource(1234567),
        sweepWorkloadSource(DispatchTechnique::UnwindRuntime)}) {
    engine::CompileRequest Req;
    Req.Sources = {Src};
    auto A = engine::compileArtifact(Req);
    if (!A->ok())
      return 0;
    ByteWriter W;
    serializeBytecode(*A->bytecode(), *A->program(), W);
    Bytes += double(W.size());
  }
  return Bytes;
}

} // namespace

void cmb::runServe(const Options &O, Outcome &Out, LayerMetrics &L) {
  if (O.Daemon.empty()) {
    Out.wrong("serve needs --daemon PATH");
    return;
  }
  const std::string Socket =
      O.RunDir + "/serve-" + std::to_string(uint64_t(getpid())) + ".sock";
  const double Seconds = O.Small ? std::min(O.Seconds, 2.0) : O.Seconds;

  // Set-up, repeated: start the daemon, connect, and warm the hot program
  // on every backend. The last daemon is measured.
  std::vector<double> SetupS;
  std::unique_ptr<Daemon> D;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    if (D) {
      std::unique_ptr<svc::Client> Ctl = svc::Client::connectUnix(Socket);
      Out.check(Ctl && Ctl->shutdownServer(), "daemon shutdown failed");
      Out.check(D->reap(nullptr), "daemon exited uncleanly");
      D.reset();
    }
    unlink(Socket.c_str());
    uint64_t T0 = nowNs();
    D = std::make_unique<Daemon>();
    std::string Err;
    if (!D->start(O.Daemon, Socket, Err)) {
      Out.wrong(Err);
      return;
    }
    std::unique_ptr<svc::Client> Cli = svc::Client::connectUnix(Socket, &Err);
    if (!Cli) {
      Out.wrong("connect: " + Err);
      return;
    }
    for (uint8_t B = 0; B < 3; ++B) {
      svc::RunRequestMsg M;
      M.Tenant = "bench";
      M.Backend = B;
      M.Sources = {hotSource()};
      M.Args = {Value::bits(32, 41)};
      std::optional<svc::ResultMsg> R = Cli->run(std::move(M));
      Out.check(R && R->Results.size() == 1 && low32(R->Results[0]) == 42,
                "warm-up request failed");
    }
    SetupS.push_back(secondsSince(T0));
  }

  // Load: untraced for the first third when tracing (the overhead
  // baseline), traced after.
  const uint64_t Start = nowNs();
  const uint64_t StopNs = Start + uint64_t(Seconds * 1e9);
  const uint64_t TraceFrom =
      O.Trace ? Start + uint64_t(Seconds / 3 * 1e9) : ~uint64_t(0);
  bool InjectAnswer[Clients] = {};
  InjectAnswer[0] = O.Inject == "answer";
  std::vector<std::unique_ptr<ClientResult>> Rs;
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Clients; ++I)
    Rs.push_back(std::make_unique<ClientResult>(O.Trace));
  for (unsigned I = 0; I < Clients; ++I)
    Threads.emplace_back(clientLoop, std::cref(O), I, std::cref(Socket),
                         StopNs, TraceFrom,
                         std::ref(InjectAnswer[I]),
                         std::ref(*Rs[I]));
  for (std::thread &Th : Threads)
    Th.join();

  Tracer T(O.Trace);
  std::vector<Sample> All;
  for (auto &R : Rs) {
    Out.Attempted += R->Attempted;
    Out.Failed += R->Failed;
    for (const std::string &E : R->Errors)
      Out.wrong(E);
    All.insert(All.end(), R->Samples.begin(), R->Samples.end());
    T.merge(R->T);
  }

  // The daemon's own account, then a clean shutdown.
  std::optional<JsonValue> Stats;
  {
    std::unique_ptr<svc::Client> Ctl = svc::Client::connectUnix(Socket);
    std::optional<std::string> J = Ctl ? Ctl->statsJson() : std::nullopt;
    if (J)
      Stats = parseJson(*J);
    Out.check(Stats.has_value(), "no stats snapshot from the daemon");
    Out.check(Ctl && Ctl->shutdownServer(), "daemon shutdown failed");
  }
  struct rusage U = {};
  Out.check(D->reap(&U), "daemon exited uncleanly");
  D.reset();
  unlink(Socket.c_str());
  if (Stats) {
    const JsonValue &S = *Stats;
    Out.check(statAt(S, "counters", "svc.errors") == 0, "svc.errors != 0");
    Out.check(statAt(S, "counters", "svc.bad_frames") == 0,
              "svc.bad_frames != 0");
    Out.check(statAt(S, "counters", "svc.requests_run") ==
                  statAt(S, "counters", "engine.jobs"),
              "svc.requests_run != engine.jobs");
    Out.check(statAt(S, "counters", "engine.jobs_wrong") == 0,
              "engine.jobs_wrong != 0");
    Out.check(statAt(S, "gauges", "svc.inflight") == 0,
              "svc.inflight did not drain to 0");
    Out.check(statAt(S, "gauges", "svc.sessions_open") == 0,
              "svc.sessions_open did not drain to 0");
    Out.check(statAt(S, "gauges", "engine.jobs_queued") == 0 &&
                  statAt(S, "gauges", "engine.jobs_running") == 0,
              "engine queue gauges did not drain to 0");
  }

  // Throughput per whole second of the load (traced seconds apart),
  // reported as the median over the seconds.
  const size_t NWin = size_t(Seconds);
  std::vector<double> PerWin(NWin, 0), PerWinB[3];
  for (auto &V : PerWinB)
    V.assign(NWin, 0);
  std::vector<double> Lat, LatTraced;
  for (const Sample &S : All) {
    if (S.DoneNs < Start)
      continue;
    size_t W = size_t((S.DoneNs - Start) / 1'000'000'000);
    if (W < NWin) {
      PerWin[W] += 1;
      PerWinB[S.B][W] += 1;
    }
    if (S.DoneNs >= TraceFrom)
      LatTraced.push_back(double(S.Ns) / 1e3);
    else
      Lat.push_back(double(S.Ns) / 1e3);
  }
  auto winMedian = [&](const std::vector<double> &V, bool Traced) {
    std::vector<double> Sel;
    for (size_t W = 0; W < V.size(); ++W) {
      uint64_t WStart = Start + W * 1'000'000'000;
      if ((WStart >= TraceFrom) == Traced)
        Sel.push_back(V[W]);
    }
    return median(Sel);
  };

  if (!O.Trace) {
    Out.add("setup_s", median(SetupS), "s");
    Out.add("ops_per_s", winMedian(PerWin, false), "1/s");
    Out.add("op_p50_us", median(Lat), "us");
    Out.add("walk_jobs_per_s", winMedian(PerWinB[0], false), "1/s");
    Out.add("vm_jobs_per_s", winMedian(PerWinB[1], false), "1/s");
    Out.add("threaded_jobs_per_s", winMedian(PerWinB[2], false), "1/s");
    Out.add("code_bytes", codeBytes(), "bytes");
    Out.add("peak_rss_mb", double(U.ru_maxrss) / 1024.0, "MB");
    return;
  }

  // Protocol payload costs over the traced run's own messages.
  std::vector<svc::RunRequestMsg> Sent;
  std::vector<svc::ResultMsg> Got;
  for (auto &R : Rs) {
    Sent.insert(Sent.end(), R->SentMsgs.begin(), R->SentMsgs.end());
    Got.insert(Got.end(), R->GotMsgs.begin(), R->GotMsgs.end());
  }
  size_t Pairs = std::min(Sent.size(), Got.size());
  uint64_t EncNs = 0, DecNs = 0, Ops = 0;
  for (int Pass = 0; Pass < 20 && Pairs; ++Pass)
    for (size_t I = 0; I < Pairs; ++I) {
      ByteWriter WReq, WRes;
      uint64_t T0 = nowNs();
      svc::encodeRunRequest(WReq, Sent[I]);
      svc::encodeResult(WRes, Got[I]);
      uint64_t T1 = nowNs();
      ByteReader RReq(WReq.buffer()), RRes(WRes.buffer());
      svc::RunRequestMsg MReq;
      svc::ResultMsg MRes;
      bool Ok = svc::decodeRunRequest(RReq, MReq) &&
                svc::decodeResult(RRes, MRes);
      uint64_t T2 = nowNs();
      T.record("svc.encode", I, T0, T1);
      T.record("svc.decode", I, T1, T2);
      Out.check(Ok && MRes.Results.size() == Got[I].Results.size(),
                "protocol payload did not round-trip");
      EncNs += T1 - T0;
      DecNs += T2 - T1;
      ++Ops;
    }

  double ClientP50 = median(T.durationsUs("svc.hot"));
  double ServerP50 =
      Stats ? statAt(*Stats, "histograms", "svc.request_micros", "p50") : 0;
  L["svc.hot_p50_us"] = ClientP50;
  L["svc.cold_p50_us"] = median(T.durationsUs("svc.cold"));
  L["svc.yield_p50_us"] = median(T.durationsUs("svc.yield"));
  L["svc.server_p50_us"] = ServerP50;
  L["svc.unattributed_p50_us"] = median(LatTraced) - ServerP50;
  if (Stats) {
    L["engine.run_p50_us"] =
        statAt(*Stats, "histograms", "engine.run_micros", "p50");
    L["engine.queue_p50_us"] =
        statAt(*Stats, "histograms", "engine.queue_micros", "p50");
    L["engine.compile_p50_us"] =
        statAt(*Stats, "histograms", "engine.compile_micros", "p50");
    double Lookups = statAt(*Stats, "counters", "cache.lookups");
    L["engine.cache_hit_ratio"] =
        Lookups > 0 ? statAt(*Stats, "counters", "cache.hits") / Lookups : 0;
  }
  L["svc.encode_ns"] = Ops ? double(EncNs) / double(Ops) : 0;
  L["svc.decode_ns"] = Ops ? double(DecNs) / double(Ops) : 0;
  L["trace.overhead_pct"] =
      overheadPct(winMedian(PerWin, false), winMedian(PerWin, true));
  T.write(O.RunDir + "/trace-serve.jsonl");
}
