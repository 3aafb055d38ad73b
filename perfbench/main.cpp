//===- perfbench/main.cpp - The cmmex end-to-end benchmark program --------===//
//
//   cmmbench --workload exn-run|compile|serve --seed N --seconds S
//            --trace 0|1 [--small] [--inject expected|answer]
//            [--commit ID] [--run-dir DIR] [--daemon PATH]
//
// Prints a host fingerprint line, a line of attempted / failed operations,
// and, last, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. Exits 1 when a correctness check failed, 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "vm/Threaded.h"

#include <cstdlib>
#include <cstring>
#include <sys/resource.h>
#include <sys/stat.h>
#include <thread>

using namespace cmb;

const std::vector<std::pair<std::string, std::string>> &cmb::layerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> Catalog = {
      // exn-run
      {"sem.walk_ns_per_step", "ns"},
      {"vm.vm_ns_per_step", "ns"},
      {"vm.threaded_ns_per_step", "ns"},
      {"sem.steps_per_job", "count"},
      {"sem.executor_setup_us", "us"},
      {"rts.dispatch_ns", "ns"},
      {"rts.dispatches_per_job", "count"},
      {"rts.activations_walked_per_dispatch", "count"},
      {"sched.switch_ns", "ns"},
      {"engine.queue_us", "us"},
      {"engine.job_overhead_us", "us"},
      {"frontend.m3_build_us", "us"},
      // compile
      {"syntax.parse_us", "us"},
      {"syntax.sema_us", "us"},
      {"ir.translate_us", "us"},
      {"ir.nodes", "count"},
      {"opt.optimize_us", "us"},
      {"opt.constprop_us", "us"},
      {"opt.copyprop_us", "us"},
      {"opt.deadcode_us", "us"},
      {"opt.calleesaves_us", "us"},
      {"opt.rewrites", "count"},
      {"vm.bytecode_compile_us", "us"},
      {"vm.fuse_us", "us"},
      {"vm.fused_sites", "count"},
      {"ir.serialize_us", "us"},
      {"engine.store_write_us", "us"},
      {"ir.deserialize_us", "us"},
      {"engine.store_load_us", "us"},
      {"engine.loads_per_s", "1/s"},
      {"engine.cache_hit_us", "us"},
      // serve
      {"svc.hot_p50_us", "us"},
      {"svc.cold_p50_us", "us"},
      {"svc.yield_p50_us", "us"},
      {"svc.server_p50_us", "us"},
      {"svc.unattributed_p50_us", "us"},
      {"engine.run_p50_us", "us"},
      {"engine.queue_p50_us", "us"},
      {"engine.compile_p50_us", "us"},
      {"engine.cache_hit_ratio", "ratio"},
      {"svc.encode_ns", "ns"},
      {"svc.decode_ns", "ns"},
      // every workload
      {"trace.overhead_pct", "%"},
  };
  return Catalog;
}

double cmb::selfPeakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "cmmbench: %s\n"
               "usage: cmmbench --workload exn-run|compile|serve --seed N "
               "--seconds S --trace 0|1 [--small] [--inject expected|answer] "
               "[--commit ID] [--run-dir DIR] [--daemon PATH]\n",
               Why);
  std::exit(2);
}

/// JSON-escapes \p S (error strings may hold quotes and newlines).
std::string esc(const std::string &S) {
  std::string R;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      R += '\\';
      R += C;
    } else if (uint8_t(C) < 0x20) {
      R += ' ';
    } else {
      R += C;
    }
  }
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.Threads = std::max(1u, std::thread::hardware_concurrency());
  std::string Commit = "unknown";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto next = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = next();
    else if (A == "--seed")
      O.Seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(next().c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = next() == "1";
    else if (A == "--small")
      O.Small = true;
    else if (A == "--inject")
      O.Inject = next();
    else if (A == "--commit")
      Commit = next();
    else if (A == "--run-dir")
      O.RunDir = next();
    else if (A == "--daemon")
      O.Daemon = next();
    else
      usage(("unknown argument " + A).c_str());
  }
  if (O.Workload != "exn-run" && O.Workload != "compile" &&
      O.Workload != "serve")
    usage("unknown workload");
  if (!(O.Seconds > 0))
    usage("--seconds must be positive");
  if (!O.Inject.empty() && O.Inject != "expected" && O.Inject != "answer")
    usage("--inject takes expected or answer");
  mkdir(O.RunDir.c_str(), 0755);

  std::printf("{\"host\":{\"nproc\":%u,\"dispatch\":\"%s\",\"build\":\"%s\","
              "\"compiler\":\"%s\",\"commit\":\"%s\"},\"workload\":\"%s\","
              "\"seed\":%llu,\"trace\":%d}\n",
              O.Threads, cmm::threadedDispatchKind(), CMMBENCH_BUILD_TYPE,
              esc(__VERSION__).c_str(), esc(Commit).c_str(),
              O.Workload.c_str(), (unsigned long long)O.Seed, int(O.Trace));
  std::fflush(stdout);

  Outcome Out;
  LayerMetrics L;
  if (O.Workload == "exn-run")
    runExn(O, Out, L);
  else if (O.Workload == "compile")
    runCompile(O, Out, L);
  else
    runServe(O, Out, L);
  if (Out.Attempted == 0)
    Out.wrong("no operation was attempted");

  for (const std::string &E : Out.Errors)
    std::fprintf(stderr, "cmmbench: check failed: %s\n", E.c_str());
  std::printf("{\"workload\":\"%s\",\"attempted\":%llu,\"failed\":%llu}\n",
              O.Workload.c_str(), (unsigned long long)Out.Attempted,
              (unsigned long long)Out.Failed);

  std::string M;
  auto put = [&](const std::string &Name, double V, const std::string &Unit) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.17g", V);
    if (!M.empty())
      M += ", ";
    M += "\"" + Name + "\": {\"value\": " + Buf + ", \"unit\": \"" + Unit +
         "\"}";
  };
  if (O.Trace) {
    for (const auto &[Name, Unit] : layerCatalog()) {
      auto It = L.find(Name);
      put(Name, It == L.end() ? 0.0 : It->second, Unit);
    }
  } else {
    for (const Outcome::Metric &X : Out.Metrics)
      put(X.Name, X.Value, X.Unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Out.Correct ? "true" : "false",
              (unsigned long long)Out.Attempted,
              (unsigned long long)Out.Failed, M.c_str());
  std::fflush(stdout);
  return Out.Correct ? 0 : 1;
}
