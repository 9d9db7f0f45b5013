//===- perfbench/src/main.cpp - Repository benchmark entry point ---------===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
///
/// Runs one workload and prints, as the last line of stdout, one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
/// the metrics are the end-to-end set, with --trace 1 the per-layer set;
/// every name in the set is always present, finite and has a unit. Earlier
/// stdout lines carry the provenance header and per-case detail.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "simtvec/runtime/WorkerPool.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/stat.h>

extern char **environ;

using namespace perfbench;

namespace {

const char *const EndToEndNames[] = {
    "exec_threads_per_s", "op_p3_us", "first_result_ms",
    "restart_first_result_ms", "setup_s", "peak_rss_mb"};

const char *const LayerNames[] = {
    "parser.parse_us",
    "transforms.prepare_us",
    "transforms.cleanup_us",
    "transforms.insts_after",
    "vectorizer.us.w4",
    "vectorizer.us.w8",
    "vectorizer.insts_out.w4",
    "vectorizer.insts_out.w8",
    "tc.cold_get_us",
    "tc.warm_get_ns",
    "tc.hit_ratio",
    "store.write_us",
    "store.load_us",
    "jit.native_sync_ms",
    "jit.compiles",
    "codegen.emit_us",
    "codegen.source_bytes",
    "native.load_verify_us",
    "exec.native_launch_us",
    "exec.interp_launch_us",
    "em.avg_warp_size",
    "em.branch_yields_per_kthread",
    "em.modeled_cycles_per_thread",
    "em.modeled_em_frac",
    "em.modeled_yield_frac",
    "em.modeled_subkernel_frac",
    "pool.parallel_for_us",
    "pool.parks_per_launch",
    "stream.submit_us",
    "stream.sync_us",
    "graph.instantiate_us",
    "graph.replay_us",
    "serve.copyin_us",
    "serve.launch_ack_us",
    "serve.copyout_us",
    "serve.frames_per_chain",
    "serve.protocol_errors",
    "serve.overhead_us",
    "trace.overhead_frac",
    "unattributed_frac"};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "warm_exec|cold_start|launch_storm --seed N "
               "--seconds S --trace 0|1 --scratch DIR\n",
               Why);
  std::exit(2);
}

/// The program must see only what the benchmark sets: every SIMTVEC_*
/// knob (cache dir, tier, branch policy, SIMD path, pool size) is removed
/// before the library reads any of them.
void scrubEnvironment() {
  std::vector<std::string> Names;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "SIMTVEC_", 8) == 0)
      Names.emplace_back(*E, std::strcspn(*E, "="));
  for (const std::string &N : Names)
    unsetenv(N.c_str());
}

std::string jsonString(const std::string &S) {
  std::string O = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      O += '\\';
    O += Ch;
  }
  return O + "\"";
}

} // namespace

int main(int Argc, char **Argv) {
  scrubEnvironment();
  Config C;
  int Trace = -1;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      C.Workload = V;
    else if (K == "--seed")
      C.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      C.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      Trace = std::atoi(V.c_str());
    else if (K == "--scratch")
      C.Scratch = V;
    else
      usage(("unknown argument " + K).c_str());
  }
  if (C.Workload.empty() || C.Scratch.empty() || C.Seconds <= 0 ||
      (Trace != 0 && Trace != 1))
    usage("missing or invalid arguments");
  C.Trace = Trace == 1;
  // Every store the run uses must start empty.
  if (::mkdir(C.Scratch.c_str(), 0755) != 0)
    usage(("cannot create a fresh scratch directory " + C.Scratch).c_str());

  const unsigned Nproc = std::max(1u, std::thread::hardware_concurrency());
  C.Workers = std::min(C.Machine.Cores, Nproc);

  std::printf("{\"provenance\": {\"workload\": %s, \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
              "\"workers\": %u, \"machine_cores\": %u, \"pool_threads\": %u, "
              "\"serve_launch_options\": \"daemon defaults, workers %u\", "
              "\"compiler\": %s, \"assertions\": %s}}\n",
              jsonString(C.Workload).c_str(),
              static_cast<unsigned long long>(C.Seed), C.Seconds, Trace,
              Nproc, C.Workers, C.Machine.Cores,
              WorkerPool::global().threadCount(), C.Machine.Cores,
              jsonString(__VERSION__).c_str(),
#ifdef NDEBUG
              "false"
#else
              "true"
#endif
  );
  std::fflush(stdout);

  Result R;
  if (C.Workload == "warm_exec")
    runWarmExec(C, R);
  else if (C.Workload == "cold_start")
    runColdStart(C, R);
  else if (C.Workload == "launch_storm")
    runLaunchStorm(C, R);
  else
    usage(("unknown workload " + C.Workload).c_str());

  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  R.e2e("peak_rss_mb", static_cast<double>(RU.ru_maxrss) / 1024.0, "MB");

  if (!R.Detail.empty()) {
    std::string D = "{\"detail\": {";
    const char *Sep = "";
    for (auto &[K, V] : R.Detail) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.6g", V);
      D += Sep + jsonString(K) + ": " + Buf;
      Sep = ", ";
    }
    std::printf("%s}}\n", D.c_str());
  }

  // Every contract metric must be present and finite; anything else is a
  // benchmark bug, reported without a result line.
  const auto &Set = C.Trace ? R.Layers : R.EndToEnd;
  std::vector<const char *> Names;
  if (C.Trace)
    Names.assign(std::begin(LayerNames), std::end(LayerNames));
  else
    Names.assign(std::begin(EndToEndNames), std::end(EndToEndNames));
  std::string Metrics;
  for (const char *N : Names) {
    auto It = Set.find(N);
    if (It == Set.end() || !std::isfinite(It->second.V)) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n", N);
      return 1;
    }
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", It->second.V);
    Metrics += std::string(Metrics.empty() ? "" : ", ") + jsonString(N) +
               ": {\"value\": " + Buf +
               ", \"unit\": " + jsonString(It->second.Unit) + "}";
  }
  bool Correct = R.Failed == 0 && R.Violations.empty() && R.Attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(R.Attempted, 1)),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  std::fflush(stdout);
  // Worker-pool threads are process-global and leaked by design; _exit
  // skips static destructors racing them.
  std::_Exit(0);
}
