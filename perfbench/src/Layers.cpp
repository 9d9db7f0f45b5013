//===- perfbench/src/Layers.cpp - Per-layer timings from outside ---------===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer metrics. Each layer is timed through its own
/// public entry points, from the benchmark, on the workload's own kernels:
/// parser (parseModule), transforms (Passes.h), core (vectorizeKernel,
/// TranslationCache::get, the SpecializationService store and toolchain),
/// core/ExecutionManager and the vm tiers (launchKernel, emitNativeSource,
/// NativeModule::loadAndVerify), runtime (WorkerPool, Stream, Graph) and
/// serve (ServeDaemon/ServeClient). Nothing is traced inside the program.
///
/// unattributed_frac is the share of the workload's timed operation (its
/// untraced median) that the execution-manager launches it is made of,
/// timed here on their own, do not account for. tc.cold_get_us includes the
/// transforms and the vectorizer, which are also timed on their own.
///
/// Which end-to-end figure each should move:
///   parser.*, transforms.*, vectorizer.*, tc.cold_get_us, store.write_us
///     -> first_result_ms on cold_start
///   store.load_us                      -> restart_first_result_ms
///   jit.native_sync_ms, codegen.*, native.load_verify_us
///     -> time_to_native_ms on the detail line
///   exec.*, em.*                       -> exec_threads_per_s on warm_exec
///   unattributed_frac                  -> op_p3_us on launch_storm
///   tc.warm_get_ns, pool.*, stream.*, graph.* -> op_p3_us on
///     launch_storm
///   serve.*                            -> the served chain; no change on
///     launch_storm, which bypasses the daemon
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "simtvec/core/ExecutionManager.h"
#include "simtvec/core/SpecializationService.h"
#include "simtvec/core/TranslationCache.h"
#include "simtvec/core/Vectorizer.h"
#include "simtvec/parser/Parser.h"
#include "simtvec/runtime/Graph.h"
#include "simtvec/runtime/WorkerPool.h"
#include "simtvec/transforms/Passes.h"
#include "simtvec/vm/NativeCodegen.h"
#include "simtvec/vm/NativeModule.h"

#include <cstdio>
#include <filesystem>
#include <set>
#include <tuple>

namespace perfbench {

namespace {

/// The median of at least seven samples, taken for at least 0.1 s (at most
/// 200 samples): short calls get more samples.
template <typename Fn> double medianTimed(Fn &&F) {
  std::vector<double> S;
  const double End = now() + 0.1;
  while (S.size() < 7 || (S.size() < 200 && now() < End))
    S.push_back(F());
  return median(S);
}

/// Launches through the execution manager alone — launchKernel over a
/// TranslationCache with the store's SpecializationService, the layer under
/// Program::launch: no stream, parameter validation or width resolution.
struct EmProbe {
  std::unique_ptr<Module> M;
  std::unique_ptr<SpecializationService> Svc;
  std::unique_ptr<TranslationCache> TC;

  EmProbe(const Config &C, const Case &K, const std::string &Store) {
    auto P = parseModule(K.Source);
    if (!P)
      return;
    M = P.take();
    SpecializationOptions SO;
    SO.CacheDir = Store;
    Svc = std::make_unique<SpecializationService>(*M, C.Machine, SO);
    TC = std::make_unique<TranslationCache>(*M, C.Machine);
    TC->setSpecializationService(Svc.get());
  }
  Expected<LaunchStats> launch(Problem &P, const Case &K,
                               const LaunchConfig &L) {
    WorkloadInstance &I = *P.Inst;
    return launchKernel(*TC, K.Kernel, I.Grid, I.Block, I.Params.bytes(),
                        I.Dev->data(), I.Dev->size(), I.Dev->atomics(), L);
  }
};

/// The configuration Program::launch hands the execution manager for
/// tieredOptions(C, W) in tier \p J.
LaunchConfig emConfig(const Config &C, uint32_t W, JitMode J) {
  LaunchConfig L;
  L.Machine = C.Machine;
  L.MaxWarpSize = W;
  L.Workers = C.Workers;
  L.Simd = SimdMode::Vector;
  L.Jit = J;
  L.ParallelFor = [](unsigned N, const std::function<void(unsigned)> &Fn) {
    WorkerPool::global().parallelFor(N, Fn);
  };
  return L;
}

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / static_cast<double>(V.size());
}

TranslationCache::Key keyFor(const std::string &Kernel, uint32_t Width) {
  TranslationCache::Key K;
  K.KernelName = Kernel;
  K.WarpSize = Width;
  K.Simd = resolveSimdPath(SimdMode::Vector);
  return K;
}

/// The build fingerprint a native object was compiled against, read back
/// from its store name: <kernel>.w<N>.<fingerprint>.<toolchain>.so.
uint64_t fingerprintFromPath(const std::string &Path) {
  std::string Name = std::filesystem::path(Path).filename().string();
  size_t E = Name.rfind('.'), T = Name.rfind('.', E - 1);
  size_t F = Name.rfind('.', T - 1);
  return std::stoull(Name.substr(F + 1, T - F - 1), nullptr, 16);
}

/// Compile-path layers for one kernel.
struct CompileTimes {
  double ParseUs = 0, PrepareUs = 0, CleanupUs = 0, InstsAfter = 0;
  std::map<uint32_t, double> VecUs, VecInsts;
  double ColdGetUs = 0, WarmGetNs = 0, WriteUs = 0, LoadUs = 0;
  double EmitUs = 0, SourceBytes = 0, NativeMs = -1, LoadVerifyUs = 0;
};

CompileTimes probeCompile(const Config &C, const Case &K,
                          const std::vector<uint32_t> &Widths, bool Native,
                          const std::string &Dir, Result &R) {
  CompileTimes T;
  std::unique_ptr<Module> M;
  T.ParseUs = medianTimed([&] {
    double T0 = now();
    auto P = parseModule(K.Source);
    double T1 = now();
    if (P)
      M = P.take();
    return (T1 - T0) * 1e6;
  });
  if (!M) {
    R.violation("parse failed for " + K.Label);
    return T;
  }
  const Kernel &Src = *M->findKernel(K.Kernel);

  Kernel Prepared;
  T.PrepareUs = medianTimed([&] {
    Prepared = Src;
    double T0 = now();
    runPredicateToSelect(Prepared);
    runBarrierSplit(Prepared);
    return (now() - T0) * 1e6;
  });
  MeldResult Meld = runControlFlowMeld(Prepared, "");
  SpecializationPlan Plan = SpecializationPlan::build(Prepared, &Meld);

  for (uint32_t W : Widths) {
    VectorizeOptions VO;
    VO.WarpSize = W;
    std::unique_ptr<Kernel> Vec;
    T.VecUs[W] = medianTimed([&] {
      double T0 = now();
      Vec = vectorizeKernel(Prepared, Plan, VO);
      return (now() - T0) * 1e6;
    });
    T.VecInsts[W] = static_cast<double>(Vec->instructionCount());
    if (W != 4)
      continue;
    T.CleanupUs = medianTimed([&] {
      Kernel Copy = *Vec;
      double T0 = now();
      runCleanupPipeline(Copy);
      double T1 = now();
      T.InstsAfter = static_cast<double>(Copy.instructionCount());
      return (T1 - T0) * 1e6;
    });
  }

  const TranslationCache::Key Key = keyFor(K.Kernel, 4);
  std::shared_ptr<const KernelExec> Exec;
  T.ColdGetUs = medianTimed([&] {
    TranslationCache TC(*M, C.Machine);
    double T0 = now();
    auto E = TC.get(Key);
    double T1 = now();
    if (E)
      Exec = *E;
    return (T1 - T0) * 1e6;
  });
  if (!Exec) {
    R.violation("translation failed for " + K.Label);
    return T;
  }
  {
    TranslationCache TC(*M, C.Machine);
    (void)TC.get(Key);
    constexpr int Gets = 2000;
    T.WarmGetNs = medianTimed([&] {
      double T0 = now();
      for (int I = 0; I < Gets; ++I)
        (void)TC.get(Key);
      return (now() - T0) * 1e9 / Gets;
    });
  }

  SpecializationOptions SO;
  SO.CacheDir = Dir;
  SpecializationService Svc(*M, C.Machine, SO);
  T.WriteUs = medianTimed([&] {
    double T0 = now();
    Svc.storeArtifact(Key, *Exec);
    return (now() - T0) * 1e6;
  });
  T.LoadUs = medianTimed([&] {
    double T0 = now();
    auto L = Svc.tryLoadArtifact(Key);
    double T1 = now();
    if (!L)
      R.violation("store load missed for " + K.Label);
    return (T1 - T0) * 1e6;
  });

  std::string Src2;
  T.EmitUs = medianTimed([&] {
    double T0 = now();
    Src2 = emitNativeSource(*Exec, C.Machine, 1);
    return (now() - T0) * 1e6;
  });
  T.SourceBytes = static_cast<double>(Src2.size());

  if (!Native)
    return T;
  double T0 = now();
  Svc.requestNative(Key, Exec, /*Sync=*/true);
  T.NativeMs = (now() - T0) * 1e3;
  const std::string So = Svc.nativeObjectPath(Key);
  std::error_code EC;
  if (So.empty() || !std::filesystem::exists(So, EC)) {
    R.violation("no native object for " + K.Label);
    return T;
  }
  const uint64_t Fp = fingerprintFromPath(So);
  int Copy = 0;
  T.LoadVerifyUs = medianTimed([&] {
    // A fresh name per load, so dlopen maps it anew as a restart would.
    std::string P = Dir + "/" + K.Kernel + "-" + std::to_string(Copy++) + ".so";
    std::filesystem::copy_file(So, P, EC);
    double T0 = now();
    auto NM = NativeModule::loadAndVerify(P, Exec->layoutFingerprint(), Fp, 4);
    double T1 = now();
    if (!NM)
      R.violation("native load/verify rejected " + K.Label);
    return (T1 - T0) * 1e6;
  });
  return T;
}

} // namespace

void probeLayers(const Config &C, const LayerInput &In, Result &R) {
  const std::string Dir = freshDir(C, "probe");
  std::string Err;

  // Compile path.
  std::vector<double> Parse, Prepare, Cleanup, After, ColdGet, WarmGet,
      Write, Load, Emit, Bytes, NativeMs, LoadVerify;
  std::map<uint32_t, std::vector<double>> VecUs, VecInsts;
  for (size_t I = 0; I < In.Cases.size(); ++I) {
    CompileTimes T = probeCompile(C, In.Cases[I], {4, 8}, I < 2, Dir, R);
    Parse.push_back(T.ParseUs);
    Prepare.push_back(T.PrepareUs);
    Cleanup.push_back(T.CleanupUs);
    After.push_back(T.InstsAfter);
    for (auto [W, V] : T.VecUs)
      VecUs[W].push_back(V);
    for (auto [W, V] : T.VecInsts)
      VecInsts[W].push_back(V);
    ColdGet.push_back(T.ColdGetUs);
    WarmGet.push_back(T.WarmGetNs);
    Write.push_back(T.WriteUs);
    Load.push_back(T.LoadUs);
    Emit.push_back(T.EmitUs);
    Bytes.push_back(T.SourceBytes);
    if (T.NativeMs >= 0) {
      NativeMs.push_back(T.NativeMs);
      LoadVerify.push_back(T.LoadVerifyUs);
    }
  }
  R.layer("parser.parse_us", geomean(Parse), "us");
  R.layer("transforms.prepare_us", geomean(Prepare), "us");
  R.layer("transforms.cleanup_us", geomean(Cleanup), "us");
  R.layer("transforms.insts_after", mean(After), "count");
  for (uint32_t W : {4u, 8u}) {
    std::string S = ".w" + std::to_string(W);
    R.layer("vectorizer.us" + S, geomean(VecUs[W]), "us");
    R.layer("vectorizer.insts_out" + S, mean(VecInsts[W]), "count");
  }
  R.layer("tc.cold_get_us", geomean(ColdGet), "us");
  R.layer("tc.warm_get_ns", geomean(WarmGet), "ns");
  R.layer("store.write_us", geomean(Write), "us");
  R.layer("store.load_us", geomean(Load), "us");
  R.layer("codegen.emit_us", geomean(Emit), "us");
  R.layer("codegen.source_bytes", mean(Bytes), "bytes");
  R.layer("jit.native_sync_ms", median(NativeMs), "ms");
  R.layer("native.load_verify_us", geomean(LoadVerify), "us");

  // Timed-phase counters of the workload itself.
  const Counters &T = In.Timed;
  uint64_t Lookups = T.TcHits + T.TcMisses;
  R.layer("tc.hit_ratio",
          Lookups ? static_cast<double>(T.TcHits) / Lookups : 1.0, "ratio");
  R.layer("jit.compiles", static_cast<double>(T.JitCompiles), "count");
  R.layer("pool.parks_per_launch",
          T.Launches ? static_cast<double>(T.Parks) / T.Launches : 0,
          "count");

  // Both tiers through the execution manager alone, on the workload's own
  // kernels at width 4 and in the timed tier at each width it launches; the
  // modeled counters of the interpreted launches give the Fig. 9 breakdown.
  std::map<std::tuple<size_t, uint32_t, JitMode>, double> EmUs;
  std::vector<double> NativeUs, InterpUs;
  LaunchStats Sum;
  uint64_t Threads = 0;
  for (size_t I = 0; I < In.Cases.size(); ++I) {
    const Case &K = In.Cases[I];
    EmProbe E(C, K, In.Store);
    if (!E.TC) {
      R.violation("execution manager probe could not parse " + K.Label);
      continue;
    }
    Problem P(K);
    std::set<std::pair<uint32_t, JitMode>> Tiers = {{4, JitMode::Native},
                                                    {4, JitMode::Interp}};
    for (uint32_t W : In.Widths)
      Tiers.insert({W, In.TimedJit});
    for (auto [W, Jit] : Tiers) {
      P.reset();
      auto S = E.launch(P, K, emConfig(C, W, Jit));
      R.op(S && P.check(Err), K.Label + " probe launch: " + Err);
      if (!S)
        continue;
      if (Jit == JitMode::Interp) {
        Sum.Counters += S->Counters;
        Sum.WarpEntries += S->WarpEntries;
        Sum.ThreadEntries += S->ThreadEntries;
        Sum.BranchYields += S->BranchYields;
        Threads += P.Threads;
      }
      EmUs[{I, W, Jit}] = medianTimed([&] {
        P.reset();
        double T0 = now();
        auto S2 = E.launch(P, K, emConfig(C, W, Jit));
        double T1 = now();
        R.op(bool(S2), K.Label + " probe launch");
        return (T1 - T0) * 1e6;
      });
    }
    NativeUs.push_back(EmUs[{I, 4, JitMode::Native}]);
    InterpUs.push_back(EmUs[{I, 4, JitMode::Interp}]);
  }
  R.layer("exec.native_launch_us", geomean(NativeUs), "us");
  R.layer("exec.interp_launch_us", geomean(InterpUs), "us");
  R.layer("em.avg_warp_size", Sum.avgWarpSize(), "lanes");
  R.layer("em.branch_yields_per_kthread",
          Threads ? 1e3 * static_cast<double>(Sum.BranchYields) / Threads : 0,
          "count");
  R.layer("em.modeled_cycles_per_thread",
          Threads ? Sum.Counters.totalCycles() / Threads : 0, "cycles");
  R.layer("em.modeled_em_frac", Sum.emFraction(), "ratio");
  R.layer("em.modeled_yield_frac", Sum.yieldFraction(), "ratio");
  R.layer("em.modeled_subkernel_frac", Sum.subkernelFraction(), "ratio");

  // The share of each timed operation that the execution-manager launches
  // it is made of do not account for: what Program::launch, streams and
  // graphs add around them. Median over the kinds the workload lists.
  std::vector<double> Unattributed;
  for (const LayerInput::Parts &Pt : In.KindParts) {
    double Layers = 0;
    for (auto [I, W] : Pt.Launches)
      Layers += EmUs[{I, W, In.TimedJit}];
    double Op = median(In.Ops[Pt.Kind].Plain) * 1e6;
    Unattributed.push_back((Op - Layers / Pt.PerOp) / Op);
  }
  R.layer("unattributed_frac", median(Unattributed), "ratio");

  // Runtime: the pool with an empty body, stream chains, graph replay.
  R.layer("pool.parallel_for_us", medianTimed([&] {
            double T0 = now();
            WorkerPool::global().parallelFor(C.Workers, [](unsigned) {});
            return (now() - T0) * 1e6;
          }),
          "us");

  auto Prog = compileAt(StormSource, C, In.Store);
  if (!Prog)
    return;
  const LaunchOptions O = tieredOptions(C, 4);
  for (const Case &K : stormCases()) {
    Problem P(K);
    R.op(P.launch(*Prog, K, withJit(O, JitMode::Native)) && P.check(Err),
         K.Label + " probe native launch: " + Err);
  }
  Device Dev(1 << 16);
  uint64_t Buf = Dev.alloc(ChainThreads * 4);
  const std::vector<ChainShape> Shapes = drawShapes(C.Seed, 16);
  constexpr unsigned Chains = 200;
  std::vector<double> Submit, Sync;
  Stream S;
  for (unsigned I = 0; I < Chains; ++I) {
    StreamChain T2 = runStreamChain(*Prog, Dev, S, Buf, Shapes[I % 16],
                                    chainInput(I), O, /*Traced=*/true);
    R.op(T2.Ok, "probe stream chain");
    Submit.push_back(T2.Submit * 1e6 / (ChainLen + 2));
    Sync.push_back(T2.Sync * 1e6);
  }
  R.layer("stream.submit_us", median(Submit), "us");
  R.layer("stream.sync_us", median(Sync), "us");

  {
    std::vector<uint32_t> Stage(ChainThreads), Out(ChainThreads);
    Graph G;
    Stream Cap;
    bool Ok = !Cap.beginCapture(G).isError();
    Dev.copyToDeviceAsync(Cap, Buf, Stage.data(), ChainThreads * 4);
    for (unsigned I = 0; I < ChainLen; ++I)
      Prog->launchAsync(Cap, Dev, StormKernels[Shapes[0].Kernel[I]],
                        {1, 1, 1}, {ChainThreads, 1, 1},
                        chainParams(Buf, Shapes[0].K[I]), O);
    Dev.copyFromDeviceAsync(Cap, Out.data(), Buf, ChainThreads * 4);
    Ok = Ok && !Cap.endCapture().isError();
    Expected<GraphExec> E = Status::error("not instantiated");
    R.layer("graph.instantiate_us", medianTimed([&] {
              double T0 = now();
              E = G.instantiate(*Prog);
              return (now() - T0) * 1e6;
            }),
            "us");
    R.op(Ok && bool(E), "probe graph instantiate");
    if (E) {
      unsigned N = 0;
      R.layer("graph.replay_us", medianTimed([&] {
                std::vector<uint32_t> In2 = chainInput(N++);
                Stage = In2;
                double T0 = now();
                E->launch(S);
                bool Ok2 = !S.synchronize().isError();
                double T1 = now();
                R.op(Ok2 && Out == chainOnHost(Shapes[0], In2),
                     "probe graph replay");
                return (T1 - T0) * 1e6;
              }),
              "us");
    }
  }

  // Serve: one tenant, the same chains as the in-process stream above. The
  // wire carries only the width, so the daemon launches with its default
  // LaunchOptions (Workers = MachineModel::Cores, Jit, Branch and Simd on
  // Auto with no SIMTVEC_* set); the in-process reference for
  // serve.overhead_us runs the chains with those same options.
  auto D = startDaemon(C, In.Store);
  serve::ServeClient Cl;
  if (!D || Cl.connect(D->options().SocketPath, "probe").isError()) {
    R.violation("serve probe could not connect");
    return;
  }
  auto PId = Cl.loadProgram(StormSource);
  auto B = Cl.alloc(ChainThreads * 4);
  if (!PId || !B) {
    R.violation("serve probe could not load the module");
    return;
  }
  LaunchOptions SO;
  SO.MaxWarpSize = 4;
  if (!settleTierUp([&] {
        for (const ChainShape &Sh : Shapes)
          R.op(runStreamChain(*Prog, Dev, S, Buf, Sh, chainInput(0), SO).Ok,
               "probe reference warm-up chain");
      }))
    R.violation("serve probe reference tier-up did not settle");
  std::vector<double> StreamTotal;
  for (unsigned I = 0; I < Chains; ++I) {
    StreamChain T2 = runStreamChain(*Prog, Dev, S, Buf, Shapes[I % 16],
                                    chainInput(I), SO);
    R.op(T2.Ok, "probe reference chain");
    StreamTotal.push_back(T2.Total * 1e6);
  }
  if (!settleTierUp([&] {
        for (const ChainShape &Sh : Shapes)
          R.op(runServedChain(Cl, *PId, *B, Sh, chainInput(0), SO).Ok,
               "probe served warm-up chain");
      }))
    R.violation("serve probe tier-up did not settle");
  serve::ServeDaemon::Counters D0 = D->counters();
  std::vector<double> CopyIn, Ack, CopyOut, ServedTotal;
  for (unsigned I = 0; I < Chains; ++I) {
    ServedChain T2 =
        runServedChain(Cl, *PId, *B, Shapes[I % 16], chainInput(I), SO);
    R.op(T2.Ok, "probe served chain");
    CopyIn.push_back(T2.CopyIn * 1e6);
    Ack.push_back(T2.LaunchAck * 1e6 / ChainLen);
    CopyOut.push_back(T2.CopyOut * 1e6);
    ServedTotal.push_back(T2.Total * 1e6);
  }
  serve::ServeDaemon::Counters D1 = D->counters();
  R.layer("serve.copyin_us", median(CopyIn), "us");
  R.layer("serve.launch_ack_us", median(Ack), "us");
  R.layer("serve.copyout_us", median(CopyOut), "us");
  R.layer("serve.frames_per_chain",
          static_cast<double>(D1.FramesServed - D0.FramesServed) / Chains,
          "count");
  R.layer("serve.protocol_errors",
          static_cast<double>(D1.ProtocolErrors - D0.ProtocolErrors), "count");
  R.layer("serve.overhead_us", median(ServedTotal) - median(StreamTotal),
          "us");
  Cl.close();
  D->requestStop();

  R.layer("trace.overhead_frac", traceOverhead(In.Ops), "ratio");
}

} // namespace perfbench
