//===- perfbench/src/Storms.cpp - Launch storms, in process and served ---===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// launch_storm: one host thread, no daemon. Each request is a seeded
/// chain of eight tiny dependent launches (one 64-thread CTA) with upload
/// and read-back; requests alternate between a Stream (launchAsync +
/// synchronize) and replay of a pre-instantiated GraphExec. Kernel work is
/// negligible, so the runtime — stream ops, graph replay, pool wake-ups,
/// parameter validation, warm translation-cache hits — is the critical
/// path: a change that speeds up per-thread work by adding per-launch cost
/// shows here as a loss. The same chains, sent through an in-process
/// ServeDaemon by the traced run's serve probe, time the serve layer.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "simtvec/runtime/Graph.h"
#include "simtvec/support/RNG.h"

#include <cstring>

namespace perfbench {

constexpr size_t ChainBytes = ChainThreads * sizeof(uint32_t);
constexpr unsigned NumShapes = 16;

std::vector<uint32_t> chainInput(uint64_t Seed) {
  RNG R(Seed * 0xD1B54A32D192ED03ull + 3);
  std::vector<uint32_t> V(ChainThreads);
  for (uint32_t &X : V)
    X = static_cast<uint32_t>(R.next());
  return V;
}

StreamChain runStreamChain(Program &P, Device &D, Stream &S, uint64_t Buf,
                           const ChainShape &Sh,
                           const std::vector<uint32_t> &In,
                           const LaunchOptions &O, bool Traced) {
  StreamChain T;
  T.Out.resize(ChainThreads);
  // Traced, every enqueue call is timed on its own.
  auto enqueue = [&](auto &&Call) {
    double C0 = Traced ? now() : 0;
    Call();
    if (Traced)
      T.Submit += now() - C0;
  };
  double T0 = now();
  enqueue([&] { D.copyToDeviceAsync(S, Buf, In.data(), ChainBytes); });
  for (unsigned I = 0; I < Sh.Len; ++I)
    enqueue([&] {
      P.launchAsync(S, D, StormKernels[Sh.Kernel[I]], {1, 1, 1},
                    {ChainThreads, 1, 1}, chainParams(Buf, Sh.K[I]), O);
    });
  enqueue([&] { D.copyFromDeviceAsync(S, T.Out.data(), Buf, ChainBytes); });
  double T1 = Traced ? now() : 0;
  bool Ok = !S.synchronize().isError();
  double T2 = now();
  T.Total = T2 - T0;
  if (Traced)
    T.Sync = T2 - T1;
  T.Ok = Ok && T.Out == chainOnHost(Sh, In);
  return T;
}

ServedChain runServedChain(serve::ServeClient &Cl, uint64_t Prog,
                           uint64_t Buf, const ChainShape &Sh,
                           const std::vector<uint32_t> &In,
                           const LaunchOptions &O) {
  ServedChain T;
  T.Out.resize(ChainThreads);
  double T0 = now();
  bool Ok = !Cl.copyIn(Buf, In.data(), ChainBytes).isError();
  double T1 = now();
  for (unsigned I = 0; I < Sh.Len && Ok; ++I)
    Ok = bool(Cl.launch(Prog, StormKernels[Sh.Kernel[I]], {1, 1, 1},
                        {ChainThreads, 1, 1}, chainParams(Buf, Sh.K[I]), O));
  double T2 = now();
  Ok = Ok && !Cl.copyOut(T.Out.data(), Buf, ChainBytes).isError();
  double T3 = now();
  T.Total = T3 - T0;
  T.CopyIn = T1 - T0;
  T.LaunchAck = T2 - T1;
  T.CopyOut = T3 - T2;
  T.Ok = Ok && T.Out == chainOnHost(Sh, In);
  return T;
}

std::unique_ptr<serve::ServeDaemon> startDaemon(const Config &C,
                                                const std::string &Store) {
  static unsigned Next = 0;
  serve::ServeOptions O;
  O.SocketPath = C.Scratch + "/d" + std::to_string(Next++) + ".sock";
  O.Machine = C.Machine;
  O.Spec = SpecializationOptions();
  O.Spec.CacheDir = Store;
  auto D = std::make_unique<serve::ServeDaemon>(O);
  if (Status E = D->start(); E.isError()) {
    std::fprintf(stderr, "perfbench: daemon: %s\n", E.message().c_str());
    return nullptr;
  }
  return D;
}

namespace {

/// The first-result chain launches each storm kernel once. Auto mode
/// requests the native tier on a specialization's second launch, so a
/// first result never races a background compile it started itself.
ChainShape firstShape() {
  ChainShape S;
  S.Len = 3;
  for (unsigned I = 0; I < S.Len; ++I) {
    S.Kernel[I] = static_cast<uint8_t>(I);
    S.K[I] = 2 * I + 3;
  }
  return S;
}

/// The seeded request stream: which shape each request replays, and its
/// input seed.
struct Requests {
  std::vector<ChainShape> Shapes;
  RNG Pick;
  explicit Requests(uint64_t Seed)
      : Shapes(drawShapes(Seed, NumShapes)),
        Pick(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  size_t nextShape() { return Pick.nextBelow(Shapes.size()); }
  uint64_t nextInput() { return Pick.next(); }
};

/// One in-process storm set: program, device, and a graph per shape.
struct StormSet {
  std::unique_ptr<Program> Prog;
  Device Dev{1 << 16};
  uint64_t Buf = 0;
  Stream S;
  struct ShapeGraph {
    uint64_t Buf = 0;
    std::vector<uint32_t> Stage = std::vector<uint32_t>(ChainThreads);
    std::vector<uint32_t> Out = std::vector<uint32_t>(ChainThreads);
    GraphExec Exec;
  };
  std::vector<ShapeGraph> Graphs;
};

} // namespace

void runLaunchStorm(const Config &C, Result &R) {
  Requests Req(C.Seed);
  const LaunchOptions O = tieredOptions(C, 4);
  const ChainShape First = firstShape();
  // The first-result and warm-up chains' input: fixed, so every seed forms
  // the same warps and tiers up the same specializations.
  const std::vector<uint32_t> FixedIn = chainInput(0);
  std::unique_ptr<StormSet> Set;

  // A fresh set with a Program on Store, and the time to its first checked
  // chain run with \p J.
  auto firstChain = [&](const std::string &Store, JitMode J) {
    Set = std::make_unique<StormSet>();
    Set->Buf = Set->Dev.alloc(ChainBytes);
    double T0 = now();
    Set->Prog = compileAt(StormSource, C, Store);
    bool Ok = Set->Prog && runStreamChain(*Set->Prog, Set->Dev, Set->S,
                                          Set->Buf, First, FixedIn,
                                          withJit(O, J))
                               .Ok;
    double Ms = (now() - T0) * 1e3;
    R.op(Ok, "storm first chain");
    return Ms;
  };

  Phases P;
  P.Units = 1;
  // One unit, and its first chains are bimodal (the pool's workers awake or
  // parked): over ten runs the fast quartile spread (IQR/median) 0.18 where
  // the median's spread 0.06-0.10.
  P.FirstPercentile = 50;
  // First results use a Program without an artifact store (the in-process
  // default); cold_start times the store's writes.
  P.First = [&](size_t, const std::string &) {
    return firstChain("", JitMode::Auto);
  };
  P.NativeUnits = {0};
  P.Native = [&](size_t, const std::string &Store) {
    return firstChain(Store, JitMode::Native);
  };
  P.Begin = [&] { Set.reset(); };
  P.Restart = [&](size_t, const std::string &Store) {
    return firstChain(Store, JitMode::Auto);
  };
  P.Warmup = [&] {
    for (const ChainShape &Sh : Req.Shapes)
      R.op(Set->Prog && runStreamChain(*Set->Prog, Set->Dev, Set->S, Set->Buf,
                                       Sh, FixedIn, O)
                            .Ok,
           "storm warm-up chain");
  };
  // A pre-instantiated graph per shape, captured from a stream.
  P.Finish = [&] {
    if (!Set->Prog)
      return;
    for (const ChainShape &Sh : Req.Shapes) {
      StormSet::ShapeGraph G;
      G.Buf = Set->Dev.alloc(ChainBytes);
      Graph Gr;
      Stream Cap;
      bool Ok = !Cap.beginCapture(Gr).isError();
      Set->Dev.copyToDeviceAsync(Cap, G.Buf, G.Stage.data(), ChainBytes);
      for (unsigned I = 0; I < Sh.Len; ++I)
        Set->Prog->launchAsync(Cap, Set->Dev, StormKernels[Sh.Kernel[I]],
                               {1, 1, 1}, {ChainThreads, 1, 1},
                               chainParams(G.Buf, Sh.K[I]), O);
      Set->Dev.copyFromDeviceAsync(Cap, G.Out.data(), G.Buf, ChainBytes);
      Ok = Ok && !Cap.endCapture().isError();
      auto E = Gr.instantiate(*Set->Prog);
      R.op(Ok && bool(E), "graph capture/instantiate");
      if (E)
        G.Exec = *E;
      Set->Graphs.push_back(std::move(G));
    }
  };
  // Timed: a seeded request, on the stream (kind 0) or by graph replay
  // (kind 1), checked against the chain applied on the host.
  P.Kinds = 2;
  P.Threads = {ChainLen * ChainThreads, ChainLen * ChainThreads};
  P.Op = [&](size_t Kind, bool Traced, OpSamples &Out) {
    size_t Shape = Req.nextShape();
    const ChainShape &Sh = Req.Shapes[Shape];
    std::vector<uint32_t> In = chainInput(Req.nextInput());
    if (!Set->Prog || Set->Graphs.size() != Req.Shapes.size()) {
      R.op(false, "storm set-up incomplete");
      return;
    }
    if (Kind == 0) {
      StreamChain T = runStreamChain(*Set->Prog, Set->Dev, Set->S, Set->Buf,
                                     Sh, In, O, Traced);
      (Traced ? Out.Traced : Out.Plain).push_back(T.Total);
      R.op(T.Ok, "stream chain output differs");
      return;
    }
    // A replay is one call: traced and untraced alike.
    StormSet::ShapeGraph &G = Set->Graphs[Shape];
    double T0 = now();
    std::memcpy(G.Stage.data(), In.data(), ChainBytes);
    G.Exec.launch(Set->S);
    bool Ok = !Set->S.synchronize().isError();
    (Traced ? Out.Traced : Out.Plain).push_back(now() - T0);
    R.op(Ok && G.Out == chainOnHost(Sh, In), "graph chain output differs");
  };
  P.Layers.Cases = stormCases();
  P.Layers.Widths = {4};
  P.Layers.TimedJit = JitMode::Native;
  // Both modes replay the same shape mix: the chain's launches, averaged
  // over the shapes.
  for (size_t Kind = 0; Kind < 2; ++Kind) {
    LayerInput::Parts Parts{Kind, {}, static_cast<double>(Req.Shapes.size())};
    for (const ChainShape &Sh : Req.Shapes)
      for (unsigned I = 0; I < Sh.Len; ++I)
        Parts.Launches.push_back({Sh.Kernel[I], 4});
    P.Layers.KindParts.push_back(std::move(Parts));
  }
  runPhases(C, P, R);
}

} // namespace perfbench
