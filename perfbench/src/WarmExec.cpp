//===- perfbench/src/WarmExec.cpp - Steady-state kernel execution --------===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// warm_exec: launches of six kernels at widths 4 and 8 after tier-up. The
/// kernels cover the divergent (Mandelbrot, LoopTrip), irregular (Bfs,
/// Spmv), barrier-heavy (BinomialOptions) and compute-uniform
/// (BlackScholes) classes; each is sized so one launch takes at least a
/// millisecond on the native tier, far above the ~50us launch overhead, so
/// the vm tiers and the execution manager are the critical path.
///
/// First results use a Program without an artifact store (the in-process
/// default); cold_start times the store's writes, which moved these
/// figures by a third between runs.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

namespace perfbench {

void runWarmExec(const Config &C, Result &R) {
  const std::pair<const char *, uint32_t> Picks[] = {
      {"Mandelbrot", 6},      {"LoopTrip", 4},    {"Bfs", 1},
      {"Spmv", 1},            {"BinomialOptions", 2},
      {"BlackScholes", 16}};
  std::vector<Case> Cases;
  for (auto [Name, Scale] : Picks)
    Cases.push_back(workloadCase(*findWorkload(Name), Scale));
  const std::vector<uint32_t> Widths = {4, 8};
  std::vector<std::pair<size_t, uint32_t>> Cells;
  for (size_t I = 0; I < Cases.size(); ++I)
    for (uint32_t W : Widths)
      Cells.push_back({I, W});

  // The set: a warmed Program and problem per kernel.
  std::vector<std::unique_ptr<Program>> Progs;
  std::vector<Problem> Probs;
  std::vector<std::vector<std::byte>> Ref(Cells.size());
  std::string Err;

  // A fresh Program on Store and its first checked width-4 launch with
  // \p J; the Program is kept in the set when \p Keep.
  auto firstResult = [&](size_t I, const std::string &Store, JitMode J,
                         bool Keep) {
    const Case &K = Cases[I];
    Problem P(K);
    double T0 = now();
    auto Prog = compileAt(K.Source, C, Store);
    auto S = Prog ? P.launch(*Prog, K, withJit(tieredOptions(C, 4), J))
                  : Expected<LaunchStats>(Status::error("no program"));
    double Ms = (now() - T0) * 1e3;
    R.op(S && P.check(Err), K.Label + " first result: " + Err);
    if (Keep && Prog) {
      Progs.push_back(std::move(Prog));
      Probs.push_back(std::move(P));
    }
    return Ms;
  };

  Phases P;
  P.Units = Cases.size();
  P.First = [&](size_t I, const std::string &) {
    return firstResult(I, "", JitMode::Auto, false);
  };
  for (size_t I = 0; I < Cases.size(); ++I)
    P.NativeUnits.push_back(I);
  P.Native = [&](size_t I, const std::string &Store) {
    return firstResult(I, Store, JitMode::Native, false);
  };
  P.Begin = [&] {
    Progs.clear();
    Probs.clear();
  };
  P.Restart = [&](size_t I, const std::string &Store) {
    return firstResult(I, Store, JitMode::Auto, true);
  };
  P.Warmup = [&] {
    for (auto [I, W] : Cells) {
      if (I >= Progs.size())
        continue;
      Probs[I].reset();
      R.op(bool(Probs[I].launch(*Progs[I], Cases[I], tieredOptions(C, W))),
           Cases[I].Label + " warm-up");
    }
  };
  // Reference images: the tiered (native) output passes the golden checker
  // and matches the interpreter bit for bit.
  P.Verify = [&] {
    for (size_t CI = 0; CI < Cells.size() && Progs.size() == Cases.size();
         ++CI) {
      auto [I, W] = Cells[CI];
      Problem &Pb = Probs[I];
      const std::string Tag = Cases[I].Label + " w" + std::to_string(W);
      Pb.reset();
      auto S = Pb.launch(*Progs[I], Cases[I], tieredOptions(C, W));
      R.op(S && Pb.check(Err), Tag + " native check: " + Err);
      Ref[CI] = Pb.image();
      Pb.reset();
      S = Pb.launch(*Progs[I], Cases[I],
                    withJit(tieredOptions(C, W), JitMode::Interp));
      R.op(S && Pb.image() == Ref[CI], Tag + " native differs from interpreter");
    }
  };
  // Timed: one tiered launch of a cell, compared with its checked image.
  P.Kinds = Cells.size();
  for (auto [I, W] : Cells)
    P.Threads.push_back(static_cast<double>(Problem(Cases[I]).Threads));
  P.Op = [&](size_t CI, bool Traced, OpSamples &Out) {
    auto [I, W] = Cells[CI];
    bool Ok = Progs.size() == Cases.size() &&
              Probs[I].timedLaunch(*Progs[I], Cases[I], tieredOptions(C, W),
                                   Traced, Out, Ref[CI]);
    R.op(Ok, Cases[I].Label + " w" + std::to_string(W) +
                 " timed launch output differs");
  };
  P.Layers.Cases = Cases;
  P.Layers.Widths = Widths;
  P.Layers.TimedJit = JitMode::Native;
  for (size_t CI = 0; CI < Cells.size(); ++CI)
    P.Layers.KindParts.push_back({CI, {Cells[CI]}, 1});
  runPhases(C, P, R);
}

} // namespace perfbench
