//===- perfbench/src/ColdStart.cpp - Front end and tier-up latency -------===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// cold_start: the only workload where the parser, the transforms, the
/// vectorizer, the translation cache, native codegen, the toolchain and
/// the artifact store do the work, and the store is used both ways.
///
/// The whole 25-kernel suite takes the cheap steps in a seeded order:
/// Program::compile against an empty store and the first checked width-4
/// launch, then a fresh Program on the now-populated store. The first
/// launch's execution time differs 10x between kernels, so a median over a
/// random subset moved by a quarter from seed to seed; over the whole suite
/// only the order depends on the seed. The toolchain step (1-2 s per
/// kernel) runs on a seeded draw of eight, one from each eighth of the
/// suite ranked by SVIR size, so every draw spans the range of compile
/// costs; each set-up tiers the drawn kernels up again from the store.
///
/// A cold program runs interpreted until its background compile lands, so
/// the timed operation is an interpreted relaunch.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "simtvec/support/RNG.h"

#include <algorithm>

namespace perfbench {

void runColdStart(const Config &C, Result &R) {
  RNG Rng(C.Seed);
  std::vector<Case> Cases;
  for (const Workload &W : allWorkloads())
    Cases.push_back(workloadCase(W, 1));
  for (size_t I = Cases.size(); I > 1; --I)
    std::swap(Cases[I - 1], Cases[Rng.nextBelow(I)]);

  // The toolchain draw: one kernel per size stratum.
  constexpr unsigned Draws = 8;
  std::vector<size_t> BySize(Cases.size());
  for (size_t I = 0; I < BySize.size(); ++I)
    BySize[I] = I;
  std::sort(BySize.begin(), BySize.end(), [&](size_t A, size_t B) {
    return Cases[A].Source.size() < Cases[B].Source.size();
  });
  std::vector<size_t> Drawn;
  for (unsigned S = 0; S < Draws; ++S) {
    size_t Lo = S * BySize.size() / Draws, Hi = (S + 1) * BySize.size() / Draws;
    Drawn.push_back(BySize[Lo + Rng.nextBelow(Hi - Lo)]);
  }

  std::vector<Problem> Probs;
  for (const Case &K : Cases)
    Probs.emplace_back(K);
  std::vector<std::unique_ptr<Program>> Progs(Cases.size());
  std::vector<std::vector<std::byte>> Ref(Cases.size());
  const LaunchOptions O = tieredOptions(C, 4);
  std::string Err;

  // A fresh Program on Store and its first checked launch, kept in the set.
  auto firstResult = [&](size_t I, const std::string &Store) {
    Probs[I].reset();
    Progs[I].reset(); // the previous Program's teardown is not timed
    double T0 = now();
    Progs[I] = compileAt(Cases[I].Source, C, Store);
    auto S = Progs[I] ? Probs[I].launch(*Progs[I], Cases[I], O)
                      : Expected<LaunchStats>(Status::error("no program"));
    double Ms = (now() - T0) * 1e3;
    R.op(S && Probs[I].check(Err), Cases[I].Label + " first result: " + Err);
    Ref[I] = Probs[I].image();
    return Ms;
  };
  // A forced-native launch of unit I's Program, compared with its first
  // result.
  auto nativeLaunch = [&](size_t I) {
    Probs[I].reset();
    double T0 = now();
    auto S = Progs[I]
                 ? Probs[I].launch(*Progs[I], Cases[I],
                                   withJit(O, JitMode::Native))
                 : Expected<LaunchStats>(Status::error("no program"));
    double Ms = (now() - T0) * 1e3;
    R.op(S && Probs[I].image() == Ref[I],
         Cases[I].Label + " native output differs");
    return Ms;
  };

  Phases P;
  P.Units = Cases.size();
  P.First = firstResult;
  P.NativeUnits = Drawn;
  // The first forced-native launch (codegen, toolchain, dlopen, run) of a
  // Program that has run once on the workload's store.
  P.Native = [&](size_t I, const std::string &Store) {
    firstResult(I, Store);
    return nativeLaunch(I);
  };
  P.Begin = [&] {
    for (std::unique_ptr<Program> &Prog : Progs)
      Prog.reset();
  };
  P.Restart = firstResult;
  // Tier-up from the store: the drawn kernels' native objects are loaded,
  // not compiled.
  P.Warmup = [&] {
    for (size_t I : Drawn)
      nativeLaunch(I);
  };
  // Timed: an interpreted relaunch, compared with the checked first result.
  P.Kinds = Cases.size();
  for (const Problem &Pb : Probs)
    P.Threads.push_back(static_cast<double>(Pb.Threads));
  const LaunchOptions Interp = withJit(O, JitMode::Interp);
  P.Op = [&](size_t I, bool Traced, OpSamples &Out) {
    R.op(Progs[I] && Probs[I].timedLaunch(*Progs[I], Cases[I], Interp, Traced,
                                          Out, Ref[I]),
         Cases[I].Label + " relaunch output differs");
  };
  for (size_t I : Drawn) {
    R.Detail["drawn." + Cases[I].Label] = 1;
    P.Layers.Cases.push_back(Cases[I]);
  }
  P.Layers.Widths = {4};
  P.Layers.TimedJit = JitMode::Interp;
  // The probes time the drawn kernels; their relaunches are the kinds the
  // attribution covers.
  for (size_t D = 0; D < Drawn.size(); ++D)
    P.Layers.KindParts.push_back({Drawn[D], {{D, 4}}, 1});
  runPhases(C, P, R);
}

} // namespace perfbench
