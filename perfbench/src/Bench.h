//===- perfbench/src/Bench.h - Shared benchmark machinery ------*- C++ -*-===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the run
/// configuration, the cases it launches (a kernel plus a host-checked
/// problem), timing statistics, registry deltas, the tiny "storm" kernels
/// the chain workloads replay, and the result every run prints.
///
/// Every workload runs the same phases (runPhases), on its own cases:
///   cold     the first forced-native launch of fresh Programs on the
///            workload's store;
///   prime    set-ups (fresh Programs on the now-warm store, warmed until
///            tier-up settles) until one lands no compile;
///   measured warm operations for the requested seconds, in slices; before
///            each slice, one repetition of the cold first results (fresh
///            Programs, each repetition on an empty store) and one timed
///            set-up (the first result of each Program is the restart).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "simtvec/runtime/Runtime.h"
#include "simtvec/serve/Client.h"
#include "simtvec/serve/Server.h"
#include "simtvec/workloads/Workloads.h"

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using namespace simtvec;

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Scratch;  ///< per-run directory, removed by the caller
  unsigned Workers = 1; ///< min(MachineModel::Cores, nproc)
  MachineModel Machine;
};

//===----------------------------------------------------------------------===//
// Timing and statistics
//===----------------------------------------------------------------------===//

double now();
double median(std::vector<double> V);
/// Linear-interpolated percentile, \p P in [0, 100].
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);

/// Latency samples of one kind of timed operation (a cell, a kernel, a
/// chain mode). In a traced run every other round is traced: made through
/// the separate public calls it is made of (launchAsync, synchronize and
/// the future's result; each enqueue of a stream chain timed on its own).
struct OpSamples {
  std::vector<double> Plain, Traced;
};

/// Traced over untraced median latency, minus one (geomean over kinds).
double traceOverhead(const std::vector<OpSamples> &Kinds);

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

struct Result {
  struct Value {
    double V = 0;
    std::string Unit;
  };
  std::map<std::string, Value> EndToEnd;
  std::map<std::string, Value> Layers;
  /// Per-case figures printed on a detail line (not part of the contract).
  std::map<std::string, double> Detail;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Broken invariants that are not operations: a compile inside a timed
  /// phase, a tier that never swapped.
  std::vector<std::string> Violations;

  void e2e(const std::string &Name, double V, const std::string &Unit) {
    EndToEnd[Name] = {V, Unit};
  }
  void layer(const std::string &Name, double V, const std::string &Unit) {
    Layers[Name] = {V, Unit};
  }
  /// Counts one attempted operation; \p Ok false counts it failed and logs
  /// \p What to stderr.
  void op(bool Ok, const std::string &What = "");
  void violation(const std::string &What);
};

/// Reports the timed phase of \p Kinds, whose operations complete
/// \p Threads kernel threads each: op_p3_us (the fast tail, 3rd
/// percentile) and exec_threads_per_s (threads per fast-tail second), each
/// a geomean over kinds, plus the median and p90 on the detail line. On a
/// shared 4-vCPU host with 5-24% steal, medians and p90s of multi-threaded
/// launches moved 2-3x between identical runs. Storm chains are bimodal
/// (fast while pool workers are awake, slow after they park), and the p10
/// sat on the edge between the modes: over five runs its IQR/median was
/// 0.27 where the p3's was 0.09. A slower program still moves the fast
/// tail.
void reportOps(Result &R, const std::vector<OpSamples> &Kinds,
               const std::vector<double> &Threads);

//===----------------------------------------------------------------------===//
// Cases
//===----------------------------------------------------------------------===//

LaunchOptions tieredOptions(const Config &C, uint32_t Width);
LaunchOptions withJit(LaunchOptions O, JitMode J);

/// One kernel and a problem for it, with a hand-written golden checker.
struct Case {
  std::string Label;
  std::string Source; ///< SVIR module text
  std::string Kernel;
  std::function<std::unique_ptr<WorkloadInstance>()> Make;
};

Case workloadCase(const Workload &W, uint32_t Scale);

/// An instance whose initial device image is kept, so every launch —
/// including of the non-idempotent Histogram64 and FastWalshTransform —
/// starts from the same inputs.
struct Problem {
  std::unique_ptr<WorkloadInstance> Inst;
  std::vector<std::byte> Initial;
  uint64_t Threads = 0;

  explicit Problem(const Case &C);
  void reset();
  std::vector<std::byte> image() const;
  Expected<LaunchStats> launch(Program &P, const Case &C,
                               const LaunchOptions &O);
  /// A timed launch from the initial image into \p Out: blocking, or when
  /// \p Traced through its public calls (submit, synchronize, result).
  /// True when it ran and left the image \p Expect.
  bool timedLaunch(Program &P, const Case &C, const LaunchOptions &O,
                   bool Traced, OpSamples &Out,
                   const std::vector<std::byte> &Expect);
  /// Runs the golden checker on the current device image.
  bool check(std::string &Error);
};

/// Program::compile with an explicit store, so nothing is read from
/// SIMTVEC_CACHE_DIR.
std::unique_ptr<Program> compileAt(const std::string &Source,
                                   const Config &C, const std::string &Store);

/// Creates <scratch>/<tag>-<n> and returns it.
std::string freshDir(const Config &C, const std::string &Tag);

//===----------------------------------------------------------------------===//
// Registry deltas
//===----------------------------------------------------------------------===//

struct Counters {
  uint64_t TcHits = 0, TcMisses = 0, TcCompiles = 0;
  uint64_t JitCompiles = 0, JitSwaps = 0;
  uint64_t Parks = 0, Launches = 0;
  static Counters read();
  Counters operator-(const Counters &R) const;
  Counters &operator+=(const Counters &R);
};

/// Runs \p Warmup and drains the worker pool (where background compiles
/// run) until a pass lands no new native swap. Auto mode requests the
/// native tier on a specialization's second launch, and which
/// specializations exist depends on the inputs: warps narrower than the
/// maximum form after divergence. False if it never settles.
bool settleTierUp(const std::function<void()> &Warmup);

//===----------------------------------------------------------------------===//
// Storm chains
//===----------------------------------------------------------------------===//

/// Three tiny u32 kernels (multiply-add, xorshift-add, and a divergent
/// Collatz step) over one buffer; chains of them are the serving shape.
extern const char *StormSource;
extern const char *const StormKernels[3];
constexpr unsigned ChainLen = 8;
constexpr unsigned ChainThreads = 64;

struct ChainShape {
  std::array<uint8_t, ChainLen> Kernel{};
  std::array<uint32_t, ChainLen> K{};
  unsigned Len = ChainLen; ///< launches used
};

std::vector<ChainShape> drawShapes(uint64_t Seed, unsigned N);
Params chainParams(uint64_t Buf, uint32_t K);
/// Hand-written reference: the chain applied on the host.
std::vector<uint32_t> chainOnHost(const ChainShape &S,
                                  std::vector<uint32_t> V);
/// The storm kernels as cases (one 64-thread CTA each).
std::vector<Case> stormCases();
/// A seeded chain input.
std::vector<uint32_t> chainInput(uint64_t Seed);

/// One chain on an in-process stream: upload, eight launches, read-back,
/// synchronize. When \p Traced, each enqueue call is timed: Submit is their
/// sum, Sync the wait.
struct StreamChain {
  double Total = 0, Submit = 0, Sync = 0;
  std::vector<uint32_t> Out; ///< the chain's read-back
  bool Ok = false;
};
StreamChain runStreamChain(Program &P, Device &D, Stream &S, uint64_t Buf,
                           const ChainShape &Sh,
                           const std::vector<uint32_t> &In,
                           const LaunchOptions &O, bool Traced = false);

/// One chain through a daemon: copyIn, eight acknowledged launches,
/// copyOut (which waits for the launches).
struct ServedChain {
  double Total = 0, CopyIn = 0, LaunchAck = 0, CopyOut = 0;
  std::vector<uint32_t> Out; ///< the chain's read-back
  bool Ok = false;
};
ServedChain runServedChain(serve::ServeClient &Cl, uint64_t Prog,
                           uint64_t Buf, const ChainShape &Sh,
                           const std::vector<uint32_t> &In,
                           const LaunchOptions &O);

/// An in-process daemon on a fresh socket under the run's scratch
/// directory, storing artifacts in \p Store. Null (and logged) on failure.
std::unique_ptr<serve::ServeDaemon> startDaemon(const Config &C,
                                                const std::string &Store);

//===----------------------------------------------------------------------===//
// Workloads, the phase driver and the per-layer probes
//===----------------------------------------------------------------------===//

/// What a workload hands the layer probes in a traced run.
struct LayerInput {
  std::vector<Case> Cases;      ///< the workload's kernels
  std::vector<uint32_t> Widths; ///< widths it launches
  JitMode TimedJit = JitMode::Native; ///< tier its timed operation runs in
  /// The launches one timed operation of kind \p Kind is made of, as
  /// (case, width) pairs, summed and divided by \p PerOp: a storm chain
  /// mode lists every launch of every shape it draws from.
  struct Parts {
    size_t Kind = 0;
    std::vector<std::pair<size_t, uint32_t>> Launches;
    double PerOp = 1;
  };
  std::vector<Parts> KindParts;
  // Filled by the phase driver.
  std::string Store; ///< artifact store holding their native objects
  Counters Timed;    ///< registry delta over the timed slices
  std::vector<OpSamples> Ops; ///< the timed slices' samples
};

/// A workload as the phase driver runs it. A unit is what a first result
/// and a restart are taken of (a kernel, or the storm module); a kind is
/// one variant of the timed operation (a cell, a kernel, a chain mode).
/// Every step counts its operations into the Result itself.
struct Phases {
  size_t Units = 0;
  /// Per unit, the percentile of its repetitions that first_result_ms and
  /// restart_first_result_ms report (geomean over units). The fast quartile
  /// by default: a first result is mostly one launch on every worker, and a
  /// repetition that overlaps another tenant's burst reads up to half as
  /// slow again. Over ten runs of cold_start the restart's fast quartile
  /// spread (IQR/median) 0.13 where its median spread 0.29.
  double FirstPercentile = 25;
  /// Measured, before each slice: unit U's first checked result by a fresh
  /// Program, in ms (building the problem and running the checker
  /// excluded). \p Store is an empty store of this repetition, to use or
  /// to ignore. It may replace the set; a set-up follows.
  std::function<double(size_t U, const std::string &Store)> First;
  /// Cold: the first forced-native launch of a fresh Program for each of
  /// \p NativeUnits on the workload's store, in ms (detail line only).
  std::vector<size_t> NativeUnits;
  std::function<double(size_t U, const std::string &Store)> Native;
  /// Set-up: Begin drops the previous set; Restart adds a fresh Program for
  /// unit U on the warm store and returns its first checked result in ms;
  /// Warmup is repeated until Auto-mode tier-up settles; Finish builds what
  /// else the timed phase needs. Warmup and Finish may be empty.
  std::function<void()> Begin;
  std::function<double(size_t U, const std::string &Store)> Restart;
  std::function<void()> Warmup, Finish;
  /// Run once after the priming set-ups, untimed: reference outputs. May be
  /// empty.
  std::function<void()> Verify;
  /// Timed: one operation of kind K on the last set, split into its public
  /// calls when \p Traced.
  size_t Kinds = 0;
  std::vector<double> Threads; ///< kernel threads per operation, per kind
  std::function<void(size_t K, bool Traced, OpSamples &Out)> Op;
  LayerInput Layers;
};

/// Runs the three phases of \p P and reports every end-to-end metric (and,
/// in a traced run, every per-layer one) into \p R.
void runPhases(const Config &C, Phases &P, Result &R);

void runWarmExec(const Config &C, Result &R);
void runColdStart(const Config &C, Result &R);
void runLaunchStorm(const Config &C, Result &R);

/// Times each layer's public entry points on \p In.Cases and reports the
/// per-layer metrics into \p R.
void probeLayers(const Config &C, const LayerInput &In, Result &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
