//===- perfbench/src/Common.cpp - Shared benchmark machinery -------------===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "simtvec/runtime/WorkerPool.h"
#include "simtvec/support/RNG.h"
#include "simtvec/support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include <sys/stat.h>

namespace perfbench {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double F = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * F;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += std::log(X);
  return std::exp(S / static_cast<double>(V.size()));
}

double traceOverhead(const std::vector<OpSamples> &Kinds) {
  std::vector<double> Plain, Traced;
  for (const OpSamples &K : Kinds) {
    Plain.push_back(median(K.Plain));
    Traced.push_back(median(K.Traced));
  }
  return geomean(Traced) / geomean(Plain) - 1;
}

void reportOps(Result &R, const std::vector<OpSamples> &Kinds,
               const std::vector<double> &Threads) {
  std::vector<double> Rate, P3, P50, P90;
  for (size_t I = 0; I < Kinds.size(); ++I) {
    const std::vector<double> &S = Kinds[I].Plain;
    P3.push_back(percentile(S, 3) * 1e6);
    P50.push_back(median(S) * 1e6);
    P90.push_back(percentile(S, 90) * 1e6);
    Rate.push_back(Threads[I] / percentile(S, 3));
  }
  R.e2e("exec_threads_per_s", geomean(Rate), "1/s");
  R.e2e("op_p3_us", geomean(P3), "us");
  R.Detail["op_p50_us"] = geomean(P50);
  R.Detail["op_p90_us"] = geomean(P90);
}

void Result::op(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  std::fprintf(stderr, "perfbench: failed: %s\n", What.c_str());
}

void Result::violation(const std::string &What) {
  Violations.push_back(What);
  std::fprintf(stderr, "perfbench: violation: %s\n", What.c_str());
}

LaunchOptions tieredOptions(const Config &C, uint32_t Width) {
  LaunchOptions O;
  O.MaxWarpSize = Width;
  O.Policy = LaunchOptions::WidthPolicy::Fixed;
  O.Workers = C.Workers;
  O.Jit = JitMode::Auto;
  O.Simd = SimdMode::Vector;
  O.Branch = BranchMode::Yield;
  return O;
}

LaunchOptions withJit(LaunchOptions O, JitMode J) {
  O.Jit = J;
  return O;
}

Case workloadCase(const Workload &W, uint32_t Scale) {
  Case C;
  C.Label = W.Name;
  C.Source = W.Source;
  C.Kernel = W.KernelName;
  const Workload *WP = &W;
  C.Make = [WP, Scale] { return WP->Make(Scale); };
  return C;
}

Problem::Problem(const Case &C) : Inst(C.Make()) {
  Initial = image();
  Threads = static_cast<uint64_t>(Inst->Grid.X) * Inst->Grid.Y *
            Inst->Grid.Z * Inst->Block.X * Inst->Block.Y * Inst->Block.Z;
}

void Problem::reset() {
  std::memcpy(Inst->Dev->data(), Initial.data(), Initial.size());
}

std::vector<std::byte> Problem::image() const {
  const std::byte *D = Inst->Dev->data();
  return std::vector<std::byte>(D, D + Inst->Dev->size());
}

Expected<LaunchStats> Problem::launch(Program &P, const Case &C,
                                      const LaunchOptions &O) {
  return P.launch(*Inst->Dev, C.Kernel, Inst->Grid, Inst->Block,
                  Inst->Params, O);
}

bool Problem::timedLaunch(Program &P, const Case &C, const LaunchOptions &O,
                          bool Traced, OpSamples &Out,
                          const std::vector<std::byte> &Expect) {
  reset();
  bool Ok;
  if (!Traced) {
    double T0 = now();
    Ok = bool(launch(P, C, O));
    Out.Plain.push_back(now() - T0);
  } else {
    Stream S;
    double T0 = now();
    LaunchFuture F = P.launchAsync(S, *Inst->Dev, C.Kernel, Inst->Grid,
                                   Inst->Block, Inst->Params, O);
    Ok = !S.synchronize().isError();
    Ok = Ok && bool(F.get());
    Out.Traced.push_back(now() - T0);
  }
  return Ok &&
         std::memcmp(Inst->Dev->data(), Expect.data(), Expect.size()) == 0;
}

bool Problem::check(std::string &Error) {
  return Inst->Check(*Inst->Dev, Error);
}

std::unique_ptr<Program> compileAt(const std::string &Source,
                                   const Config &C, const std::string &Store) {
  SpecializationOptions S;
  S.CacheDir = Store;
  auto P = Program::compile(Source, C.Machine, S);
  if (!P) {
    std::fprintf(stderr, "perfbench: compile failed: %s\n",
                 P.status().message().c_str());
    return nullptr;
  }
  return P.take();
}

std::string freshDir(const Config &C, const std::string &Tag) {
  static unsigned Next = 0;
  std::string D = C.Scratch + "/" + Tag + "-" + std::to_string(Next++);
  ::mkdir(D.c_str(), 0755);
  return D;
}

Counters Counters::read() {
  auto S = MetricsRegistry::global().snapshot();
  Counters C;
  C.TcHits = S.counterValue("tc.hits");
  C.TcMisses = S.counterValue("tc.misses");
  C.TcCompiles = S.counterValue("tc.compile");
  C.JitCompiles = S.counterValue("tc.jit_compile");
  C.JitSwaps = S.counterValue("tc.jit_swap");
  C.Parks = WorkerPool::global().stats().Parks;
  C.Launches = S.counterValue("launch.count");
  return C;
}

Counters Counters::operator-(const Counters &R) const {
  Counters D;
  D.TcHits = TcHits - R.TcHits;
  D.TcMisses = TcMisses - R.TcMisses;
  D.TcCompiles = TcCompiles - R.TcCompiles;
  D.JitCompiles = JitCompiles - R.JitCompiles;
  D.JitSwaps = JitSwaps - R.JitSwaps;
  D.Parks = Parks - R.Parks;
  D.Launches = Launches - R.Launches;
  return D;
}

Counters &Counters::operator+=(const Counters &R) {
  TcHits += R.TcHits;
  TcMisses += R.TcMisses;
  TcCompiles += R.TcCompiles;
  JitCompiles += R.JitCompiles;
  JitSwaps += R.JitSwaps;
  Parks += R.Parks;
  Launches += R.Launches;
  return *this;
}

bool settleTierUp(const std::function<void()> &Warmup) {
  for (int Pass = 0; Pass < 8; ++Pass) {
    Counters Base = Counters::read();
    Warmup();
    WorkerPool::global().drain();
    if (Pass > 0 && (Counters::read() - Base).JitSwaps == 0)
      return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// The phase driver
//===----------------------------------------------------------------------===//

namespace {

/// Per unit, percentile \p P of its repetitions.
std::vector<double> perUnit(const std::vector<std::vector<double>> &Reps,
                            double P) {
  std::vector<double> M;
  for (const std::vector<double> &T : Reps)
    M.push_back(percentile(T, P));
  return M;
}

void pause() { std::this_thread::sleep_for(std::chrono::milliseconds(100)); }

} // namespace

void runPhases(const Config &C, Phases &P, Result &R) {
  // Cold: the first forced-native launches on the workload's store.
  const std::string Store = freshDir(C, "store");
  std::vector<double> NativeMs;
  for (size_t U : P.NativeUnits)
    NativeMs.push_back(P.Native(U, Store));

  // Set-up: untimed until one lands no compile, to prime the store (the
  // background compiles of the specializations the warm-up forms land
  // there, some only after the set-up that requested them).
  std::vector<std::vector<double>> First(P.Units), Restart(P.Units);
  std::vector<double> SetupS;
  auto setUp = [&](bool Counted) {
    const double T0 = now();
    P.Begin();
    for (size_t U = 0; U < P.Units; ++U) {
      double Ms = P.Restart(U, Store);
      if (Counted)
        Restart[U].push_back(Ms);
    }
    if (P.Warmup && !settleTierUp(P.Warmup))
      R.violation(C.Workload + ": tier-up did not settle");
    if (P.Finish)
      P.Finish();
    if (Counted)
      SetupS.push_back(now() - T0);
  };
  for (int Prime = 0; Prime < 4; ++Prime) {
    const Counters B = Counters::read();
    setUp(false);
    const Counters D = Counters::read() - B;
    if (D.TcCompiles == 0 && D.JitCompiles == 0)
      break;
  }
  if (P.Verify)
    P.Verify();

  // Measured: the run's seconds of timed operations, cut into slices (about
  // a third of a second each, at least five). Before each slice come one
  // repetition of the cold first results, each on an empty store of its
  // own, and one timed set-up, whose set the slice then uses; each step
  // 100 ms after the previous one, so that one burst of disk contention
  // cannot cover many of them. The host's speed drifts by a fifth over
  // five to twenty seconds on a shared 4-vCPU machine: repetitions spread
  // over the whole run average that drift, where a block of them in four
  // seconds sampled one period of it. In a timed slice the kinds run
  // round-robin in a seeded order; in a traced run every other round is
  // traced.
  std::vector<size_t> Order(P.Kinds);
  for (size_t K = 0; K < Order.size(); ++K)
    Order[K] = K;
  RNG Rng(C.Seed);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
  std::vector<OpSamples> Ops(P.Kinds);
  Counters Setups, Timed;
  const unsigned Steps =
      std::max(5u, static_cast<unsigned>(std::lround(C.Seconds * 3)));
  const double Slice = C.Seconds / Steps;
  unsigned Round = 0;
  for (unsigned Step = 0; Step < Steps; ++Step) {
    pause();
    const std::string Empty = freshDir(C, "first-store");
    for (size_t U = 0; U < P.Units; ++U)
      First[U].push_back(P.First(U, Empty));
    pause();
    Counters Base = Counters::read();
    setUp(true);
    Setups += Counters::read() - Base;
    Base = Counters::read();
    const double End = now() + Slice;
    do {
      for (size_t K : Order)
        P.Op(K, C.Trace && Round % 2 == 1, Ops[K]);
      ++Round;
    } while (now() < End || (Step + 1 == Steps && Round < 10));
    Timed += Counters::read() - Base;
  }
  R.Detail["setup_tc_compiles"] = static_cast<double>(Setups.TcCompiles);
  R.Detail["setup_jit_compiles"] = static_cast<double>(Setups.JitCompiles);
  if (Timed.TcCompiles || Timed.JitCompiles)
    R.violation(C.Workload + ": compiles inside the timed phase");

  reportOps(R, Ops, P.Threads);
  R.e2e("first_result_ms", geomean(perUnit(First, P.FirstPercentile)),
        "ms");
  R.e2e("restart_first_result_ms",
        geomean(perUnit(Restart, P.FirstPercentile)), "ms");
  R.e2e("setup_s", median(SetupS), "s");
  R.Detail["first_result_p50_ms"] = geomean(perUnit(First, 50));
  R.Detail["restart_first_result_p50_ms"] = geomean(perUnit(Restart, 50));
  R.Detail["time_to_native_ms"] = geomean(NativeMs);

  P.Begin(); // drop the last set before probing
  if (!C.Trace)
    return;
  P.Layers.Store = Store;
  P.Layers.Timed = Timed;
  P.Layers.Ops = std::move(Ops);
  probeLayers(C, P.Layers, R);
}

//===----------------------------------------------------------------------===//
// Storm chains
//===----------------------------------------------------------------------===//

const char *StormSource = R"(
.kernel mixa (.param .u64 buf, .param .u32 k)
{
  .reg .u32 %i, %v, %k;
  .reg .u64 %p, %off;
entry:
  mov.u32 %i, %tid.x;
  cvt.u64.u32 %off, %i;
  shl.u64 %off, %off, 2;
  ld.param.u64 %p, [buf];
  add.u64 %p, %p, %off;
  ld.param.u32 %k, [k];
  ld.global.u32 %v, [%p];
  mad.u32 %v, %v, %k, 1;
  st.global.u32 [%p], %v;
  ret;
}

.kernel mixb (.param .u64 buf, .param .u32 k)
{
  .reg .u32 %i, %v, %w, %k;
  .reg .u64 %p, %off;
entry:
  mov.u32 %i, %tid.x;
  cvt.u64.u32 %off, %i;
  shl.u64 %off, %off, 2;
  ld.param.u64 %p, [buf];
  add.u64 %p, %p, %off;
  ld.param.u32 %k, [k];
  ld.global.u32 %v, [%p];
  shr.u32 %w, %v, 7;
  xor.u32 %v, %v, %w;
  add.u32 %v, %v, %k;
  st.global.u32 [%p], %v;
  ret;
}

.kernel mixc (.param .u64 buf, .param .u32 k)
{
  .reg .u32 %i, %v, %w, %k;
  .reg .u64 %p, %off;
  .reg .pred %q;
entry:
  mov.u32 %i, %tid.x;
  cvt.u64.u32 %off, %i;
  shl.u64 %off, %off, 2;
  ld.param.u64 %p, [buf];
  add.u64 %p, %p, %off;
  ld.param.u32 %k, [k];
  ld.global.u32 %v, [%p];
  and.u32 %w, %v, 1;
  setp.eq.u32 %q, %w, 0;
  @%q bra even, odd;
even:
  shr.u32 %v, %v, 1;
  bra done;
odd:
  mad.u32 %v, %v, 3, %k;
  bra done;
done:
  st.global.u32 [%p], %v;
  ret;
}
)";

const char *const StormKernels[3] = {"mixa", "mixb", "mixc"};

std::vector<ChainShape> drawShapes(uint64_t Seed, unsigned N) {
  RNG R(Seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<ChainShape> Out(N);
  for (ChainShape &S : Out)
    for (unsigned I = 0; I < ChainLen; ++I) {
      S.Kernel[I] = static_cast<uint8_t>(R.nextBelow(3));
      S.K[I] = static_cast<uint32_t>(R.next()) | 1;
    }
  return Out;
}

Params chainParams(uint64_t Buf, uint32_t K) {
  Params P;
  P.u64(Buf).u32(K);
  return P;
}

static uint32_t stormStep(unsigned Kernel, uint32_t K, uint32_t X) {
  switch (Kernel) {
  case 0:
    return X * K + 1;
  case 1:
    return (X ^ (X >> 7)) + K;
  default:
    return (X & 1) ? X * 3 + K : X >> 1;
  }
}

std::vector<uint32_t> chainOnHost(const ChainShape &S,
                                  std::vector<uint32_t> V) {
  for (unsigned I = 0; I < S.Len; ++I)
    for (uint32_t &X : V)
      X = stormStep(S.Kernel[I], S.K[I], X);
  return V;
}

std::vector<Case> stormCases() {
  std::vector<Case> Out;
  for (unsigned KI = 0; KI < 3; ++KI) {
    Case C;
    C.Label = std::string("storm.") + StormKernels[KI];
    C.Source = StormSource;
    C.Kernel = StormKernels[KI];
    C.Make = [KI] {
      constexpr uint32_t K = 0x2545F491u;
      auto I = std::make_unique<WorkloadInstance>();
      I->Dev = std::make_unique<Device>(4096);
      uint64_t Buf = I->Dev->alloc(ChainThreads * 4);
      std::vector<uint32_t> In(ChainThreads);
      for (unsigned T = 0; T < ChainThreads; ++T)
        In[T] = T * 2654435761u + 12345u;
      I->Dev->upload(Buf, In);
      I->Grid = {1, 1, 1};
      I->Block = {ChainThreads, 1, 1};
      I->Params = chainParams(Buf, K);
      I->Check = [Buf, In, KI](Device &D, std::string &Error) {
        std::vector<uint32_t> Want = In;
        for (uint32_t &X : Want)
          X = stormStep(KI, K, X);
        if (D.download<uint32_t>(Buf, ChainThreads) == Want)
          return true;
        Error = "storm kernel output differs from the host reference";
        return false;
      };
      return I;
    };
    Out.push_back(std::move(C));
  }
  return Out;
}

} // namespace perfbench
