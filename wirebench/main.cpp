//===- wirebench/main.cpp - The fnc2d wire benchmark driver ---------------===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage:
///
///   wirebench --workload NAME --seed N --seconds S --trace 0|1
///             [--scratch DIR]
///   wirebench --self-test [--scratch DIR]
///
/// --trace 0 measures one workload end to end in this process: repeated
/// set-up (median reported as setup_s), a discarded warm-up, then S seconds
/// of closed-loop traffic. Every figure covers every request of the timed
/// phase; the run fails when fewer than ten latency samples lie beyond
/// p99. --trace 1 times every layer: it runs each of the four workloads in
/// turn (NAME first) for S/4 seconds, half untraced and half traced, and
/// reports the per-layer metrics plus each workload's tracing overhead.
/// The last line of stdout is the result object.
///
/// --self-test checks that equal seeds give byte-identical request logs on
/// every workload, and that one planted wrong expectation per workload is
/// counted as exactly one failed operation.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "codegen/NativeBackend.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

using namespace wirebench;

namespace {

/// Set-up runs at least MinSetups times and until MinSetupSec of set-up
/// time accumulated; setup_s is the median. Cheap set-ups (a bare daemon)
/// are timed thousands of times, so their median is steady.
constexpr unsigned MinSetups = 5;
constexpr double MinSetupSec = 0.5;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SelfTest = false;
  std::string Scratch = ".bench_build/wirebench-scratch";
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "wirebench: %s\nusage: wirebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scratch DIR]\n"
               "       wirebench --self-test [--scratch DIR]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--self-test") {
      A.SelfTest = true;
      continue;
    }
    if (I + 1 == Argc)
      usage(("missing value for " + K).c_str());
    std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::stoull(V);
    else if (K == "--seconds")
      A.Seconds = std::stod(V);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--scratch")
      A.Scratch = V;
    else
      usage(("unknown option " + K).c_str());
  }
  if (A.SelfTest)
    return A;
  const std::vector<std::string> &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), A.Workload) == Names.end())
    usage(("unknown workload '" + A.Workload + "'").c_str());
  if (!(A.Seconds > 0))
    usage("--seconds must be positive");
  return A;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const std::string &Scratch) {
  if (Name == "evaluate-small")
    return makeEvaluateSmall();
  if (Name == "batch-merged")
    return makeBatchMerged();
  if (Name == "edit-session")
    return makeEditSession();
  return makeRegisterCold(Scratch);
}

/// The host fingerprint every result carries, so runs on different
/// machines or builds are never compared silently.
void printFingerprint(const Args &A, const DaemonOptions &O) {
#if FNC2_TRACE_ENABLED
  const char *Trace = "ON";
#else
  const char *Trace = "OFF";
#endif
  std::printf("{\"fingerprint\": {\"nproc\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"fnc2_trace\": \"%s\", "
              "\"host_compiler\": %s, \"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"daemon\": {\"executors\": "
              "%u, \"pool_threads\": %u, \"registry_shards\": %u, "
              "\"registry_capacity\": %zu, \"merged_batch_min\": %u, "
              "\"cache_dir\": \"%s\"}}}\n",
              std::thread::hardware_concurrency(), WIREBENCH_COMPILER,
              WIREBENCH_BUILD_TYPE, Trace,
              NativeBackend::available() ? "true" : "false",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0, O.Executors, O.PoolThreads,
              O.RegistryShards, O.RegistryCapacity, O.MergedBatchMin,
              O.CacheDir.c_str());
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const Report &R) {
  std::string J = "{\"correct\": ";
  J += Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(Attempted);
  J += ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, VU] : R.metrics()) {
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.17g", VU.first);
    J += (First ? "" : ", ") + std::string("\"") + Name +
         "\": {\"value\": " + Num + ", \"unit\": \"" + VU.second + "\"}";
    First = false;
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

/// Latency samples strictly above the nearest-rank p99.
size_t beyondP99(const Phase &P) {
  size_t N = P.LatMs.size();
  return N - static_cast<size_t>(std::ceil(0.99 * double(N)));
}

void printPhase(const char *Name, const char *Label, const Phase &P) {
  std::printf("wirebench: %s %s: requests=%llu failed=%llu samples=%zu "
              "beyond_p99=%zu wall_s=%.3f\n",
              Name, Label, static_cast<unsigned long long>(P.Attempted),
              static_cast<unsigned long long>(P.Failed), P.LatMs.size(),
              beyondP99(P), P.WallSec);
}

/// --trace 0: the end-to-end metrics of one workload.
int runEndToEnd(const Args &A) {
  std::unique_ptr<Workload> W = makeWorkload(A.Workload, A.Scratch);
  printFingerprint(A, W->daemonOptions());
  double T0 = nowSec();
  W->generate(A.Seed);
  double GenSec = nowSec() - T0;

  Samples Setup;
  double SetupSum = 0;
  while (Setup.size() < MinSetups || SetupSum < MinSetupSec) {
    Setup.add(W->setup());
    SetupSum += Setup.V.back();
  }
  Phase WarmP = W->run(0, Mode::Warmup, W->warmupRequests());
  double Rss = peakRssMb();
  Phase P = W->run(A.Seconds, Mode::Timed);
  double T1 = nowSec();
  uint64_t Mismatches = W->verify();
  std::fprintf(stderr,
               "wirebench: %s generate_s=%.3f setups=%zu verify_s=%.3f\n",
               W->name(), GenSec, Setup.size(), nowSec() - T1);
  printPhase(W->name(), "timed", P);
  if (beyondP99(P) < 10) {
    std::fprintf(stderr,
                 "wirebench: %s left %zu samples beyond p99 (of %zu); at "
                 "least 10 are required\n",
                 W->name(), beyondP99(P), P.LatMs.size());
    return 1;
  }

  uint64_t Failed = P.Failed + WarmP.Failed + Mismatches;
  uint64_t Good = P.Attempted > P.Failed + Mismatches
                      ? P.Attempted - P.Failed - Mismatches
                      : 0;
  Report R;
  R.metric("setup_s", Setup.median(), "s");
  // Only Ok-and-correct responses count towards the rate.
  R.metric("req_per_s", double(Good) / P.WallSec, "1/s");
  R.metric("p50_ms", P.LatMs.quantile(0.5), "ms");
  R.metric("p99_ms", P.LatMs.quantile(0.99), "ms");
  R.metric("cpu_ms_per_req", P.cpuMsPerReq(), "ms");
  R.metric("peak_rss_mb", Rss, "MiB");
  printResult(Failed == 0, P.Attempted, Failed, R);
  return 0;
}

/// States whether the traced run reproduced the three probe splits that
/// motivated the layer list.
void reportProbes(const Report &R) {
  struct Probe {
    const char *Metric, *Claim;
    double Lo, Hi;
  };
  static const Probe Probes[] = {
      {"probe.read_term_over_evaluate",
       "evaluate-small: readTerm costs more than Evaluator::evaluate", 1, 1e9},
      {"probe.digest_share_of_edit_pct",
       "edit-session: the digest is about 93% of an Edit at 10k nodes", 83,
       100},
      {"probe.storage_share_s3_pct",
       "register-cold: storage is 85-90% of generation at S3", 80, 95},
  };
  for (const Probe &P : Probes) {
    double V = R.value(P.Metric);
    std::printf("wirebench: probe %s: %s (%s = %.3g)\n", P.Claim,
                V > P.Lo && V <= P.Hi ? "reproduced" : "NOT reproduced",
                P.Metric, V);
  }
}

/// --trace 1: every layer, each workload in turn.
int runTraced(const Args &A) {
  std::vector<std::string> Order = {A.Workload};
  for (const std::string &N : workloadNames())
    if (N != A.Workload)
      Order.push_back(N);
  double Seconds = std::max(1.0, A.Seconds / double(Order.size()));

  Report R;
  uint64_t Attempted = 0, Failed = 0;
  bool First = true;
  for (const std::string &Name : Order) {
    std::unique_ptr<Workload> W = makeWorkload(Name, A.Scratch);
    if (First)
      printFingerprint(A, W->daemonOptions());
    First = false;
    W->generate(A.Seed);
    W->setup();
    Phase WarmP = W->run(0, Mode::Warmup, W->warmupRequests());
    Phase Plain = W->run(Seconds / 2, Mode::Timed);
    Phase Traced = W->run(Seconds / 2, Mode::Traced);
    uint64_t Mismatches = W->verify();
    printPhase(W->name(), "untraced", Plain);
    printPhase(W->name(), "traced", Traced);
    W->layers(R);
    R.metric("trace." + Name + ".overhead_pct",
             100.0 * (1 - Traced.reqPerSec() / Plain.reqPerSec()), "%");
    Attempted += Plain.Attempted + Traced.Attempted;
    Failed += WarmP.Failed + Plain.Failed + Traced.Failed + Mismatches;
  }
  reportProbes(R);
  printResult(Failed == 0, Attempted, Failed, R);
  return 0;
}

/// --self-test: determinism of the generated logs and the planted mismatch.
int runSelfTest(const Args &A) {
  bool Ok = true;
  for (const std::string &Name : workloadNames()) {
    std::unique_ptr<Workload> W1 = makeWorkload(Name, A.Scratch);
    std::unique_ptr<Workload> W2 = makeWorkload(Name, A.Scratch);
    std::unique_ptr<Workload> W3 = makeWorkload(Name, A.Scratch);
    W1->generate(11);
    W2->generate(11);
    W3->generate(12);
    std::vector<uint8_t> L1 = W1->requestLog().encodeFile();
    bool Same = L1 == W2->requestLog().encodeFile();
    bool Differs = L1 != W3->requestLog().encodeFile();
    std::printf("self-test: %s: same seed byte-identical %s (%zu bytes), "
                "other seed differs %s\n",
                Name.c_str(), Same ? "yes" : "NO", L1.size(),
                Differs ? "yes" : "NO");
    Ok &= Same && Differs;

    // One planted wrong expectation must surface as exactly one failure.
    W2.reset();
    W3.reset();
    W1->setup();
    W1->plantMismatch();
    Phase P = W1->run(0, Mode::Timed, /*Limit=*/4);
    uint64_t Failed = P.Failed + W1->verify();
    std::printf("self-test: %s: planted mismatch counted %llu time(s) in "
                "%llu requests\n",
                Name.c_str(), static_cast<unsigned long long>(Failed),
                static_cast<unsigned long long>(P.Attempted));
    Ok &= Failed == 1;
  }
  std::printf("self-test: %s\n", Ok ? "passed" : "FAILED");
  return Ok ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  if (A.SelfTest)
    return runSelfTest(A);
  return A.Trace ? runTraced(A) : runEndToEnd(A);
}
