//===- wirebench/Common.h - Shared pieces of the fnc2d wire benchmark -----===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the four workloads share: the seeded RNG, the oracle digest fold,
/// the closed-loop client runner, the sample statistics and the report the
/// driver prints. Every workload follows one life cycle, driven by main.cpp:
///
///   generate(seed)  build every request frame and every expected value
///   setup()         fresh daemon + registrations + session opens (timed
///                   as setup_s, repeated, the last one serves the run)
///   run(warm-up)    a fixed number of requests per client, discarded;
///                   peak RSS is read after it
///   run(timed)      closed loop for --seconds; inline oracle checks
///   verify()        oracle checks that need the whole phase's responses
///
/// A traced run adds a second timed phase with Mode::Traced, in which the
/// workload times the public entry point of each layer from here, never
/// from inside src/.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_WIREBENCH_COMMON_H
#define FNC2_WIREBENCH_COMMON_H

#include "service/Traffic.h"
#include "support/Trace.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace wirebench {

using namespace fnc2;
using namespace fnc2::service;

/// splitmix64: the benchmark's own input RNG, so no library change can shift
/// the generated traffic.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed * 0x9E3779B97F4A7C15ull + 7) {}
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return N == 0 ? 0 : next() % N; }
};

/// Derives an independent stream seed from (seed, salt...).
uint64_t mixSeed(uint64_t Seed, uint64_t A, uint64_t B = 0);

double nowSec();
/// Process CPU time (user + system, getrusage).
double cpuSec();
/// Process peak resident set (VmHWM) in MiB.
double peakRssMb();

/// Root-inherited bindings of the wire: Value 7 for every inherited
/// attribute of the start phylum (the convention the test suite uses).
std::vector<std::pair<std::string, Value>>
rootInheritedBindings(const AttributeGrammar &AG);

/// The root-synthesized digest the daemon reports (service/Daemon.cpp
/// rootSynthAttrs): (name, value) of every computed synthesized attribute of
/// the start phylum, in declaration order, FNV-1a folded. The pairs are
/// appended to \p Attrs when it is given.
uint64_t rootDigest(const AttributeGrammar &AG, const TreeNode *Root,
                    std::vector<std::pair<std::string, Value>> *Attrs =
                        nullptr);

/// The independent oracle for one-shot evaluations: the dynamically
/// scheduled DemandEvaluator over a fresh parse of \p Term. Aborts the
/// process when the oracle itself fails (the inputs are ours).
uint64_t demandDigest(const AttributeGrammar &AG, const std::string &Term,
                      const std::vector<std::pair<std::string, Value>> &Inh);

/// Resolves wire bindings to attribute ids of the start phylum.
std::vector<std::pair<AttrId, Value>>
resolveBindings(const AttributeGrammar &AG,
                const std::vector<std::pair<std::string, Value>> &Inh);

/// A grammar as clients address it: the registration source, the OAG
/// budget, the client-side copy of the grammar, and its wire key.
struct WireGrammar {
  std::string Source;
  unsigned OagK = 0;
  const AttributeGrammar *AG = nullptr;
  uint64_t Key = 0;
};

/// The five resident grammars of the evaluate workloads: the builtin desk,
/// repmin and binary grammars, plus the first two molga system AGs.
class Roster {
public:
  Roster();
  const std::vector<WireGrammar> &grammars() const { return Grammars; }

private:
  std::vector<std::unique_ptr<AttributeGrammar>> Builtins;
  std::vector<std::unique_ptr<olga::CompileResult>> Molga;
  std::vector<WireGrammar> Grammars;
};

/// Builds a daemon and registers \p Gs through the wire, checking each
/// returned key. Exits the process on a failed registration.
std::unique_ptr<Daemon> startDaemon(const DaemonOptions &O,
                                    const std::vector<WireGrammar> &Gs);

/// Decodes a response frame; an undecodable frame becomes an Error response.
Response decodeOrError(const std::vector<uint8_t> &Frame);

[[noreturn]] void die(const std::string &Why);

/// Latencies, layer times or counts of one phase (floats: half the memory
/// of doubles, far more precision than a timer gives).
struct Samples {
  std::vector<float> V;
  void add(double X) { V.push_back(float(X)); }
  void append(const Samples &O) { V.insert(V.end(), O.V.begin(), O.V.end()); }
  size_t size() const { return V.size(); }
  /// Nearest-rank quantile (0 when empty).
  double quantile(double Q) const;
  double median() const { return quantile(0.5); }
};

enum class Mode { Warmup, Timed, Traced };

/// What one closed-loop phase produced. Every figure covers the whole
/// phase: every request's latency is kept, and the rates divide by the
/// phase's full wall time.
struct Phase {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  Samples LatMs;      ///< Latency of every request, submit to response.
  double WallSec = 0; ///< From the first submit to the last response.
  double CpuSec = 0;  ///< Process CPU time over the same interval.
  uint64_t okRequests() const { return Attempted - Failed; }
  double reqPerSec() const {
    return WallSec > 0 ? double(okRequests()) / WallSec : 0;
  }
  double cpuMsPerReq() const {
    return Attempted ? CpuSec * 1e3 / double(Attempted) : 0;
  }
};

/// The wall and CPU clocks of one phase, started at construction.
struct PhaseClock {
  double Wall0 = nowSec(), Cpu0 = cpuSec();
  /// Sleeps until \p Seconds have passed since the clock started.
  void sleepFor(double Seconds) const;
  /// Records the elapsed wall and CPU time in \p P.
  void stop(Phase &P) const;
};

/// One request of a closed-loop client: its latency, and whether the
/// response was Ok and matched the oracle.
struct StepResult {
  bool Ok = true;
  double LatMs = 0;
};
/// Runs \p Clients closed-loop client threads until \p Seconds elapse (or,
/// when \p Limit is nonzero, until each client made \p Limit requests).
/// Step(C) sends client C's next request and waits for its response.
Phase runClients(unsigned Clients, double Seconds, uint64_t Limit,
                 const std::function<StepResult(unsigned)> &Step);

/// One closed span of the program's own trace (support/Trace.h), with its
/// self time: its duration less the spans nested directly inside it on the
/// same thread.
struct SpanInstance {
  std::string Name;
  uint32_t Tid = 0;
  uint64_t Begin = 0, End = 0, SelfTicks = 0;
};

/// A process-wide TraceCollector installed for one phase, with the tick
/// clock calibrated against steady_clock over the same interval. start()
/// and stop() must be called while no request is in flight.
class TraceWindow {
public:
  void start();
  void stop();
  trace::TraceCollector &collector() { return C; }
  double usPerTick() const { return UsPerTick; }
  /// Every span the window collected.
  std::vector<SpanInstance> spans() const;

private:
  trace::TraceCollector C;
  double Sec0 = 0;
  uint64_t Tick0 = 0;
  double UsPerTick = 0;
};

/// Per-layer metrics, in the order reported. A name reported twice keeps its
/// first value (the workload named on the command line reports first).
class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  bool has(const std::string &Name) const;
  /// The value reported under \p Name (0 when absent).
  double value(const std::string &Name) const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>> &
  metrics() const {
    return Rows;
  }

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Rows;
};

/// The life cycle every workload implements (see the file comment).
class Workload {
public:
  virtual ~Workload() = default;
  virtual const char *name() const = 0;
  /// Builds every frame and expected value. Clients cycle through their
  /// frames, so the set does not depend on the run length.
  virtual void generate(uint64_t Seed) = 0;
  /// Every frame any client may send, client after client.
  virtual RequestLog requestLog() const = 0;
  /// Tears down any previous daemon, then builds a fresh one with this
  /// workload's grammars and sessions; returns the seconds the build took
  /// (the teardown is not counted).
  virtual double setup() = 0;
  /// One closed-loop phase; \p Limit > 0 bounds requests per client.
  virtual Phase run(double Seconds, Mode M, uint64_t Limit = 0) = 0;
  /// Requests per client of the discarded warm-up (about half a second).
  /// peak_rss_mb is read after it, at a request count that does not
  /// depend on the daemon's speed.
  virtual uint64_t warmupRequests() const = 0;
  /// Checks needing whole-phase state; returns the number of mismatches.
  virtual uint64_t verify() = 0;
  /// Corrupts exactly one expected value among the requests of the next
  /// phase (the planted-mismatch self-test).
  virtual void plantMismatch() = 0;
  /// Layer metrics of the Mode::Traced phases run so far.
  virtual void layers(Report &R) = 0;
  /// Daemon options, for the host fingerprint.
  virtual DaemonOptions daemonOptions() const = 0;
};

std::unique_ptr<Workload> makeEvaluateSmall();
std::unique_ptr<Workload> makeBatchMerged();
std::unique_ptr<Workload> makeEditSession();
std::unique_ptr<Workload> makeRegisterCold(std::string ScratchDir);

/// The workload names, in the order a traced run covers them.
const std::vector<std::string> &workloadNames();

} // namespace wirebench

#endif // FNC2_WIREBENCH_COMMON_H
