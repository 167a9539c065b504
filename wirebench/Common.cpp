//===- wirebench/Common.cpp - Shared pieces of the fnc2d wire benchmark ---===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "eval/DemandEvaluator.h"
#include "incremental/EditLog.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/SpecGen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sys/resource.h>
#include <thread>

namespace wirebench {

uint64_t mixSeed(uint64_t Seed, uint64_t A, uint64_t B) {
  Rng R(Seed ^ (A * 0xD6E8FEB86659FD93ull) ^ (B * 0xA0761D6478BD642Full));
  return R.next();
}

double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSec() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return double(T.tv_sec) + double(T.tv_usec) * 1e-6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

std::vector<std::pair<std::string, Value>>
rootInheritedBindings(const AttributeGrammar &AG) {
  std::vector<std::pair<std::string, Value>> B;
  for (AttrId A : AG.phylum(AG.Start).Attrs)
    if (AG.attr(A).isInherited())
      B.emplace_back(AG.attr(A).Name, Value::ofInt(7));
  return B;
}

uint64_t rootDigest(const AttributeGrammar &AG, const TreeNode *Root,
                    std::vector<std::pair<std::string, Value>> *Attrs) {
  serialize::ByteWriter W;
  for (AttrId A : AG.phylum(AG.Start).Attrs) {
    const Attribute &At = AG.attr(A);
    if (!At.isSynthesized() || !Root->attrComputed(At.IndexInOwner))
      continue;
    const Value &V = Root->attrVal(At.IndexInOwner);
    W.str(At.Name);
    encodeValue(W, V);
    if (Attrs)
      Attrs->emplace_back(At.Name, V);
  }
  return serialize::fnv1a64(W.bytes());
}

std::vector<std::pair<AttrId, Value>>
resolveBindings(const AttributeGrammar &AG,
                const std::vector<std::pair<std::string, Value>> &Inh) {
  std::vector<std::pair<AttrId, Value>> Out;
  for (const auto &[Name, V] : Inh)
    Out.emplace_back(AG.findAttr(AG.Start, Name), V);
  return Out;
}

uint64_t demandDigest(const AttributeGrammar &AG, const std::string &Term,
                      const std::vector<std::pair<std::string, Value>> &Inh) {
  DiagnosticEngine Diags;
  Tree T = readTerm(AG, Term, Diags);
  DemandEvaluator DE(AG);
  for (auto &[A, V] : resolveBindings(AG, Inh))
    DE.setRootInherited(A, V);
  if (!T.root() || Diags.hasErrors() || !DE.evaluateAll(T, Diags))
    die("oracle: demand evaluation failed: " + Diags.dump());
  return rootDigest(AG, T.root());
}

Roster::Roster() {
  DiagnosticEngine Diags;
  auto Builtin = [&](const char *Name, AttributeGrammar AG) {
    Builtins.push_back(std::make_unique<AttributeGrammar>(std::move(AG)));
    Grammars.push_back({std::string("builtin:") + Name, 0,
                        Builtins.back().get(), 0});
  };
  Builtin("desk", workloads::deskCalculator(Diags));
  Builtin("repmin", workloads::repmin(Diags));
  Builtin("binary", workloads::binaryNumbers(Diags));
  if (Diags.hasErrors())
    die("builtin grammars failed: " + Diags.dump());
  for (const workloads::SystemAg &S : workloads::systemAgSuite()) {
    if (Grammars.size() == 5)
      break;
    DiagnosticEngine CD;
    auto CR = std::make_unique<olga::CompileResult>(
        olga::compileMolga(S.Source, CD));
    if (!CR->Success || CR->Grammars.empty())
      continue;
    Grammars.push_back({S.Source, S.OagK, &CR->Grammars.front().AG, 0});
    Molga.push_back(std::move(CR));
  }
  if (Grammars.size() != 5)
    die("fewer than two molga system AGs compiled");
  for (WireGrammar &G : Grammars) {
    GeneratorOptions GO;
    GO.OagK = G.OagK;
    G.Key = ArtifactCache::artifactKey(*G.AG, GO);
  }
}

std::unique_ptr<Daemon> startDaemon(const DaemonOptions &O,
                                    const std::vector<WireGrammar> &Gs) {
  auto D = std::make_unique<Daemon>(O);
  for (size_t I = 0; I != Gs.size(); ++I) {
    Response R = decodeOrError(
        D->call(encodeRequest(makeRegister(Gs[I].Source, Gs[I].OagK, I + 1))));
    if (!R.ok() || R.GrammarKey != Gs[I].Key)
      die("registration of grammar " + std::to_string(I) +
          " failed: " + R.Error);
  }
  return D;
}

Response decodeOrError(const std::vector<uint8_t> &Frame) {
  Response R;
  std::string Reason;
  if (!decodeResponse(Frame, R, Reason)) {
    R = Response();
    R.St = Status::Error;
    R.Error = Reason;
  }
  return R;
}

void die(const std::string &Why) {
  std::fprintf(stderr, "wirebench: %s\n", Why.c_str());
  std::fflush(stderr);
  std::exit(2);
}

double Samples::quantile(double Q) const {
  if (V.empty())
    return 0;
  std::vector<float> S = V;
  size_t Rank = static_cast<size_t>(std::ceil(Q * double(S.size())));
  size_t I = Rank == 0 ? 0 : Rank - 1;
  std::nth_element(S.begin(), S.begin() + I, S.end());
  return S[I];
}

void PhaseClock::sleepFor(double Seconds) const {
  double Left = Wall0 + Seconds - nowSec();
  if (Left > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(Left));
}

void PhaseClock::stop(Phase &P) const {
  P.WallSec = nowSec() - Wall0;
  P.CpuSec = cpuSec() - Cpu0;
}

Phase runClients(unsigned Clients, double Seconds, uint64_t Limit,
                 const std::function<StepResult(unsigned)> &Step) {
  std::atomic<bool> Stop{false};
  std::vector<Phase> Per(Clients);
  Phase Out;
  PhaseClock Clock;
  {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != Clients; ++C)
      Threads.emplace_back([&, C] {
        Phase &P = Per[C];
        while (!Stop.load(std::memory_order_relaxed) &&
               (Limit == 0 || P.Attempted < Limit)) {
          StepResult S = Step(C);
          ++P.Attempted;
          if (!S.Ok)
            ++P.Failed;
          P.LatMs.add(S.LatMs);
        }
      });
    if (Limit == 0) {
      Clock.sleepFor(Seconds);
      Stop.store(true);
    }
    for (std::thread &T : Threads)
      T.join();
  }
  Clock.stop(Out);
  for (Phase &P : Per) {
    Out.Attempted += P.Attempted;
    Out.Failed += P.Failed;
    Out.LatMs.append(P.LatMs);
  }
  return Out;
}

void TraceWindow::start() {
  C.install();
  Sec0 = nowSec();
  Tick0 = trace::detail::nowTicks();
}

void TraceWindow::stop() {
  C.uninstall();
  double Sec1 = nowSec();
  uint64_t Tick1 = trace::detail::nowTicks();
  UsPerTick = Tick1 > Tick0 ? (Sec1 - Sec0) * 1e6 / double(Tick1 - Tick0) : 0;
}

std::vector<SpanInstance> TraceWindow::spans() const {
  using trace::TraceEvent;
  std::vector<SpanInstance> Out;
  // Events come grouped by thread and time-ordered within each thread, so
  // one stack of open spans (reset at each thread change) pairs them.
  struct Open {
    size_t Begin;
    uint64_t ChildTicks;
  };
  std::vector<TraceEvent> Events = C.events();
  std::vector<Open> Stack;
  uint32_t Tid = ~0u;
  for (size_t I = 0; I != Events.size(); ++I) {
    const TraceEvent &E = Events[I];
    if (E.Tid != Tid) {
      Stack.clear();
      Tid = E.Tid;
    }
    if (E.Ph == TraceEvent::Phase::Begin) {
      Stack.push_back({I, 0});
    } else if (E.Ph == TraceEvent::Phase::End && !Stack.empty()) {
      Open O = Stack.back();
      Stack.pop_back();
      uint64_t B = Events[O.Begin].Ticks, Dur = E.Ticks - B;
      Out.push_back({E.Name, E.Tid, B, E.Ticks,
                     Dur > O.ChildTicks ? Dur - O.ChildTicks : 0});
      if (!Stack.empty())
        Stack.back().ChildTicks += Dur;
    }
  }
  return Out;
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  if (!has(Name))
    Rows.push_back({Name, {Value, Unit}});
}

bool Report::has(const std::string &Name) const {
  for (const auto &R : Rows)
    if (R.first == Name)
      return true;
  return false;
}

double Report::value(const std::string &Name) const {
  for (const auto &R : Rows)
    if (R.first == Name)
      return R.second.first;
  return 0;
}

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "evaluate-small", "batch-merged", "edit-session", "register-cold"};
  return Names;
}

} // namespace wirebench
