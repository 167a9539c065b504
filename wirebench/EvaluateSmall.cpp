//===- wirebench/EvaluateSmall.cpp - Many small one-shot evaluations ------===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// evaluate-small: 16 closed-loop virtual clients send one-shot Evaluate
/// requests for ~60-node terms, round-robin over the five resident grammars.
/// The clients are multiplexed through Daemon::submit completion callbacks:
/// each callback checks its response and submits the client's next frame,
/// so the four executors always find work queued.
///
/// Traced phase: every callback splits the request's latency into queue
/// wait and service time from the executor's own timeline (a job starts
/// when its executor finished the previous callback, or when it was
/// submitted, whichever is later). Every fourth response per client is then
/// replayed through each layer's public entry point — decodeRequest,
/// GrammarRegistry::lookup, readTerm, Evaluator::evaluate, the root digest
/// fold, encodeResponse — and the service time left over is the residual.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "eval/Evaluator.h"
#include "tree/TreeGen.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace wirebench {
namespace {

constexpr unsigned Clients = 16;
constexpr unsigned FramesPerGrammar = 256;
constexpr unsigned TreeNodes = 60;
constexpr unsigned MirrorEvery = 4;

/// The executor thread's previous callback end (seconds); the next job the
/// thread runs cannot have started earlier.
thread_local double LastCallbackEnd = 0;

class EvaluateSmall final : public Workload {
public:
  const char *name() const override { return "evaluate-small"; }

  DaemonOptions daemonOptions() const override { return {}; }
  uint64_t warmupRequests() const override { return 2048; }

  void generate(uint64_t Seed) override {
    const std::vector<WireGrammar> &Gs = Grammars.grammars();
    size_t N = Gs.size() * FramesPerGrammar;
    Frames.clear();
    Expect.clear();
    for (size_t F = 0; F != N; ++F) {
      const WireGrammar &G = Gs[F % Gs.size()];
      TreeGenerator TG(*G.AG, mixSeed(Seed, 1, F));
      Tree T = TG.generate(TreeNodes);
      Request R;
      R.Kind = RequestKind::Evaluate;
      R.Id = F + 1;
      R.GrammarKey = G.Key;
      R.Terms.push_back(writeTerm(*G.AG, T.root()));
      R.RootInherited = rootInheritedBindings(*G.AG);
      Expect.push_back(demandDigest(*G.AG, R.Terms.front(), R.RootInherited));
      Frames.push_back(encodeRequest(R));
    }
    Cursor.assign(Clients, 0);
  }

  RequestLog requestLog() const override {
    RequestLog L;
    for (const std::vector<uint8_t> &F : Frames)
      L.appendFrame(F);
    return L;
  }

  double setup() override {
    D.reset();
    double T0 = nowSec();
    D = startDaemon(daemonOptions(), Grammars.grammars());
    return nowSec() - T0;
  }

  Phase run(double Seconds, Mode M, uint64_t Limit) override {
    PhaseState S;
    S.Traced = M == Mode::Traced;
    S.Limit = Limit;
    S.Per.resize(Clients);
    RegistryStats R0 = D->registry().stats();
    PhaseClock Clock;
    S.Active = Clients;
    for (unsigned C = 0; C != Clients; ++C)
      submitNext(S, C);
    if (Limit == 0) {
      Clock.sleepFor(Seconds);
      S.Stop.store(true);
    }
    {
      std::unique_lock<std::mutex> Lock(S.Mu);
      S.Cv.wait(Lock, [&] { return S.Active == 0; });
    }
    Phase Out;
    Clock.stop(Out);
    for (ClientState &C : S.Per) {
      Out.Attempted += C.Attempted;
      Out.Failed += C.Failed;
      Out.LatMs.append(C.LatMs);
      if (S.Traced)
        Layers.merge(C.L);
    }
    if (S.Traced) {
      RegistryStats R1 = D->registry().stats();
      LookupHits += R1.Hits - R0.Hits;
      LookupMisses += R1.Misses - R0.Misses;
    }
    return Out;
  }

  uint64_t verify() override { return 0; } // Checked in the callbacks.

  void plantMismatch() override { Expect[frameOf(0)] ^= 1; }

  void layers(Report &R) override {
    R.metric("service.decode_us", Layers.Decode.median(), "us");
    R.metric("service.queue_wait_us", Layers.QueueWait.median(), "us");
    R.metric("service.lookup_us", Layers.Lookup.median(), "us");
    uint64_t Lookups = LookupHits + LookupMisses;
    R.metric("service.lookup_hit_ratio",
             Lookups ? double(LookupHits) / double(Lookups) : 0, "ratio");
    R.metric("tree.read_term_us", Layers.ReadTerm.median(), "us");
    R.metric("tree.nodes_per_req", Layers.Nodes.median(), "count");
    R.metric("eval.evaluate_us", Layers.Evaluate.median(), "us");
    R.metric("eval.rules_per_req", Layers.Rules.median(), "count");
    R.metric("service.digest_us", Layers.Digest.median(), "us");
    R.metric("service.encode_us", Layers.Encode.median(), "us");
    R.metric("service.service_us", Layers.Service.median(), "us");
    R.metric("service.residual_us", Layers.Residual.median(), "us");
    // Probe split: readTerm against Evaluator::evaluate.
    double Ev = Layers.Evaluate.median();
    R.metric("probe.read_term_over_evaluate",
             Ev > 0 ? Layers.ReadTerm.median() / Ev : 0, "ratio");
  }

private:
  struct LayerSamples {
    Samples Decode, QueueWait, Lookup, ReadTerm, Nodes, Evaluate, Rules,
        Digest, Encode, Service, Residual;
    void merge(const LayerSamples &O) {
      Decode.append(O.Decode);
      QueueWait.append(O.QueueWait);
      Lookup.append(O.Lookup);
      ReadTerm.append(O.ReadTerm);
      Nodes.append(O.Nodes);
      Evaluate.append(O.Evaluate);
      Rules.append(O.Rules);
      Digest.append(O.Digest);
      Encode.append(O.Encode);
      Service.append(O.Service);
      Residual.append(O.Residual);
    }
  };

  /// One virtual client. Only one of its requests is in flight at a time,
  /// so its callbacks never overlap; the admission queue's mutex orders
  /// one callback's writes before the next one's reads.
  struct ClientState {
    uint64_t Attempted = 0, Failed = 0;
    Samples LatMs;
    LayerSamples L;
    size_t Frame = 0;
    double SubmitT = 0;
  };

  struct PhaseState {
    bool Traced = false;
    uint64_t Limit = 0;
    std::atomic<bool> Stop{false};
    std::vector<ClientState> Per;
    std::mutex Mu;
    std::condition_variable Cv;
    unsigned Active = 0; // Guarded by Mu.
  };

  size_t frameOf(unsigned C) const {
    return (C + Clients * Cursor[C]) % Frames.size();
  }

  void submitNext(PhaseState &S, unsigned C) {
    ClientState &Cl = S.Per[C];
    Cl.Frame = frameOf(C);
    ++Cursor[C];
    Cl.SubmitT = nowSec();
    D->submit(Frames[Cl.Frame], [this, &S, C](std::vector<uint8_t> Out) {
      onDone(S, C, Out);
    });
  }

  void onDone(PhaseState &S, unsigned C, const std::vector<uint8_t> &Out) {
    double DoneT = nowSec();
    ClientState &Cl = S.Per[C];
    Response R = decodeOrError(Out);
    bool Ok = R.ok() && R.Id == Cl.Frame + 1 && R.Digest == Expect[Cl.Frame];
    ++Cl.Attempted;
    Cl.Failed += !Ok;
    Cl.LatMs.add((DoneT - Cl.SubmitT) * 1e3);
    if (S.Traced && Cl.Attempted % MirrorEvery == 0) {
      double Start = std::max(Cl.SubmitT, LastCallbackEnd);
      double ServiceUs = (DoneT - Start) * 1e6;
      Cl.L.QueueWait.add((Start - Cl.SubmitT) * 1e6);
      Cl.L.Service.add(ServiceUs);
      Cl.L.Residual.add(ServiceUs - mirror(Cl.Frame, Cl.L));
    }
    bool Finished = S.Stop.load(std::memory_order_relaxed) ||
                    (S.Limit != 0 && Cl.Attempted >= S.Limit);
    if (!Finished)
      submitNext(S, C);
    LastCallbackEnd = nowSec();
    if (Finished) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      if (--S.Active == 0)
        S.Cv.notify_all();
    }
  }

  /// Replays frame \p F through each layer's entry point; returns the sum of
  /// the layer times in microseconds.
  double mirror(size_t F, LayerSamples &L) {
    double T0 = nowSec();
    Request Req;
    std::string Reason;
    if (!decodeRequest(Frames[F], Req, Reason))
      die("mirror: " + Reason);
    double T1 = nowSec();
    std::shared_ptr<GrammarEntry> E = D->registry().lookup(Req.GrammarKey);
    double T2 = nowSec();
    if (!E)
      die("mirror: grammar not resident");
    const AttributeGrammar &AG = *E->AG;
    DiagnosticEngine Diags;
    Tree T = readTerm(AG, Req.Terms.front(), Diags);
    double T3 = nowSec();
    Evaluator Ev(E->Artifact->Plan, E->Artifact->CP);
    for (auto &[A, V] : resolveBindings(AG, Req.RootInherited))
      Ev.setRootInherited(A, V);
    double T4 = nowSec();
    if (!T.root() || !Ev.evaluate(T, Diags))
      die("mirror: evaluation failed: " + Diags.dump());
    double T5 = nowSec();
    Response Resp;
    Resp.Kind = Req.Kind;
    Resp.Id = Req.Id;
    Resp.Digest = rootDigest(AG, T.root(), &Resp.Attrs);
    double T6 = nowSec();
    std::vector<uint8_t> Bytes = encodeResponse(Resp);
    double T7 = nowSec();
    L.Decode.add((T1 - T0) * 1e6);
    L.Lookup.add((T2 - T1) * 1e6);
    L.ReadTerm.add((T3 - T2) * 1e6);
    L.Nodes.add(T.size());
    L.Evaluate.add((T5 - T4) * 1e6);
    L.Rules.add(double(Ev.stats().RulesEvaluated));
    L.Digest.add((T6 - T5) * 1e6);
    L.Encode.add((T7 - T6) * 1e6);
    return ((T3 - T0) + (T7 - T4)) * 1e6;
  }

  Roster Grammars;
  std::vector<std::vector<uint8_t>> Frames;
  std::vector<uint64_t> Expect;
  /// Requests each client has sent so far, across phases.
  std::vector<uint64_t> Cursor;
  std::unique_ptr<Daemon> D;
  LayerSamples Layers;
  uint64_t LookupHits = 0, LookupMisses = 0;
};

} // namespace

std::unique_ptr<Workload> makeEvaluateSmall() {
  return std::make_unique<EvaluateSmall>();
}

} // namespace wirebench
