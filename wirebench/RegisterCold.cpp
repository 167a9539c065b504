//===- wirebench/RegisterCold.cpp - Cold grammar registrations ------------===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// register-cold: four closed-loop clients each register distinct seeded
/// SpecGen grammars — S1/S2/S3 sizes plus the Dnc and Oag1 class shapes —
/// against a daemon with no artifact cache directory and a bounded
/// registry, so every request runs the molga front end and the whole
/// generator cascade and resident memory reaches a plateau. Each client
/// cycles through its own pool of 256 sources; with at most 16 grammars
/// resident, a source has long been evicted when it comes round again, so
/// no registration is a registry, memo or disk-cache hit (checked).
///
/// Oracle: verify() compiles every pool source again and checks each
/// reported class against classifyGrammar with the naive reference fixpoint
/// (GfaOptions::NaiveFixpoint) and each reported key against artifactKey.
///
/// Traced phase: the program's gfa.* counters are collected, and every
/// fourth registration per client is repeated from here through
/// olga::compileMolga, generateEvaluator (whose GeneratorPhaseTimes split
/// the cascade) and compileArtifact. After the phase one S1 grammar is
/// compiled to native code cold, then bound again from its container.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "codegen/NativeBackend.h"
#include "workloads/SpecGen.h"

#include <filesystem>
#include <thread>

namespace wirebench {
namespace {

using Shape = workloads::SpecGenOptions::Shape;

constexpr unsigned Clients = 4;
/// Distinct sources per client, sent round-robin.
constexpr unsigned PoolPerClient = 256;
/// Ready entries per registry shard (eight shards).
constexpr size_t RegistryCapacity = 2;
constexpr unsigned MirrorEvery = 4;

struct SpecKind {
  const char *Name;
  unsigned Phyla, Ops, AttrPairs;
  Shape ClassShape;
  unsigned OagK;
};

/// The mix, cycled per client: the generator_scaling sizes S1-S3 plus the
/// two non-OAG(0) class shapes at S2 size.
constexpr SpecKind Kinds[] = {
    {"S1", 8, 3, 2, Shape::Oag0, 0},   {"S2", 16, 4, 3, Shape::Oag0, 0},
    {"S3", 28, 6, 4, Shape::Oag0, 0},  {"S2-dnc", 16, 4, 3, Shape::Dnc, 0},
    {"S2-oag1", 16, 4, 3, Shape::Oag1, 1},
};
constexpr unsigned NumKinds = sizeof(Kinds) / sizeof(Kinds[0]);
constexpr unsigned S3Kind = 2;

class RegisterCold final : public Workload {
public:
  explicit RegisterCold(std::string ScratchDir)
      : ScratchDir(std::move(ScratchDir)) {}

  const char *name() const override { return "register-cold"; }

  DaemonOptions daemonOptions() const override {
    DaemonOptions O;
    O.RegistryCapacity = RegistryCapacity;
    return O;
  }
  uint64_t warmupRequests() const override { return 64; }

  void generate(uint64_t Seed) override {
    Plans.assign(Clients, {});
    for (unsigned C = 0; C != Clients; ++C)
      for (unsigned I = 0; I != PoolPerClient; ++I) {
        unsigned K = (C + I) % NumKinds;
        workloads::SpecGenOptions O;
        O.Name = "Cold" + std::to_string(C) + "x" + std::to_string(I);
        O.Phyla = Kinds[K].Phyla;
        O.OperatorsPerPhylum = Kinds[K].Ops;
        O.AttrPairs = Kinds[K].AttrPairs;
        O.ClassShape = Kinds[K].ClassShape;
        O.Seed = mixSeed(Seed, 7, uint64_t(C) << 32 | I);
        Plans[C].Kind.push_back(K);
        Plans[C].Frames.push_back(encodeRequest(makeRegister(
            workloads::generateMolgaSpec(O), Kinds[K].OagK,
            (uint64_t(C + 1) << 32) | (I + 1))));
      }
  }

  RequestLog requestLog() const override {
    RequestLog L;
    for (const ClientPlan &P : Plans)
      for (const std::vector<uint8_t> &F : P.Frames)
        L.appendFrame(F);
    return L;
  }

  double setup() override {
    D.reset();
    double T0 = nowSec();
    D = std::make_unique<Daemon>(daemonOptions());
    double Sec = nowSec() - T0;
    for (ClientPlan &P : Plans)
      P.Answers.clear();
    return Sec;
  }

  Phase run(double Seconds, Mode M, uint64_t Limit) override {
    bool Traced = M == Mode::Traced;
    std::vector<MirrorSamples> Per(Clients);
    TraceWindow W;
    if (Traced)
      W.start();
    uint64_t Generations = 0;
    Phase P = runClients(Clients, Seconds, Limit, [&](unsigned C) {
      ClientPlan &Pl = Plans[C];
      size_t F = Pl.Answers.size() % PoolPerClient;
      StepResult S;
      double T0 = nowSec();
      Response R = decodeOrError(D->call(Pl.Frames[F]));
      S.LatMs = (nowSec() - T0) * 1e3;
      S.Ok = R.ok();
      Pl.Answers.push_back({R.ok(), R.GrammarKey, R.ClassName});
      if (Traced && Pl.Answers.size() % MirrorEvery == 0)
        mirror(Pl.Frames[F], Pl.Kind[F], Per[C]);
      return S;
    });
    if (Traced) {
      W.stop();
      for (MirrorSamples &S : Per) {
        Mirror.merge(S);
        Generations += S.Compile.size();
      }
      MetricsRegistry Counters;
      W.collector().countersTo(Counters);
      GfaRounds += Counters.value("gfa.rounds");
      GfaHits += Counters.value("gfa.worklist_hits");
      GfaSkips += Counters.value("gfa.worklist_skips");
      Generations += P.okRequests();
      TracedGenerations += Generations;
      nativeBuild();
    }
    return P;
  }

  uint64_t verify() override {
    RegistryStats RS = D->registry().stats();
    if (RS.Hits != 0 || RS.CacheHits != 0)
      die("register-cold: a registration hit the registry or the cache");
    std::vector<uint64_t> Bad(Clients, 0);
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != Clients; ++C)
      Threads.emplace_back([&, C] { Bad[C] = verifyClient(C); });
    for (std::thread &T : Threads)
      T.join();
    uint64_t Sum = 0;
    for (uint64_t B : Bad)
      Sum += B;
    return Sum;
  }

  void plantMismatch() override { Planted = true; }

  void layers(Report &R) override {
    R.metric("olga.compile_ms", Mirror.Compile.median(), "ms");
    R.metric("analysis.snc_ms", Mirror.Snc.median(), "ms");
    R.metric("analysis.dnc_ms", Mirror.Dnc.median(), "ms");
    R.metric("analysis.oag_ms", Mirror.Oag.median(), "ms");
    R.metric("ordered.transform_ms", Mirror.Transform.median(), "ms");
    R.metric("visitseq.build_ms", Mirror.VisitSeq.median(), "ms");
    R.metric("storage.analyze_ms", Mirror.Storage.median(), "ms");
    R.metric("eval.compile_artifact_ms", Mirror.Artifact.median(), "ms");
    R.metric("gfa.rounds",
             TracedGenerations ? double(GfaRounds) / double(TracedGenerations)
                               : 0,
             "count");
    R.metric("gfa.worklist_hit_ratio",
             GfaHits + GfaSkips ? double(GfaHits) / double(GfaHits + GfaSkips)
                                : 0,
             "ratio");
    R.metric("codegen.native_compile_ms", NativeCompile.median(), "ms");
    R.metric("codegen.native_bind_ms", NativeBind.median(), "ms");
    // Probe split: space optimization's share of the S3 cascade.
    R.metric("probe.storage_share_s3_pct", Mirror.StorageShareS3.median(),
             "%");
  }

private:
  struct Answer {
    bool Ok = false;
    uint64_t Key = 0;
    std::string ClassName;
  };

  struct ClientPlan {
    std::vector<std::vector<uint8_t>> Frames;
    std::vector<unsigned> Kind;
    /// One entry per request sent since set-up, in order.
    std::vector<Answer> Answers;
  };

  struct MirrorSamples {
    Samples Compile, Snc, Dnc, Oag, Transform, VisitSeq, Storage, Artifact,
        StorageShareS3;
    void merge(const MirrorSamples &O) {
      Compile.append(O.Compile);
      Snc.append(O.Snc);
      Dnc.append(O.Dnc);
      Oag.append(O.Oag);
      Transform.append(O.Transform);
      VisitSeq.append(O.VisitSeq);
      Storage.append(O.Storage);
      Artifact.append(O.Artifact);
      StorageShareS3.append(O.StorageShareS3);
    }
  };

  static Request decodeOrDie(const std::vector<uint8_t> &Frame) {
    Request Req;
    std::string Reason;
    if (!decodeRequest(Frame, Req, Reason))
      die("register-cold: " + Reason);
    return Req;
  }

  /// Repeats one registration's generator layers from here.
  void mirror(const std::vector<uint8_t> &Frame, unsigned Kind,
              MirrorSamples &S) {
    Request Req = decodeOrDie(Frame);
    DiagnosticEngine Diags;
    double T0 = nowSec();
    olga::CompileResult CR = olga::compileMolga(Req.Source, Diags);
    double T1 = nowSec();
    if (!CR.Success || CR.Grammars.empty())
      die("mirror: molga compile failed: " + Diags.dump());
    GeneratorOptions GO;
    GO.OagK = Req.OagK;
    GeneratedEvaluator G =
        generateEvaluator(CR.Grammars.front().AG, Diags, GO);
    if (!G.Success)
      die("mirror: generation failed: " + Diags.dump());
    double T2 = nowSec();
    std::shared_ptr<const CompiledArtifact> A = compileArtifact(G);
    double T3 = nowSec();
    S.Compile.add((T1 - T0) * 1e3);
    S.Snc.add(G.Times.Snc * 1e3);
    S.Dnc.add(G.Times.Dnc * 1e3);
    S.Oag.add(G.Times.Oag * 1e3);
    S.Transform.add(G.Times.Transform * 1e3);
    S.VisitSeq.add(G.Times.VisitSeq * 1e3);
    S.Storage.add(G.Times.Storage * 1e3);
    S.Artifact.add((T3 - T2) * 1e3);
    if (Kind == S3Kind && G.Times.total() > 0)
      S.StorageShareS3.add(100.0 * G.Times.Storage / G.Times.total());
  }

  /// Cold native compile, then a warm bind from the container it stored.
  void nativeBuild() {
    if (!NativeBackend::available()) {
      std::fprintf(stderr, "wirebench: no host compiler; native layer "
                           "metrics read 0\n");
      return;
    }
    const ClientPlan &P = Plans.front();
    size_t F = 0;
    while (F != P.Frames.size() && P.Kind[F] != 0)
      ++F;
    Request Req = decodeOrDie(P.Frames[F]);
    DiagnosticEngine Diags;
    olga::CompileResult CR = olga::compileMolga(Req.Source, Diags);
    GeneratedEvaluator G = generateEvaluator(CR.Grammars.front().AG, Diags);
    std::shared_ptr<const CompiledArtifact> A = compileArtifact(G);

    NativeOptions NO;
    NO.CacheDir = ScratchDir + "/native-cache";
    NO.UseMemo = false;
    std::filesystem::remove_all(NO.CacheDir);
    NativeBackend B(NO);
    double T0 = nowSec();
    NativeBuildResult Cold = B.build(CR.Grammars.front().AG, A->CP);
    double T1 = nowSec();
    NativeBuildResult Warm = B.build(CR.Grammars.front().AG, A->CP);
    double T2 = nowSec();
    std::filesystem::remove_all(NO.CacheDir);
    if (!Cold || !Warm || !Cold.CompilerInvoked || Warm.CompilerInvoked)
      die("native build failed: " + Cold.Reason + Warm.Reason);
    NativeCompile.add((T1 - T0) * 1e3);
    NativeBind.add((T2 - T1) * 1e3);
  }

  /// Recompiles every source client \p C registered and checks its Ok
  /// answers against the naive-fixpoint classification. Non-Ok answers
  /// were already counted as failed by the phase.
  uint64_t verifyClient(unsigned C) {
    const ClientPlan &P = Plans[C];
    GfaOptions Naive;
    Naive.NaiveFixpoint = true;
    Naive.Threads = 1;
    std::vector<Answer> Expected(std::min<size_t>(P.Answers.size(),
                                                  PoolPerClient));
    for (size_t F = 0; F != Expected.size(); ++F) {
      Request Req = decodeOrDie(P.Frames[F]);
      DiagnosticEngine Diags;
      olga::CompileResult CR = olga::compileMolga(Req.Source, Diags);
      if (!CR.Success || CR.Grammars.empty())
        die("oracle: molga compile failed: " + Diags.dump());
      const AttributeGrammar &AG = CR.Grammars.front().AG;
      GeneratorOptions GO;
      GO.OagK = Req.OagK;
      Expected[F] = {true, ArtifactCache::artifactKey(AG, GO),
                     classifyGrammar(AG, Req.OagK, Naive).className()};
    }
    if (Planted && C == 0 && !Expected.empty())
      Expected[0].ClassName = "planted mismatch";
    uint64_t Bad = 0;
    for (size_t I = 0; I != P.Answers.size(); ++I) {
      const Answer &A = P.Answers[I], &W = Expected[I % PoolPerClient];
      Bad += A.Ok && (A.ClassName != W.ClassName || A.Key != W.Key);
    }
    return Bad;
  }

  std::string ScratchDir;
  std::vector<ClientPlan> Plans;
  std::unique_ptr<Daemon> D;
  MirrorSamples Mirror;
  Samples NativeCompile, NativeBind;
  uint64_t GfaRounds = 0, GfaHits = 0, GfaSkips = 0, TracedGenerations = 0;
  bool Planted = false;
};

} // namespace

std::unique_ptr<Workload> makeRegisterCold(std::string ScratchDir) {
  return std::make_unique<RegisterCold>(std::move(ScratchDir));
}

} // namespace wirebench
