//===- wirebench/BatchMerged.cpp - Shape-merged one-shot batches ----------===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// batch-merged: two closed-loop clients send EvaluateBatch requests of 512
/// desk trees of 3-7 nodes, drawn from a pool of 32 generated trees of
/// distinct shapes, with fresh lexemes per tree and the root-inherited
/// bindings set. The daemon runs such batches through MergedBatchEvaluator
/// on its shared pool.
///
/// The shape pool is part of the workload's definition, not of its seed:
/// which shapes a batch mixes sets its cost (shapes rich in Let nodes carry
/// environments), so a seeded pool made the figures depend on the seed
/// more than on the code. The seed draws each batch's trees from the pool
/// and gives them fresh lexemes.
///
/// Traced phase: the program's own merged.* spans are collected, and each
/// span is charged to the merged.evaluate call whose interval contains it
/// (batches are serialized on the daemon's pool, so those intervals never
/// overlap). Every second response per client is replayed through
/// decodeRequest, readTerm and the root digest fold from here. After the
/// phase, a few batches go through a private MergedBatchEvaluator for its
/// cohort statistics.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "eval/Evaluator.h"
#include "eval/MergedBatchEvaluator.h"
#include "support/ThreadPool.h"
#include "tree/TreeGen.h"

#include <algorithm>
#include <set>

namespace wirebench {
namespace {

constexpr unsigned Clients = 2;
constexpr unsigned BatchTrees = 512;
constexpr unsigned ShapePool = 32;
constexpr unsigned FramesPerClient = 16;
constexpr unsigned MirrorEvery = 2;
constexpr unsigned StatsBatches = 4;
constexpr uint64_t ShapePoolSeed = 2;

/// Gives every lexeme of \p N's subtree a fresh value from \p R.
void relex(const AttributeGrammar &AG, TreeNode *N, Rng &R) {
  static const char *const Names[] = {"a", "b", "c", "d", "e",
                                      "f", "g", "h", "i", "j"};
  std::vector<TreeNode *> Work = {N};
  while (!Work.empty()) {
    TreeNode *X = Work.back();
    Work.pop_back();
    const Production &P = AG.prod(X->Prod);
    if (P.HasLexeme)
      X->Lexeme = P.StringLexeme ? Value::ofString(Names[R.below(10)])
                                 : Value::ofInt(int64_t(R.below(1000)));
    for (unsigned I = 0; I != X->arity(); ++I)
      Work.push_back(X->child(I));
  }
}

/// The productions of \p N's subtree in preorder: equal exactly when two
/// trees have the same shape.
std::vector<ProdId> shapeOf(const TreeNode *N) {
  std::vector<ProdId> Shape;
  std::vector<const TreeNode *> Work = {N};
  while (!Work.empty()) {
    const TreeNode *X = Work.back();
    Work.pop_back();
    Shape.push_back(X->Prod);
    for (unsigned I = X->arity(); I-- != 0;)
      Work.push_back(X->child(I));
  }
  return Shape;
}

class BatchMerged final : public Workload {
public:
  const char *name() const override { return "batch-merged"; }

  DaemonOptions daemonOptions() const override { return {}; }
  uint64_t warmupRequests() const override { return 64; }

  void generate(uint64_t Seed) override {
    const WireGrammar &G = desk();
    const AttributeGrammar &AG = *G.AG;
    TreeGenerator Gen(AG, ShapePoolSeed);
    std::vector<Tree> Pool;
    std::set<std::vector<ProdId>> Shapes;
    for (unsigned K = 0; Pool.size() != ShapePool; ++K) {
      if (K == 100 * ShapePool)
        die("batch-merged: too few distinct small desk shapes");
      Tree T = Gen.generate(3 + (K % 5));
      if (Shapes.insert(shapeOf(T.root())).second)
        Pool.push_back(std::move(T));
    }

    Frames.assign(Clients, {});
    Expect.assign(Clients, {});
    Rng R(mixSeed(Seed, 3));
    for (unsigned C = 0; C != Clients; ++C)
      for (unsigned F = 0; F != FramesPerClient; ++F) {
        Request Req;
        Req.Kind = RequestKind::EvaluateBatch;
        Req.Id = (uint64_t(C + 1) << 32) | (F + 1);
        Req.GrammarKey = G.Key;
        Req.RootInherited = rootInheritedBindings(AG);
        std::vector<uint64_t> Digests;
        for (unsigned I = 0; I != BatchTrees; ++I) {
          const Tree &S = Pool[R.below(ShapePool)];
          Tree T(AG);
          T.setRoot(S.clone(S.root()));
          relex(AG, T.root(), R);
          Req.Terms.push_back(writeTerm(AG, T.root()));
          Digests.push_back(
              demandDigest(AG, Req.Terms.back(), Req.RootInherited));
        }
        Frames[C].push_back(encodeRequest(Req));
        Expect[C].push_back(std::move(Digests));
      }
    Cursor.assign(Clients, 0);
  }

  RequestLog requestLog() const override {
    RequestLog L;
    for (const auto &Client : Frames)
      for (const std::vector<uint8_t> &F : Client)
        L.appendFrame(F);
    return L;
  }

  double setup() override {
    D.reset();
    double T0 = nowSec();
    D = startDaemon(daemonOptions(), {desk()});
    return nowSec() - T0;
  }

  Phase run(double Seconds, Mode M, uint64_t Limit) override {
    bool Traced = M == Mode::Traced;
    std::vector<MirrorSamples> Per(Clients);
    TraceWindow W;
    if (Traced)
      W.start();
    Phase P = runClients(Clients, Seconds, Limit, [&](unsigned C) {
      size_t F = Cursor[C]++ % FramesPerClient;
      double T0 = nowSec();
      Response R = decodeOrError(D->call(Frames[C][F]));
      StepResult S;
      S.LatMs = (nowSec() - T0) * 1e3;
      S.Ok = R.ok() && R.Failed == 0 && R.Digests == Expect[C][F];
      if (Traced && Cursor[C] % MirrorEvery == 0)
        S.Ok &= mirror(Frames[C][F], Expect[C][F], Per[C]);
      return S;
    });
    if (Traced) {
      W.stop();
      for (const MirrorSamples &S : Per)
        Mirror.merge(S);
      foldSpans(W);
      cohortStats();
    }
    return P;
  }

  uint64_t verify() override { return 0; } // Checked per response.

  void plantMismatch() override {
    Expect[0][Cursor[0] % FramesPerClient][0] ^= 1;
  }

  void layers(Report &R) override {
    R.metric("tree.read_term_us", Mirror.ReadTerm.median(), "us");
    R.metric("tree.nodes_per_req", Mirror.Nodes.median(), "count");
    R.metric("service.digest_us", Mirror.Digest.median(), "us");
    R.metric("eval.merged_evaluate_us", MergedEvaluate.median(), "us");
    R.metric("eval.trees_merged_ratio",
             TreesTotal ? double(TreesMerged) / double(TreesTotal) : 0,
             "ratio");
    R.metric("eval.cohorts_per_batch",
             StatsRuns ? double(Cohorts) / double(StatsRuns) : 0, "count");
    R.metric("eval.merged.form_us", Form.median(), "us");
    R.metric("eval.merged.layout_us", Layout.median(), "us");
    R.metric("eval.merged.visits_us", Visits.median(), "us");
    R.metric("eval.merged.scatter_us", Scatter.median(), "us");
  }

private:
  struct MirrorSamples {
    Samples ReadTerm, Nodes, Digest;
    void merge(const MirrorSamples &O) {
      ReadTerm.append(O.ReadTerm);
      Nodes.append(O.Nodes);
      Digest.append(O.Digest);
    }
  };

  const WireGrammar &desk() const { return Grammars.grammars().front(); }

  /// Parses and digests every term of \p Frame as the daemon does, timing
  /// readTerm and the digest fold summed over the batch; false when a digest
  /// differs from \p Want.
  bool mirror(const std::vector<uint8_t> &Frame,
              const std::vector<uint64_t> &Want, MirrorSamples &S) {
    Request Req;
    std::string Reason;
    if (!decodeRequest(Frame, Req, Reason))
      die("mirror: " + Reason);
    std::shared_ptr<GrammarEntry> E = D->registry().lookup(Req.GrammarKey);
    if (!E)
      die("mirror: grammar not resident");
    const AttributeGrammar &AG = *E->AG;
    std::vector<Tree> Trees;
    Trees.reserve(Req.Terms.size());
    double T0 = nowSec();
    for (const std::string &Term : Req.Terms) {
      DiagnosticEngine Diags;
      Trees.push_back(readTerm(AG, Term, Diags));
    }
    double T1 = nowSec();
    double Nodes = 0;
    for (const Tree &T : Trees)
      Nodes += T.size();
    // The digest fold reads evaluated roots: evaluate untimed first.
    Evaluator Ev(E->Artifact->Plan, E->Artifact->CP);
    for (auto &[A, V] : resolveBindings(AG, Req.RootInherited))
      Ev.setRootInherited(A, V);
    for (Tree &T : Trees) {
      DiagnosticEngine Diags;
      if (!T.root() || !Ev.evaluate(T, Diags))
        die("mirror: evaluation failed: " + Diags.dump());
    }
    std::vector<uint64_t> Digests(Trees.size());
    double T2 = nowSec();
    for (size_t I = 0; I != Trees.size(); ++I)
      Digests[I] = rootDigest(AG, Trees[I].root());
    double T3 = nowSec();
    S.ReadTerm.add((T1 - T0) * 1e6);
    S.Nodes.add(Nodes);
    S.Digest.add((T3 - T2) * 1e6);
    return Digests == Want;
  }

  /// Charges the daemon's merged.* spans to the merged.evaluate call that
  /// contains them and records per-request sums.
  void foldSpans(const TraceWindow &W) {
    std::vector<SpanInstance> Spans = W.spans();
    std::vector<const SpanInstance *> Calls;
    for (const SpanInstance &S : Spans)
      if (S.Name == "merged.evaluate")
        Calls.push_back(&S);
    std::sort(Calls.begin(), Calls.end(),
              [](auto *A, auto *B) { return A->Begin < B->Begin; });
    struct Sums {
      double Form = 0, Layout = 0, Visits = 0, Scatter = 0;
    };
    std::vector<Sums> Per(Calls.size());
    double Us = W.usPerTick();
    for (const SpanInstance &S : Spans) {
      auto It = std::upper_bound(
          Calls.begin(), Calls.end(), S.Begin,
          [](uint64_t B, const SpanInstance *C) { return B < C->Begin; });
      if (It == Calls.begin())
        continue;
      --It;
      if (S.Begin > (*It)->End)
        continue;
      Sums &Sm = Per[It - Calls.begin()];
      double Self = double(S.SelfTicks) * Us;
      if (S.Name == "merged.form_cohorts")
        Sm.Form += Self;
      else if (S.Name == "merged.layout")
        Sm.Layout += Self;
      else if (S.Name == "merged.visits")
        Sm.Visits += Self;
      else if (S.Name == "merged.scatter")
        Sm.Scatter += Self;
    }
    for (size_t I = 0; I != Calls.size(); ++I) {
      MergedEvaluate.add(double(Calls[I]->End - Calls[I]->Begin) * Us);
      Form.add(Per[I].Form);
      Layout.add(Per[I].Layout);
      Visits.add(Per[I].Visits);
      Scatter.add(Per[I].Scatter);
    }
  }

  /// Cohort formation statistics of a private MergedBatchEvaluator over a
  /// few of the workload's batches.
  void cohortStats() {
    std::shared_ptr<GrammarEntry> E = D->registry().lookup(desk().Key);
    const AttributeGrammar &AG = *E->AG;
    ThreadPool Pool(1);
    for (unsigned F = 0; F != StatsBatches; ++F) {
      Request Req;
      std::string Reason;
      if (!decodeRequest(Frames[F % Clients][F / Clients], Req, Reason))
        die("cohort stats: " + Reason);
      std::vector<Tree> Trees;
      for (const std::string &Term : Req.Terms) {
        DiagnosticEngine Diags;
        Trees.push_back(readTerm(AG, Term, Diags));
      }
      MergedBatchEvaluator ME(E->Artifact->Plan, E->Artifact->CP, Pool);
      for (auto &[A, V] : resolveBindings(AG, Req.RootInherited))
        ME.setRootInherited(A, V);
      if (!ME.evaluate(Trees).allSucceeded())
        die("cohort stats: merged evaluation failed");
      const MergedStats &MS = ME.mergedStats();
      TreesMerged += MS.TreesMerged;
      TreesTotal += MS.TreesMerged + MS.TreesFallback;
      Cohorts += MS.CohortsFormed;
      ++StatsRuns;
    }
  }

  Roster Grammars;
  std::vector<std::vector<std::vector<uint8_t>>> Frames;
  std::vector<std::vector<std::vector<uint64_t>>> Expect;
  std::vector<uint64_t> Cursor;
  std::unique_ptr<Daemon> D;

  MirrorSamples Mirror;
  Samples MergedEvaluate, Form, Layout, Visits, Scatter;
  uint64_t TreesMerged = 0, TreesTotal = 0, Cohorts = 0, StatsRuns = 0;
};

} // namespace

std::unique_ptr<Workload> makeBatchMerged() {
  return std::make_unique<BatchMerged>();
}

} // namespace wirebench
