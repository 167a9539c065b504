//===- wirebench/EditSession.cpp - Resident incremental sessions ----------===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// edit-session: four closed-loop clients each own one resident session
/// over a ~10k-node tree — two on desk, two on a molga system AG — and send
/// single-op Edit requests, with a QueryAttribute after every third edit.
///
/// Each client's script is one period, sent over and over: 12 segments of
/// 100 EditScriptGen ops, each followed by the ops' inverses in reverse
/// order, which bring the tree back to its initial state. The tree size
/// therefore stays near 10k nodes however long the run is, while 1,200
/// distinct ops per client make up the latency tail. The generator applies
/// every op to its own copy of the tree, so each frame is built against the
/// state the daemon will hold.
///
/// Oracle: at every query position of the script, the generator evaluates
/// its tree from scratch with the exhaustive Evaluator and records the
/// expected value; each QueryAttribute response is checked against it as it
/// arrives. verify() replays what each client sent on a fresh parse of its
/// initial term, queries every root attribute over the wire and compares
/// them with a from-scratch evaluation. It also reports (without counting
/// it as a failure) whether the last Edit digest equals that of a session
/// evaluated from scratch on the same tree: the digest encodes map values
/// in the order their bindings were made, so equal attributions reached by
/// different edit histories may digest differently.
///
/// Traced phase: each client keeps a mirror IncrementalSession over the same
/// CompiledArtifact and applies every op the daemon applies, timing
/// EditLog::decode, IncrementalSession::apply, attributionDigest and the
/// query path on the mirror (whose digests must match the daemon's).
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "eval/Evaluator.h"
#include "incremental/Session.h"
#include "tree/TreeGen.h"
#include "workloads/EditScriptGen.h"

#include <atomic>
#include <optional>
#include <thread>

namespace wirebench {
namespace {

constexpr unsigned Clients = 4;
constexpr unsigned TreeNodes = 10000;
constexpr unsigned QueryEvery = 3;
/// The edited trees are part of the workload's definition, not of its seed:
/// their shape sets the cost of an edit's O(tree) digest and of its worst
/// cascades, so seeded trees made p99 depend on the seed more than on the
/// code. The seed drives the edit scripts and the queries.
constexpr uint64_t TreeSeed = 4;
/// A client's script: Segments runs of SegmentEdits generated ops, each
/// followed by the inverses that restore the initial tree.
constexpr unsigned Segments = 12;
constexpr unsigned SegmentEdits = 100;

/// A QueryAttribute target: a short random walk down \p T, stopping at a
/// node whose phylum has synthesized attributes (the root as fallback).
void pickQuery(const AttributeGrammar &AG, const Tree &T, Rng &R,
               std::vector<uint32_t> &Path, std::string &Attr) {
  const TreeNode *N = T.root();
  Path.clear();
  for (unsigned Depth = 0; Depth != 6; ++Depth) {
    std::vector<const std::string *> Synth;
    for (AttrId A : AG.phylum(AG.prod(N->Prod).Lhs).Attrs)
      if (AG.attr(A).isSynthesized())
        Synth.push_back(&AG.attr(A).Name);
    if (!Synth.empty() && (N->arity() == 0 || R.below(3) == 0)) {
      Attr = *Synth[R.below(Synth.size())];
      return;
    }
    if (N->arity() == 0)
      break;
    uint32_t C = uint32_t(R.below(N->arity()));
    Path.push_back(C);
    N = N->child(C);
  }
  Path.clear();
  for (AttrId A : AG.phylum(AG.Start).Attrs)
    if (AG.attr(A).isSynthesized()) {
      Attr = AG.attr(A).Name;
      return;
    }
  die("edit-session: start phylum has no synthesized attribute");
}

/// Reads attribute \p Attr at \p Path; false when it does not resolve.
bool readAttr(const Tree &T, std::span<const uint32_t> Path,
              const std::string &Attr, Value &Out) {
  const AttributeGrammar &AG = T.grammar();
  const TreeNode *N = resolvePath(T, Path);
  if (!N)
    return false;
  AttrId A = AG.findAttr(AG.prod(N->Prod).Lhs, Attr);
  if (A == InvalidId || !N->attrComputed(AG.attr(A).IndexInOwner))
    return false;
  Out = N->attrVal(AG.attr(A).IndexInOwner);
  return true;
}

/// The op undoing \p Op, captured before \p Op is applied to \p T.
class Inverse {
public:
  Inverse(const Tree &T, const EditOp &Op) : Op(Op) {
    const TreeNode *Victim = resolvePath(T, Op.Path);
    if (!Victim)
      die("edit-session: generated op does not resolve");
    if (Op.K == EditOp::Kind::SubtreeReplace)
      Old = T.clone(Victim);
    OldLexeme = Victim->Lexeme;
    OldProd = Victim->Prod;
  }

  /// The inverse op, against \p T after the op was applied.
  EditOp after(const AttributeGrammar &AG, const Tree &T) const {
    const TreeNode *Now = resolvePath(T, Op.Path);
    switch (Op.K) {
    case EditOp::Kind::SubtreeReplace:
      return EditLog::makeReplace(AG, Now, Old.get());
    case EditOp::Kind::LeafValueChange:
      return EditLog::makeLeafChange(Now, OldLexeme);
    case EditOp::Kind::ProductionSwap:
      break;
    }
    return EditLog::makeSwap(Now, OldProd);
  }

private:
  const EditOp &Op;
  std::unique_ptr<TreeNode> Old;
  Value OldLexeme;
  ProdId OldProd = InvalidId;
};

class EditSession final : public Workload {
public:
  const char *name() const override { return "edit-session"; }

  DaemonOptions daemonOptions() const override { return {}; }
  uint64_t warmupRequests() const override { return 192; }

  void generate(uint64_t Seed) override {
    Plans.assign(Clients, {});
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != Clients; ++C)
      Threads.emplace_back([=, this] { generateClient(Seed, C); });
    for (std::thread &T : Threads)
      T.join();
  }

  RequestLog requestLog() const override {
    RequestLog L;
    for (const ClientPlan &P : Plans) {
      L.appendFrame(P.Open);
      for (const std::vector<uint8_t> &F : P.Frames)
        L.appendFrame(F);
    }
    return L;
  }

  double setup() override {
    D.reset();
    Mirrors.clear();
    double T0 = nowSec();
    D = startDaemon(daemonOptions(), {desk(), molga()});
    for (ClientPlan &P : Plans) {
      Response R = decodeOrError(D->call(P.Open));
      if (!R.ok())
        die("edit-session: session open failed: " + R.Error);
    }
    double Sec = nowSec() - T0;
    for (ClientPlan &P : Plans)
      P.Sent = 0;
    return Sec;
  }

  Phase run(double Seconds, Mode M, uint64_t Limit) override {
    bool Traced = M == Mode::Traced;
    if (Traced)
      startMirrors();
    std::vector<MirrorSamples> Per(Clients);
    Phase P = runClients(Clients, Seconds, Limit, [&](unsigned C) {
      ClientPlan &Pl = Plans[C];
      size_t F = Pl.Sent++ % Pl.Frames.size();
      StepResult S;
      double T0 = nowSec();
      Response R = decodeOrError(D->call(Pl.Frames[F]));
      S.LatMs = (nowSec() - T0) * 1e3;
      S.Ok = R.ok();
      if (Pl.Kinds[F] == RequestKind::QueryAttribute)
        S.Ok &= R.Attrs.size() == 1 && R.Attrs[0].second == *Pl.Expected[F];
      else
        Pl.LastDigest = R.Digest;
      if (Traced)
        S.Ok &= mirrorStep(C, F, R, Per[C]);
      return S;
    });
    if (Traced)
      for (MirrorSamples &S : Per)
        Mirror.merge(S);
    return P;
  }

  uint64_t verify() override {
    std::vector<uint64_t> Bad(Clients, 0);
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != Clients; ++C)
      Threads.emplace_back([&, C] { Bad[C] = verifyClient(C); });
    for (std::thread &T : Threads)
      T.join();
    uint64_t Sum = 0;
    for (uint64_t B : Bad)
      Sum += B;
    if (DigestDrift != 0)
      std::fprintf(stderr,
                   "wirebench: edit-session: finding: on %u of %u sessions "
                   "the last Edit digest differs from a from-scratch "
                   "session's digest over the same tree and attribute "
                   "values (map values encode in binding order)\n",
                   DigestDrift.load(), Clients);
    return Sum;
  }

  void plantMismatch() override {
    ClientPlan &P = Plans.front();
    size_t F = P.Sent % P.Frames.size();
    while (P.Kinds[F] != RequestKind::QueryAttribute)
      F = (F + 1) % P.Frames.size();
    P.Expected[F] = Value::ofString("planted mismatch");
  }

  void layers(Report &R) override {
    R.metric("incremental.edit_decode_us", Mirror.Decode.median(), "us");
    R.metric("incremental.apply_us", Mirror.Apply.median(), "us");
    R.metric("incremental.rules_per_edit", Mirror.Rules.median(), "count");
    R.metric("incremental.digest_us", Mirror.Digest.median(), "us");
    R.metric("incremental.query_us", Mirror.Query.median(), "us");
    R.metric("incremental.open_ms", OpenMs.median(), "ms");
    // Probe split: the O(tree) digest's share of an Edit's layer time.
    double Edit = Mirror.Decode.median() + Mirror.Apply.median() +
                  Mirror.Digest.median();
    R.metric("probe.digest_share_of_edit_pct",
             Edit > 0 ? 100.0 * Mirror.Digest.median() / Edit : 0, "%");
  }

private:
  /// One client: its opening frame and its script period.
  struct ClientPlan {
    const WireGrammar *G = nullptr;
    std::string InitialTerm;
    std::vector<uint8_t> Open;
    std::vector<std::vector<uint8_t>> Frames;
    std::vector<RequestKind> Kinds;
    /// Frame index -> index into Ops (edits only).
    std::vector<size_t> OpIndex;
    /// Frame index -> the oracle's value (queries only).
    std::vector<std::optional<Value>> Expected;
    EditLog Ops;
    /// Requests sent since set-up, and the digest of the last Edit.
    size_t Sent = 0;
    uint64_t LastDigest = 0;
  };

  struct MirrorSamples {
    Samples Decode, Apply, Rules, Digest, Query;
    void merge(const MirrorSamples &O) {
      Decode.append(O.Decode);
      Apply.append(O.Apply);
      Rules.append(O.Rules);
      Digest.append(O.Digest);
      Query.append(O.Query);
    }
  };

  struct MirrorState {
    std::unique_ptr<IncrementalSession> S;
    size_t Applied = 0; ///< Requests the mirror has caught up with.
  };

  const WireGrammar &desk() const { return Grammars.grammars()[0]; }
  /// The first molga system AG of the roster.
  const WireGrammar &molga() const { return Grammars.grammars()[3]; }

  void generateClient(uint64_t Seed, unsigned C) {
    ClientPlan &P = Plans[C];
    // Clients 0-1 edit desk trees, clients 2-3 molga trees.
    P.G = C < 2 ? &desk() : &molga();
    const AttributeGrammar &AG = *P.G->AG;
    uint64_t SessionId = C + 1;
    TreeGenerator TG(AG, mixSeed(TreeSeed, C));
    Tree T = TG.generate(TreeNodes);
    P.InitialTerm = writeTerm(AG, T.root());

    Request Open;
    Open.Kind = RequestKind::OpenSession;
    Open.Id = (uint64_t(C + 1) << 32);
    Open.GrammarKey = P.G->Key;
    Open.SessionId = SessionId;
    Open.Terms.push_back(P.InitialTerm);
    Open.RootInherited = rootInheritedBindings(AG);
    P.Open = encodeRequest(Open);

    // The oracle: a from-scratch Evaluator over the generator's own tree.
    DiagnosticEngine GenDiags;
    GeneratorOptions GO;
    GO.OagK = P.G->OagK;
    GeneratedEvaluator GE = generateEvaluator(AG, GenDiags, GO);
    if (!GE.Success)
      die("edit-session: oracle generation failed: " + GenDiags.dump());
    Evaluator Oracle(GE.Plan);
    for (auto &[A, V] : resolveBindings(AG, Open.RootInherited))
      Oracle.setRootInherited(A, V);

    Rng R(mixSeed(Seed, 6, C));
    uint64_t Seq = 0;
    unsigned Edits = 0;
    // Appends one edit frame (applying the op to T) and, after every third
    // edit, a query against the resulting state.
    auto Emit = [&](EditOp Op) {
      EditLog One;
      One.append(std::move(Op));
      DiagnosticEngine Diags;
      if (!One.apply(0, T, nullptr, Diags))
        die("edit-session: generated op does not apply: " + Diags.dump());
      Request Edit;
      Edit.Kind = RequestKind::Edit;
      Edit.Id = (uint64_t(C + 1) << 32) | ++Seq;
      Edit.SessionId = SessionId;
      serialize::ByteWriter W;
      One.encode(W);
      Edit.Ops = W.take();
      P.Frames.push_back(encodeRequest(Edit));
      P.Kinds.push_back(RequestKind::Edit);
      P.OpIndex.push_back(P.Ops.append(One.op(0)));
      P.Expected.emplace_back();
      if (++Edits % QueryEvery != 0)
        return;
      Request Q;
      Q.Kind = RequestKind::QueryAttribute;
      Q.Id = (uint64_t(C + 1) << 32) | ++Seq;
      Q.SessionId = SessionId;
      pickQuery(AG, T, R, Q.Path, Q.Attr);
      Value Want;
      if (!Oracle.evaluate(T, Diags) || !readAttr(T, Q.Path, Q.Attr, Want))
        die("edit-session: oracle evaluation failed: " + Diags.dump());
      P.Frames.push_back(encodeRequest(Q));
      P.Kinds.push_back(RequestKind::QueryAttribute);
      P.OpIndex.push_back(0);
      P.Expected.push_back(std::move(Want));
    };

    EditScriptOptions EO;
    EO.Seed = mixSeed(Seed, 5, C);
    EditScriptGen ESG(AG, EO);
    for (unsigned Seg = 0; Seg != Segments; ++Seg) {
      std::vector<EditOp> Undo;
      for (unsigned I = 0; I != SegmentEdits; ++I) {
        EditOp Op = ESG.next(T);
        Inverse Inv(T, Op);
        Emit(Op);
        Undo.push_back(Inv.after(AG, T));
      }
      for (size_t I = Undo.size(); I-- != 0;)
        Emit(std::move(Undo[I]));
      if (writeTerm(AG, T.root()) != P.InitialTerm)
        die("edit-session: the inverse ops did not restore the initial tree");
    }
  }

  Tree parseInitial(const ClientPlan &P) const {
    DiagnosticEngine Diags;
    Tree T = readTerm(*P.G->AG, P.InitialTerm, Diags);
    if (!T.root())
      die("edit-session: initial term does not parse: " + Diags.dump());
    return T;
  }

  std::shared_ptr<GrammarEntry> entry(const ClientPlan &P) {
    std::shared_ptr<GrammarEntry> E = D->registry().lookup(P.G->Key);
    if (!E)
      die("edit-session: grammar not resident");
    return E;
  }

  /// Opens the mirror sessions (timed as incremental.open_ms) and brings
  /// them up to the daemon's state, untimed.
  void startMirrors() {
    if (Mirrors.empty()) {
      for (ClientPlan &P : Plans) {
        std::shared_ptr<GrammarEntry> E = entry(P);
        MirrorState M;
        M.S = std::make_unique<IncrementalSession>(*E->AG, E->Artifact);
        for (auto &[A, V] :
             resolveBindings(*E->AG, rootInheritedBindings(*E->AG)))
          M.S->setRootInherited(A, V);
        Tree T = parseInitial(P);
        DiagnosticEngine Diags;
        double T0 = nowSec();
        bool Ok = M.S->start(std::move(T), Diags);
        OpenMs.add((nowSec() - T0) * 1e3);
        if (!Ok)
          die("edit-session: mirror start failed: " + Diags.dump());
        Mirrors.push_back(std::move(M));
      }
    }
    for (unsigned C = 0; C != Clients; ++C) {
      ClientPlan &P = Plans[C];
      MirrorState &M = Mirrors[C];
      for (; M.Applied != P.Sent; ++M.Applied) {
        size_t F = M.Applied % P.Frames.size();
        if (P.Kinds[F] != RequestKind::Edit)
          continue;
        DiagnosticEngine Diags;
        if (!M.S->apply(P.Ops.op(P.OpIndex[F]), Diags))
          die("edit-session: mirror catch-up failed: " + Diags.dump());
      }
    }
  }

  /// Repeats frame \p F on client \p C's mirror, timing each layer; false
  /// when the mirror disagrees with the daemon's answer \p R.
  bool mirrorStep(unsigned C, size_t F, const Response &R, MirrorSamples &S) {
    ClientPlan &P = Plans[C];
    MirrorState &M = Mirrors[C];
    Request Req;
    std::string Reason;
    if (!decodeRequest(P.Frames[F], Req, Reason))
      die("mirror: " + Reason);
    ++M.Applied;
    if (Req.Kind == RequestKind::QueryAttribute) {
      Value V;
      double T0 = nowSec();
      bool Found = readAttr(M.S->tree(), Req.Path, Req.Attr, V);
      S.Query.add((nowSec() - T0) * 1e6);
      return Found && R.Attrs.size() == 1 && V == R.Attrs[0].second;
    }
    const AttributeGrammar &AG = M.S->grammar();
    double T0 = nowSec();
    serialize::ByteReader Rd(Req.Ops);
    EditLog Log;
    bool Decoded = EditLog::decode(Rd, AG, Log);
    double T1 = nowSec();
    if (!Decoded || Log.size() != 1)
      die("mirror: op stream does not decode");
    uint64_t Rules0 = M.S->stats().RulesReevaluated;
    DiagnosticEngine Diags;
    bool Applied = M.S->apply(Log.op(0), Diags);
    double T2 = nowSec();
    uint64_t Digest = M.S->attributionDigest();
    double T3 = nowSec();
    if (!Applied)
      die("mirror: apply failed: " + Diags.dump());
    S.Decode.add((T1 - T0) * 1e6);
    S.Apply.add((T2 - T1) * 1e6);
    S.Rules.add(double(M.S->stats().RulesReevaluated - Rules0));
    S.Digest.add((T3 - T2) * 1e6);
    return Digest == R.Digest;
  }

  /// Replays what client \p C sent and checks the final state: every root
  /// attribute over the wire against a from-scratch evaluation.
  uint64_t verifyClient(unsigned C) {
    ClientPlan &P = Plans[C];
    std::shared_ptr<GrammarEntry> E = entry(P);
    const AttributeGrammar &AG = *E->AG;
    auto Inh = resolveBindings(AG, rootInheritedBindings(AG));
    Tree T = parseInitial(P);
    for (size_t I = 0; I != P.Sent; ++I) {
      size_t F = I % P.Frames.size();
      DiagnosticEngine Diags;
      if (P.Kinds[F] == RequestKind::Edit &&
          !P.Ops.apply(P.OpIndex[F], T, nullptr, Diags))
        die("edit-session: replay failed: " + Diags.dump());
    }
    Evaluator Ev(E->Artifact->Plan, E->Artifact->CP);
    for (auto &[A, V] : Inh)
      Ev.setRootInherited(A, V);
    DiagnosticEngine Diags;
    if (!Ev.evaluate(T, Diags))
      die("edit-session: oracle evaluation failed: " + Diags.dump());

    uint64_t Bad = 0;
    for (AttrId A : AG.phylum(AG.Start).Attrs) {
      if (!AG.attr(A).isSynthesized())
        continue;
      Request Q;
      Q.Kind = RequestKind::QueryAttribute;
      Q.Id = (uint64_t(C + 1) << 32) | 0xFFFF0000u | A;
      Q.SessionId = C + 1;
      Q.Attr = AG.attr(A).Name;
      Response R = decodeOrError(D->call(encodeRequest(Q)));
      Value Want;
      readAttr(T, {}, Q.Attr, Want);
      Bad += !R.ok() || R.Attrs.size() != 1 || !(R.Attrs[0].second == Want);
    }
    if (P.Sent != 0) {
      IncrementalSession Fresh(AG, E->Artifact);
      for (auto &[A, V] : Inh)
        Fresh.setRootInherited(A, V);
      Tree Copy(AG);
      Copy.setRoot(T.clone(T.root()));
      if (!Fresh.start(std::move(Copy), Diags))
        die("edit-session: oracle session failed: " + Diags.dump());
      if (Fresh.attributionDigest() != P.LastDigest)
        ++DigestDrift;
    }
    return Bad;
  }

  Roster Grammars;
  std::vector<ClientPlan> Plans;
  std::unique_ptr<Daemon> D;
  std::vector<MirrorState> Mirrors;
  MirrorSamples Mirror;
  Samples OpenMs;
  std::atomic<unsigned> DigestDrift{0};
};

} // namespace

std::unique_ptr<Workload> makeEditSession() {
  return std::make_unique<EditSession>();
}

} // namespace wirebench
