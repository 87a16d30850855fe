//===- analysis/Shapes.cpp - Abstract log/state shapes ---------------------===//

#include "analysis/Shapes.h"

#include "support/Str.h"

#include <algorithm>
#include <cassert>

using namespace pushpull;

size_t AbstractShape::entryCount() const {
  size_t N = G.size();
  for (const ShapeThread &T : Threads)
    N += T.L.size();
  return N;
}

static std::string opText(const Operation &Op) {
  std::string Out = Op.Call.toString();
  if (Op.Result) {
    Out += '=';
    Out += std::to_string(*Op.Result);
  }
  return Out;
}

std::string
AbstractShape::describe(const std::vector<Operation> &Alphabet) const {
  std::string Out = "G=[";
  for (size_t I = 0; I < G.size(); ++I) {
    if (I)
      Out += ", ";
    Out += opText(Alphabet[G[I].Op]);
    Out += G[I].Committed ? ":C" : (":U@t" + std::to_string(G[I].Owner));
  }
  Out += "]";
  for (size_t T = 0; T < Threads.size(); ++T) {
    const ShapeThread &Th = Threads[T];
    Out += " t" + std::to_string(T) + "{";
    if (!Th.InTx) {
      Out += Th.HasPending ? "idle+pending" : "idle";
    } else {
      Out += "L=[";
      for (size_t I = 0; I < Th.L.size(); ++I) {
        if (I)
          Out += ", ";
        const ShapeLocal &E = Th.L[I];
        switch (E.Kind) {
        case LocalKind::NotPushed:
          Out += "npshd " + opText(Alphabet[E.Op]);
          break;
        case LocalKind::Pushed:
          Out += "pshd->G" + std::to_string(E.GRef);
          break;
        case LocalKind::Pulled:
          Out += "pld->G" + std::to_string(E.GRef);
          break;
        }
      }
      Out += "]";
      if (Th.CodeOp != ShapeThread::kSkip)
        Out += " code=" + opText(Alphabet[Th.CodeOp]);
    }
    Out += "}";
  }
  return Out;
}

std::vector<Operation> pushpull::shapeAlphabet(const SequentialSpec &Spec,
                                               unsigned MaxAlphabet) {
  const std::vector<Operation> &Ops = Spec.probes();
  return std::vector<Operation>(
      Ops.begin(), Ops.begin() + std::min<size_t>(Ops.size(), MaxAlphabet));
}

namespace {

/// Recursive structural generator.  One instance per (scope, alphabet,
/// target-size) pass; Visit sees each shape of exactly TargetSize entries.
class ShapeGen {
public:
  ShapeGen(const ShapeScope &Scope, size_t AlphabetSize, size_t TargetSize,
           const std::function<bool(const AbstractShape &)> &Visit)
      : Scope(Scope), A(AlphabetSize), Target(TargetSize), Visit(Visit) {}

  /// Returns false when Visit asked to stop.
  bool run() {
    Cur.G.clear();
    Cur.Threads.assign(Scope.Threads, ShapeThread());
    return genGlobal();
  }

  uint64_t visited() const { return Visited; }

private:
  unsigned localCap(unsigned T) const {
    return T == 0 ? Scope.MaxLocalSubject : Scope.MaxLocalOther;
  }

  bool genGlobal() {
    if (!genThread(0))
      return false;
    // Entries are only ever added below here, so once the shape holds
    // Target of them no deeper shape can be emitted.
    if (Cur.G.size() >= Scope.MaxGlobal || Cur.entryCount() >= Target)
      return true;
    // Entry-size pruning: even a maximal suffix cannot reach Target.
    size_t MaxRest = (Scope.MaxGlobal - Cur.G.size() - 1) +
                     Scope.MaxLocalSubject +
                     (Scope.Threads - 1) * Scope.MaxLocalOther;
    if (Cur.G.size() + 1 + MaxRest < Target)
      return true;
    AbstractShape::GEntry E;
    for (unsigned Op = 0; Op < A; ++Op) {
      E.Op = Op;
      // Committed entries: owner is canonically thread 0.  No evaluated
      // criterion reads a committed entry's owner (PUSH (ii) quantifies
      // over uncommitted entries only; UNPUSH (i) ignores ownership), so
      // enumerating other owners would only duplicate verdicts.
      E.Committed = true;
      E.Owner = 0;
      Cur.G.push_back(E);
      if (!genGlobal())
        return false;
      Cur.G.pop_back();
      E.Committed = false;
      for (TxId Owner = 0; Owner < Scope.Threads; ++Owner) {
        E.Owner = Owner;
        Cur.G.push_back(E);
        if (!genGlobal())
          return false;
        Cur.G.pop_back();
      }
    }
    return true;
  }

  bool genThread(unsigned T) {
    if (T == Scope.Threads)
      return emit();
    // Uncommitted entries owned by T force one pshd local entry each.
    std::vector<unsigned> Forced;
    for (size_t I = 0; I < Cur.G.size(); ++I)
      if (!Cur.G[I].Committed && Cur.G[I].Owner == T)
        Forced.push_back(static_cast<unsigned>(I));
    if (Forced.size() > localCap(T))
      return true; // Shape cannot be well-formed for this thread.
    if (Forced.empty() && Scope.IncludeIdle) {
      // Idle-with-pending variant: empty L, a BEGIN is enabled.
      Cur.Threads[T] = ShapeThread();
      Cur.Threads[T].InTx = false;
      Cur.Threads[T].HasPending = true;
      if (!genThread(T + 1))
        return false;
    }
    Cur.Threads[T] = ShapeThread();
    Cur.Threads[T].InTx = true;
    std::vector<bool> Used(Cur.G.size(), false);
    return genLocal(T, Forced, Used);
  }

  bool genLocal(unsigned T, std::vector<unsigned> &Forced,
                std::vector<bool> &Used) {
    ShapeThread &Th = Cur.Threads[T];
    if (Forced.empty()) {
      if (!genCode(T))
        return false;
    }
    if (Th.L.size() >= localCap(T) || Cur.entryCount() >= Target)
      return true;
    size_t MaxRest = (localCap(T) - Th.L.size() - 1);
    for (unsigned U = T + 1; U < Scope.Threads; ++U)
      MaxRest += localCap(U);
    if (Cur.entryCount() + 1 + MaxRest < Target)
      return true;
    ShapeLocal E;
    // npshd entries: any alphabet operation.
    E.Kind = LocalKind::NotPushed;
    E.GRef = 0;
    for (unsigned Op = 0; Op < A; ++Op) {
      E.Op = Op;
      Th.L.push_back(E);
      if (!genLocal(T, Forced, Used))
        return false;
      Th.L.pop_back();
    }
    // pshd entries: consume a forced reference (any remaining one, so all
    // interleavings and orders are covered).
    E.Kind = LocalKind::Pushed;
    E.Op = 0;
    for (size_t F = 0; F < Forced.size(); ++F) {
      E.GRef = Forced[F];
      Forced.erase(Forced.begin() + F);
      Th.L.push_back(E);
      if (!genLocal(T, Forced, Used))
        return false;
      Th.L.pop_back();
      Forced.insert(Forced.begin() + F, E.GRef);
    }
    // pld entries: committed or foreign-owned uncommitted, each G entry
    // referenced at most once by this thread.
    E.Kind = LocalKind::Pulled;
    for (size_t I = 0; I < Cur.G.size(); ++I) {
      if (Used[I])
        continue;
      if (!Cur.G[I].Committed && Cur.G[I].Owner == T)
        continue;
      E.GRef = static_cast<unsigned>(I);
      Used[I] = true;
      Th.L.push_back(E);
      if (!genLocal(T, Forced, Used))
        return false;
      Th.L.pop_back();
      Used[I] = false;
    }
    return true;
  }

  bool genCode(unsigned T) {
    bool Calls = T == 0 ? Scope.SubjectCodeCalls : Scope.OtherCodeCalls;
    Cur.Threads[T].CodeOp = ShapeThread::kSkip;
    if (!genThread(T + 1))
      return false;
    if (Calls)
      for (unsigned Op = 0; Op < A; ++Op) {
        Cur.Threads[T].CodeOp = Op;
        if (!genThread(T + 1))
          return false;
      }
    Cur.Threads[T].CodeOp = ShapeThread::kSkip;
    return true;
  }

  bool emit() {
    if (Cur.entryCount() != Target)
      return true;
    ++Visited;
    return Visit(Cur);
  }

  const ShapeScope &Scope;
  const size_t A;
  const size_t Target;
  const std::function<bool(const AbstractShape &)> &Visit;
  AbstractShape Cur;
  uint64_t Visited = 0;
};

} // namespace

uint64_t
pushpull::enumerateShapes(const ShapeScope &Scope, size_t AlphabetSize,
                          const std::function<bool(const AbstractShape &)>
                              &Visit) {
  assert(Scope.Threads >= 1 && "shape scope needs at least one thread");
  size_t MaxTotal = Scope.MaxGlobal + Scope.MaxLocalSubject +
                    (Scope.Threads - 1) * Scope.MaxLocalOther;
  uint64_t Total = 0;
  // One structural pass per total entry count: generation is spec-free and
  // cheap, and re-walking the tree per size keeps the enumeration
  // smallest-first without buffering the whole space.
  for (size_t Target = 0; Target <= MaxTotal; ++Target) {
    ShapeGen Gen(Scope, AlphabetSize, Target, Visit);
    bool Continue = Gen.run();
    Total += Gen.visited();
    if (!Continue)
      break;
  }
  return Total;
}

bool pushpull::shapeDenotable(const AbstractShape &S,
                              const std::vector<Operation> &Alphabet,
                              const SequentialSpec &Spec) {
  std::vector<Operation> Ops;
  Ops.reserve(S.G.size());
  for (const AbstractShape::GEntry &E : S.G)
    Ops.push_back(Alphabet[E.Op]);
  if (!Spec.allowed(Ops))
    return false;
  for (const ShapeThread &Th : S.Threads) {
    if (Th.L.empty())
      continue;
    Ops.clear();
    for (const ShapeLocal &E : Th.L)
      Ops.push_back(Alphabet[E.Kind == LocalKind::NotPushed ? E.Op
                                                            : S.G[E.GRef].Op]);
    if (!Spec.allowed(Ops))
      return false;
  }
  return true;
}

/// The call expression of \p Op with literal arguments and no result
/// binding — the program text that could have produced it.
static MethodExpr callExprOf(const Operation &Op) {
  MethodExpr M;
  M.Object = Op.Call.Object;
  M.Method = Op.Call.Method;
  for (Value V : Op.Call.Args)
    M.Args.emplace_back(V);
  return M;
}

MaterializedShape
pushpull::materializeShape(const AbstractShape &S,
                           const std::vector<Operation> &Alphabet) {
  MaterializedShape Out;
  OpId NextId = 0;
  auto freshOp = [&](unsigned AlphaIdx) {
    Operation Op = Alphabet[AlphaIdx];
    Op.Id = ++NextId;
    return Op;
  };
  for (const AbstractShape::GEntry &E : S.G) {
    GlobalEntry GE;
    GE.Op = freshOp(E.Op);
    GE.Kind = E.Committed ? GlobalKind::Committed : GlobalKind::Uncommitted;
    GE.Owner = E.Owner;
    Out.G.append(std::move(GE));
  }
  for (size_t T = 0; T < S.Threads.size(); ++T) {
    const ShapeThread &STh = S.Threads[T];
    ThreadState Th;
    Th.Tid = static_cast<TxId>(T);
    if (!STh.InTx) {
      Th.InTx = false;
      if (STh.HasPending)
        Th.Pending.push_back(Code::makeCall(callExprOf(Alphabet[0])));
      Out.Threads.push_back(std::move(Th));
      continue;
    }
    Th.InTx = true;
    // Remaining code, then the own-op suffix chain that SavedCode fields
    // rewind through: the saved code of own entry j is
    //   call_j ; call_{j+1} ; ... ; call_k ; remaining
    // exactly what a real run would have recorded at each APP.
    CodePtr Remaining = STh.CodeOp == ShapeThread::kSkip
                            ? Code::makeSkip()
                            : Code::makeCall(callExprOf(Alphabet[STh.CodeOp]));
    std::vector<size_t> OwnIdx;
    for (size_t I = 0; I < STh.L.size(); ++I)
      if (STh.L[I].Kind != LocalKind::Pulled)
        OwnIdx.push_back(I);
    std::vector<CodePtr> Saved(STh.L.size());
    CodePtr Suffix = Remaining;
    for (size_t K = OwnIdx.size(); K-- > 0;) {
      size_t I = OwnIdx[K];
      const ShapeLocal &E = STh.L[I];
      const Operation &Op = E.Kind == LocalKind::NotPushed
                                ? Alphabet[E.Op]
                                : Out.G[E.GRef].Op;
      Suffix = Code::makeSeq(Code::makeCall(callExprOf(Op)), Suffix);
      Saved[I] = Suffix;
    }
    Th.Code = Remaining;
    Th.OrigCode = Suffix; // The reconstructed transaction body.
    for (size_t I = 0; I < STh.L.size(); ++I) {
      const ShapeLocal &E = STh.L[I];
      LocalEntry LE;
      LE.Kind = E.Kind;
      if (E.Kind == LocalKind::NotPushed) {
        LE.Op = freshOp(E.Op);
        LE.SavedCode = Saved[I];
      } else {
        LE.Op = Out.G[E.GRef].Op; // Alias the shared entry's record (same id).
        if (E.Kind == LocalKind::Pushed)
          LE.SavedCode = Saved[I];
      }
      Th.L.append(std::move(LE));
    }
    Out.Threads.push_back(std::move(Th));
  }
  Out.MaxId = NextId;
  return Out;
}

void pushpull::installShape(const MaterializedShape &Mat, PushPullMachine &M) {
  M.installForAnalysis(Mat.Threads, Mat.G, Mat.MaxId);
}

/// Render \p M as `.pp` call text, e.g. "mem.write(0, 1)".
static std::string callText(const Operation &Op) {
  std::string Out = Op.Call.Object + "." + Op.Call.Method + "(";
  for (size_t I = 0; I < Op.Call.Args.size(); ++I) {
    if (I)
      Out += ", ";
    Out += std::to_string(Op.Call.Args[I]);
  }
  Out += ")";
  return Out;
}

std::string pushpull::renderShapeWitness(
    const AbstractShape &S, const std::vector<Operation> &Alphabet,
    const std::string &SpecLine, const std::string &EngineLine,
    const std::string &InjectLine, const std::string &ProbeComment) {
  std::string Out;
  Out += "# ppcheck witness (auto-generated)\n";
  if (!ProbeComment.empty())
    Out += "# " + ProbeComment + "\n";
  Out += "# shape: " + S.describe(Alphabet) + "\n";
  Out += SpecLine + "\n";
  Out += EngineLine + "\n";
  if (!InjectLine.empty())
    Out += "inject " + InjectLine + "\n";
  for (size_t T = 0; T < S.Threads.size(); ++T) {
    const ShapeThread &Th = S.Threads[T];
    // Prior transactions: committed shared-log entries attributed to this
    // thread, one already-committed transaction each.
    std::vector<std::string> Txs;
    for (const AbstractShape::GEntry &E : S.G)
      if (E.Committed && E.Owner == static_cast<TxId>(T))
        Txs.push_back("tx { " + callText(Alphabet[E.Op]) + " }");
    // The in-progress (or pending) transaction: own local operations in
    // order, then the remaining code.
    std::vector<std::string> Body;
    for (const ShapeLocal &E : Th.L)
      if (E.Kind != LocalKind::Pulled)
        Body.push_back(callText(
            Alphabet[E.Kind == LocalKind::NotPushed ? E.Op : S.G[E.GRef].Op]));
    if (Th.CodeOp != ShapeThread::kSkip)
      Body.push_back(callText(Alphabet[Th.CodeOp]));
    if (Th.InTx || Th.HasPending || !Body.empty())
      Txs.push_back(Body.empty() ? std::string("tx { skip }")
                                 : "tx { " + join(Body, "; ") + " }");
    if (Txs.empty())
      Txs.push_back("tx { skip }");
    Out += "thread " + join(Txs, "; ") + "\n";
  }
  return Out;
}
