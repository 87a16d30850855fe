//===- perfbench/src/trace.cpp - Spans around calls into the library -------===//

#include "trace.h"

#include <mutex>

using namespace pushpull;

namespace perfbench {

namespace {

std::atomic<bool> Tracing{false};

struct Frame {
  Site S = Site::Root;
  uint64_t Start = 0;
  uint64_t ChildNs = 0;
};

constexpr size_t MaxDepth = 64;

struct ThreadSpans {
  std::array<Frame, MaxDepth> Stack{};
  size_t Depth = 0;
  SiteTotals Totals;
};

thread_local ThreadSpans TS;

std::mutex CollectedLock;
SiteTotals Collected; // Guarded by CollectedLock.

} // namespace

const std::array<const char *, 16> &layerNames() {
  static const std::array<const char *, 16> Names = {
      "explorer", "spec",     "commut", "sampling", "gen",    "tm",
      "sched",    "invariants", "oracle", "opacity",  "stress", "arbiter",
      "ring",     "window",   "wait",   "analysis"};
  return Names;
}

int layerOf(Site S) {
  switch (S) {
  case Site::Root:
  case Site::Count:
    return -1;
  case Site::Explore:
    return 0;
  case Site::SpecSuccessors:
  case Site::SpecCompletions:
  case Site::SpecHint:
    return 1;
  case Site::CommutQuery:
  case Site::CommutBuild:
    return 2;
  case Site::SampleConfigKey:
  case Site::SampleOracle:
    return 3;
  case Site::Generate:
  case Site::BuildCase:
    return 4;
  case Site::MakeEngine:
  case Site::EngineStep:
    return 5;
  case Site::SchedRun:
    return 6;
  case Site::Invariants:
    return 7;
  case Site::Oracle:
    return 8;
  case Site::Opacity:
    return 9;
  case Site::RoundConfig:
    return 10;
  case Site::Admit:
    return 11;
  case Site::RingPush:
  case Site::RingPop:
    return 12;
  case Site::WindowFeed:
  case Site::WindowClose:
    return 13;
  case Site::Wait:
    return 14;
  case Site::Criteria:
  case Site::Battery:
  case Site::Independence:
  case Site::MoverTable:
  case Site::Prove:
    return 15;
  }
  return -1;
}

void SiteTotals::add(const SiteTotals &O) {
  for (size_t I = 0; I < NumSites; ++I) {
    Calls[I] += O.Calls[I];
    InclNs[I] += O.InclNs[I];
    SelfNs[I] += O.SelfNs[I];
  }
}

void setTracing(bool On) { Tracing.store(On, std::memory_order_relaxed); }
bool tracing() { return Tracing.load(std::memory_order_relaxed); }

Span::Span(Site S, CallStat *Extra) : Extra(Extra) {
  if (!tracing() || TS.Depth >= MaxDepth || (TS.Depth == 0 && S != Site::Root))
    return;
  Active = true;
  Frame &F = TS.Stack[TS.Depth++];
  F.S = S;
  F.ChildNs = 0;
  F.Start = nowNs();
}

Span::~Span() {
  if (!Active)
    return;
  uint64_t End = nowNs();
  Frame &F = TS.Stack[--TS.Depth];
  uint64_t Dur = End - F.Start;
  size_t I = static_cast<size_t>(F.S);
  ++TS.Totals.Calls[I];
  TS.Totals.InclNs[I] += Dur;
  TS.Totals.SelfNs[I] += Dur - F.ChildNs;
  if (TS.Depth)
    TS.Stack[TS.Depth - 1].ChildNs += Dur;
  if (Extra)
    Extra->add(Dur);
}

void flushThread() {
  std::lock_guard<std::mutex> G(CollectedLock);
  Collected.add(TS.Totals);
  TS.Totals = SiteTotals();
}

SiteTotals collected() {
  std::lock_guard<std::mutex> G(CollectedLock);
  return Collected;
}

void resetCollected() {
  std::lock_guard<std::mutex> G(CollectedLock);
  Collected = SiteTotals();
}

std::vector<State> TracedSpec::successors(const State &S,
                                          const Operation &Op) const {
  Span Sp(Site::SpecSuccessors, &Successors);
  return Inner->successors(S, Op);
}

std::vector<Completion> TracedSpec::completions(const State &S,
                                                const ResolvedCall &Call) const {
  Span Sp(Site::SpecCompletions);
  return Inner->completions(S, Call);
}

Tri TracedSpec::leftMoverHint(const Operation &A, const Operation &B) const {
  Span Sp(Site::SpecHint, &Hints);
  return Inner->leftMoverHint(A, B);
}

bool TracedCommut::stronglyCommute(OpKeyId A, OpKeyId B) const {
  Span Sp(Site::CommutQuery, &Queries);
  return Inner.stronglyCommute(A, B);
}

StepStatus TracedEngine::step(TxId T) {
  StepStatus S;
  {
    Span Sp(Site::EngineStep, &Steps);
    S = Inner->step(T);
  }
  Aborts = Inner->aborts();
  return S;
}

} // namespace perfbench
