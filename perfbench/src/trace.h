//===- perfbench/src/trace.h - Spans around calls into the library -*- C++ -*-===//
//
// The traced run's instrumentation.  Every span is opened by benchmark code
// around a call into one of the library's public functions, or inside one of
// the forwarding decorators below, which the traced run substitutes for the
// library's own objects through public seams (a SequentialSpec, a
// CommutativityOracle, a TMEngine).  No library code is instrumented.
//
// Accounting: each thread keeps a stack of open spans.  A span's self time is
// its duration minus the durations of the spans opened inside it, so the self
// times of every site, plus the self time of the per-thread Root span
// (time not covered by any call we wrapped: "unattributed"), add up exactly
// to the summed duration of the Root spans.  Spans opened outside a Root span
// are ignored, so set-up work never leaks into the totals.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "core/Commut.h"
#include "core/Spec.h"
#include "tm/Engine.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Call sites the traced run wraps.  Each belongs to one layer (a src/
/// module family); the layer is what the per-layer self-time fractions
/// report.
enum class Site : unsigned {
  Root,            ///< Per-thread traced region (self time = unattributed).
  Explore,         ///< Explorer::explore            -> explorer
  SpecSuccessors,  ///< SequentialSpec::successors    -> spec
  SpecCompletions, ///< SequentialSpec::completions   -> spec
  SpecHint,        ///< SequentialSpec::leftMoverHint -> spec
  CommutQuery,     ///< CommutativityOracle::stronglyCommute -> commut
  CommutBuild,     ///< CommutativityDB construction + certification -> commut
  SampleConfigKey, ///< Sampled PushPullMachine::configKey -> sampling
  SampleOracle,    ///< Sampled checkCommitOrder on explorer terminals -> sampling
  Generate,        ///< Generator::next / Mutator::mutate -> gen
  BuildCase,       ///< buildCase (spec construction)   -> gen
  MakeEngine,      ///< Machine + engine construction   -> tm
  SchedRun,        ///< Scheduler::run                  -> sched
  EngineStep,      ///< TMEngine::step                  -> tm
  Invariants,      ///< checkAllInvariants              -> invariants
  Oracle,          ///< SerializabilityChecker::checkCommitOrder -> oracle
  Opacity,         ///< classifyTrace                   -> opacity
  RoundConfig,     ///< buildRoundConfig                -> stress
  Admit,           ///< CommitArbiter::admitCommit      -> arbiter
  RingPush,        ///< RingTrace::tryPush (with spins) -> ring
  RingPop,         ///< RingTrace::tryPop               -> ring
  WindowFeed,      ///< WindowChecker::feed             -> window
  WindowClose,     ///< WindowChecker construction + closeWindow -> window
  Wait,            ///< Checker idle sleep              -> wait
  Criteria,        ///< auditCriteria                   -> analysis
  Battery,         ///< runNegativeBattery              -> analysis
  Independence,    ///< auditIndependence               -> analysis
  MoverTable,      ///< MoverTable::build               -> analysis
  Prove,           ///< proveSerializable               -> analysis
  Count
};

constexpr size_t NumSites = static_cast<size_t>(Site::Count);

/// Layers reported as `self_frac.<layer>`; Root's self time is reported as
/// trace.unattributed_frac instead.
const std::array<const char *, 16> &layerNames();
/// Index into layerNames() of \p S's layer (Root has none: -1).
int layerOf(Site S);

/// Per-site totals: calls, inclusive and self nanoseconds.
struct SiteTotals {
  std::array<uint64_t, NumSites> Calls{};
  std::array<uint64_t, NumSites> InclNs{};
  std::array<uint64_t, NumSites> SelfNs{};

  void add(const SiteTotals &O);
  uint64_t calls(Site S) const { return Calls[static_cast<size_t>(S)]; }
  uint64_t inclNs(Site S) const { return InclNs[static_cast<size_t>(S)]; }
  uint64_t selfNs(Site S) const { return SelfNs[static_cast<size_t>(S)]; }
};

/// A thread-safe call counter with accumulated duration, for per-call means
/// finer than a site (e.g. one engine's steps).
struct CallStat {
  std::atomic<uint64_t> Calls{0};
  std::atomic<uint64_t> Ns{0};
  void add(uint64_t D) {
    Calls.fetch_add(1, std::memory_order_relaxed);
    Ns.fetch_add(D, std::memory_order_relaxed);
  }
  double meanNs() const {
    uint64_t C = Calls.load();
    return C ? static_cast<double>(Ns.load()) / static_cast<double>(C) : 0.0;
  }
};

/// Turn span recording on or off process-wide.
void setTracing(bool On);
bool tracing();

/// RAII span.  Records only while tracing is on and, except for Root
/// itself, only inside an open Root span on this thread.  \p Extra, when
/// given, also receives the span's inclusive duration.
class Span {
public:
  explicit Span(Site S, CallStat *Extra = nullptr);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  bool Active = false;
  CallStat *Extra = nullptr;
};

/// Add this thread's totals to the process-wide totals and clear them.
/// Every thread that opened a Root span calls this before it ends.
void flushThread();

/// Process-wide totals flushed so far; reset() clears them.
SiteTotals collected();
void resetCollected();

// -- Forwarding decorators ---------------------------------------------------

/// A SequentialSpec that forwards to another one, wrapping successors,
/// completions and leftMoverHint in spans.  It has its own interning table
/// (the table is per instance), so the traced run's spec.* counters are read
/// from the decorator.  Thread-safe when the wrapped spec is.
class TracedSpec final : public pushpull::SequentialSpec {
public:
  explicit TracedSpec(std::shared_ptr<const pushpull::SequentialSpec> Inner)
      : Inner(std::move(Inner)) {}

  std::string name() const override { return Inner->name(); }
  std::vector<pushpull::State> initialStates() const override {
    return Inner->initialStates();
  }
  std::vector<pushpull::State>
  successors(const pushpull::State &S,
             const pushpull::Operation &Op) const override;
  std::vector<pushpull::Completion>
  completions(const pushpull::State &S,
              const pushpull::ResolvedCall &Call) const override;
  std::vector<pushpull::Operation> probeOps() const override {
    return Inner->probeOps();
  }
  pushpull::Tri leftMoverHint(const pushpull::Operation &A,
                              const pushpull::Operation &B) const override;
  std::vector<pushpull::MethodSig> methods() const override {
    return Inner->methods();
  }

  const pushpull::SequentialSpec &inner() const { return *Inner; }

  /// successors() calls and their inclusive time; leftMoverHint() calls.
  mutable CallStat Successors;
  mutable CallStat Hints;

private:
  std::shared_ptr<const pushpull::SequentialSpec> Inner;
};

/// A CommutativityOracle that forwards to another one, timing each query.
class TracedCommut final : public pushpull::CommutativityOracle {
public:
  explicit TracedCommut(const pushpull::CommutativityOracle &Inner)
      : Inner(Inner) {}

  bool stronglyCommute(pushpull::OpKeyId A, pushpull::OpKeyId B) const override;
  uint64_t tableHits() const override { return Inner.tableHits(); }
  uint64_t tableMisses() const override { return Inner.tableMisses(); }
  uint64_t certChecks() const override { return Inner.certChecks(); }

  mutable CallStat Queries;

private:
  const pushpull::CommutativityOracle &Inner;
};

/// A TMEngine that forwards to another one, timing each step into \p Steps.
/// Mirrors the wrapped engine's abort count after every step, so
/// Scheduler::run reads the same RunStats it would read from the engine.
class TracedEngine final : public pushpull::TMEngine {
public:
  TracedEngine(std::unique_ptr<pushpull::TMEngine> Inner, CallStat &Steps)
      : TMEngine(Inner->machine()), Inner(std::move(Inner)), Steps(Steps) {}

  std::string name() const override { return Inner->name(); }
  pushpull::StepStatus step(pushpull::TxId T) override;
  uint32_t ruleMask() const override { return Inner->ruleMask(); }
  bool pullsUncommitted() const override { return Inner->pullsUncommitted(); }

private:
  std::unique_ptr<pushpull::TMEngine> Inner;
  CallStat &Steps;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
