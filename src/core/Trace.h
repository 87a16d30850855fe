//===- core/Trace.h - Rule traces -------------------------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A RuleTrace records the sequence of rule applications a machine run
/// performed, in the style of the paper's Figure 7 ("PULL(...), APP(...),
/// PUSH(...), ... CMT").  Traces drive the opacity checker, the rule-mix
/// histograms of the Section 6 experiments, and test assertions about an
/// algorithm's characteristic rule pattern.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_CORE_TRACE_H
#define PUSHPULL_CORE_TRACE_H

#include "core/Criteria.h"
#include "core/Op.h"
#include "support/Cow.h"

#include <string>
#include <vector>

namespace pushpull {

/// One recorded rule application.
struct TraceEvent {
  TxId Tid = 0;
  RuleKind Rule = RuleKind::App;
  /// The operation the rule touched (0 for CMT).
  OpId Id = 0;
  /// Printable description of that operation (kept by value: the op itself
  /// may later be removed from every log by UNPUSH/UNAPP).  Only recorded
  /// with MachineConfig::RecordAudit; reporting falls back to "#id".
  std::string OpText;
  /// For PULL events: was the pulled entry uncommitted at pull time?  This
  /// is what the Section 6.1 opacity fragment is defined by.
  bool PulledUncommitted = false;
  /// Monotone global sequence number.
  uint64_t Seq = 0;
};

/// An append-only record of rule applications across all threads.
///
/// Stored as a copy-on-write chunk chain (support/Cow.h): copying a trace
/// is one refcount bump and shares the recorded prefix with the original.
/// Appends after a copy open a fresh head chunk and never disturb the
/// original, while a sole owner (the scheduler, and a machine rolling back
/// its own dry runs) appends in place, eight events per chunk allocation.
/// Teardown of the chain is iterative, so multi-thousand-event scheduler
/// traces never overflow the stack.
class RuleTrace {
public:
  void record(TraceEvent E) {
    E.Seq = NextSeq++;
    Chain.push(std::move(E));
  }

  /// All events, oldest first (materialized on demand).
  std::vector<TraceEvent> events() const;
  bool empty() const { return Chain.empty(); }
  size_t size() const { return Chain.size(); }

  /// In-order iteration without materializing (oldest first).
  CowChain<TraceEvent, 8>::const_iterator begin() const {
    return Chain.begin();
  }
  CowChain<TraceEvent, 8>::const_iterator end() const { return Chain.end(); }

  /// Number of events with the given rule kind.
  size_t countOf(RuleKind K) const;

  /// Events performed by thread \p T, in order.
  std::vector<TraceEvent> byThread(TxId T) const;

  /// Figure 7-style rendering: one "RULE(op)" line per event.
  std::string toString() const;

  void clear() {
    Chain.clear();
    NextSeq = 0;
  }

  /// The sequence number the next recorded event gets.
  uint64_t nextSeq() const { return NextSeq; }

  /// Forget every event past the first \p Size and resume numbering at
  /// \p Seq: the machine's undo trail restores the trace it marked.
  void rollback(size_t Size, uint64_t Seq) {
    if (Size < Chain.size())
      Chain.truncate(Size);
    NextSeq = Seq;
  }

private:
  CowChain<TraceEvent, 8> Chain;
  uint64_t NextSeq = 0;
};

} // namespace pushpull

#endif // PUSHPULL_CORE_TRACE_H
