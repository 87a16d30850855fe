//===- core/Spec.cpp - Sequential specifications ---------------------------===//

#include "core/Spec.h"

#include "lang/Ast.h"
#include "support/Str.h"

#include <algorithm>
#include <cassert>
#include <mutex>

using namespace pushpull;

StateSet StateSet::of(std::vector<State> States) {
  std::sort(States.begin(), States.end());
  States.erase(std::unique(States.begin(), States.end()), States.end());
  StateSet Out;
  Out.States = std::move(States);
  return Out;
}

bool StateSet::subsetOf(const StateSet &O) const {
  return std::includes(O.States.begin(), O.States.end(), States.begin(),
                       States.end());
}

std::string StateSet::key() const {
  std::string Out;
  for (const State &S : States) {
    Out += S;
    Out += '\x1f';
  }
  return Out;
}

std::string StateSet::toString() const {
  return "{" + join(States, " | ") + "}";
}

//===----------------------------------------------------------------------===//
// StateTable
//===----------------------------------------------------------------------===//

static uint32_t freshTableId() {
  // Start at 1: per-Operation key caches and per-thread read caches use
  // id 0 for "empty".
  static std::atomic<uint32_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

/// One thread's direct-mapped cache over every table it reads, 48 KiB
/// per thread.  Slots are tagged with the owning table's id and indexed
/// without it, so equal ids of different tables meet in one slot and the
/// tag alone tells them apart.  Thread storage starts zeroed and table ids
/// start at 1, so an unfilled slot never matches.
struct StateTable::ReadCache {
  static constexpr unsigned TransitionBits = 11, SetBits = 10;

  struct TransitionSlot {
    uint32_t Table, Set, Op, Result;
  };
  struct SetSlot {
    uint32_t Table, Id;
    const StateSet *Set;
  };

  TransitionSlot Transitions[1u << TransitionBits];
  SetSlot Sets[1u << SetBits];
  /// One plus this thread's counter slot; 0 until first needed.
  unsigned Counter;

  TransitionSlot &transition(StateSetId S, OpKeyId Op) {
    uint64_t Key = (static_cast<uint64_t>(S) << 32) | Op;
    return Transitions[(Key * 0x9e3779b97f4a7c15ull) >> (64 - TransitionBits)];
  }

  /// Set ids are dense, so a table's first 2^SetBits sets never collide.
  SetSlot &set(StateSetId Id) { return Sets[Id & ((1u << SetBits) - 1)]; }

  unsigned counterSlot() {
    if (!Counter) {
      static std::atomic<unsigned> Next{0};
      Counter = 1 + Next.fetch_add(1, std::memory_order_relaxed) %
                        StateTable::CounterSlots;
    }
    return Counter - 1;
  }
};

StateTable::ReadCache &StateTable::readCache() {
  // Trivially constructible: zero-initialized, with no guard on access.
  thread_local ReadCache Cache;
  return Cache;
}

StateTable::StateTable()
    : TableId(freshTableId()),
      Counters(std::make_unique<CounterSlot[]>(CounterSlots)) {
  // Reserve id 0 for the empty set so emptiness checks are `Id == 0`.
  auto Entry = std::make_unique<SetEntry>();
  SetIds.emplace(std::vector<StateId>{}, EmptySetId);
  Sets.push_back(std::move(Entry));
}

StateId StateTable::internState(const State &S) {
  {
    std::shared_lock<std::shared_mutex> Lock(Mutex);
    auto It = StateIds.find(S);
    if (It != StateIds.end())
      return It->second;
  }
  std::unique_lock<std::shared_mutex> Lock(Mutex);
  auto [It, Fresh] =
      StateIds.try_emplace(S, static_cast<StateId>(StateIds.size()));
  (void)Fresh;
  return It->second;
}

StateSetId StateTable::internSorted(std::vector<StateId> Members,
                                    StateSet &&Canonical) {
  {
    std::shared_lock<std::shared_mutex> Lock(Mutex);
    auto It = SetIds.find(Members);
    if (It != SetIds.end())
      return It->second;
  }
  std::unique_lock<std::shared_mutex> Lock(Mutex);
  auto It = SetIds.find(Members);
  if (It != SetIds.end())
    return It->second;
  StateSetId Id = static_cast<StateSetId>(Sets.size());
  auto Entry = std::make_unique<SetEntry>();
  Entry->Canonical = std::move(Canonical);
  Entry->Members = Members;
  Sets.push_back(std::move(Entry));
  SetIds.emplace(std::move(Members), Id);
  return Id;
}

StateSetId StateTable::internSet(const StateSet &S) {
  return internSet(StateSet(S));
}

StateSetId StateTable::internSet(StateSet &&S) {
  if (S.empty())
    return EmptySetId;
  std::vector<StateId> Members;
  Members.reserve(S.size());
  for (const State &St : S.states())
    Members.push_back(internState(St));
  std::sort(Members.begin(), Members.end());
  return internSorted(std::move(Members), std::move(S));
}

const StateSet &StateTable::setOf(StateSetId Id) const {
  ReadCache::SetSlot &Slot = readCache().set(Id);
  if (Slot.Table != TableId || Slot.Id != Id) {
    std::shared_lock<std::shared_mutex> Lock(Mutex);
    assert(Id < Sets.size() && "bad state-set id");
    // The entry is immutable once published and heap-stable, so the
    // pointer survives the lock.
    Slot = {TableId, Id, &Sets[Id]->Canonical};
  }
  return *Slot.Set;
}

const std::vector<StateId> &StateTable::membersOf(StateSetId Id) const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  assert(Id < Sets.size() && "bad state-set id");
  return Sets[Id]->Members;
}

bool StateTable::subset(StateSetId A, StateSetId B) const {
  if (A == B || A == EmptySetId)
    return true;
  if (B == EmptySetId)
    return false;
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  assert(A < Sets.size() && B < Sets.size() && "bad state-set id");
  const std::vector<StateId> &MA = Sets[A]->Members;
  const std::vector<StateId> &MB = Sets[B]->Members;
  return std::includes(MB.begin(), MB.end(), MA.begin(), MA.end());
}

OpKeyId StateTable::opKey(const Operation &Op) {
  // Fast path: the operation already carries the key this table assigned.
  OpKeyId Cached;
  if (Op.KeyCache.lookup(TableId, Cached))
    return Cached;
  std::string Key = Op.Call.toString();
  if (Op.Result) {
    Key += '=';
    Key += std::to_string(*Op.Result);
  }
  {
    std::shared_lock<std::shared_mutex> Lock(Mutex);
    auto It = OpKeys.find(Key);
    if (It != OpKeys.end()) {
      Op.KeyCache.store(TableId, It->second);
      return It->second;
    }
  }
  std::unique_lock<std::shared_mutex> Lock(Mutex);
  auto [It, Fresh] =
      OpKeys.try_emplace(std::move(Key), static_cast<OpKeyId>(OpKeys.size()));
  (void)Fresh;
  Op.KeyCache.store(TableId, It->second);
  return It->second;
}

TextId StateTable::textKey(std::string_view Text) {
  {
    std::shared_lock<std::shared_mutex> Lock(Mutex);
    auto It = Texts.find(Text);
    if (It != Texts.end())
      return It->second;
  }
  std::unique_lock<std::shared_mutex> Lock(Mutex);
  auto [It, Fresh] = Texts.try_emplace(std::string(Text),
                                       static_cast<TextId>(Texts.size()));
  (void)Fresh;
  return It->second;
}

TextId StateTable::codeKey(const Code &C) {
  TextId Id;
  if (C.keyCache().lookup(TableId, Id))
    return Id;
  Id = textKey(C.printed());
  C.keyCache().store(TableId, Id);
  return Id;
}

bool StateTable::lookupTransition(StateSetId S, OpKeyId Op, StateSetId &Out) {
  ReadCache &Cache = readCache();
  CounterSlot &Count = Counters[Cache.counterSlot()];
  ReadCache::TransitionSlot &Slot = Cache.transition(S, Op);
  if (Slot.Table != TableId || Slot.Set != S || Slot.Op != Op) {
    uint64_t Key = (static_cast<uint64_t>(S) << 32) | Op;
    std::shared_lock<std::shared_mutex> Lock(Mutex);
    auto It = Transitions.find(Key);
    if (It == Transitions.end()) {
      Count.Misses.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Slot = {TableId, S, Op, It->second};
  }
  Count.Hits.fetch_add(1, std::memory_order_relaxed);
  Out = Slot.Result;
  return true;
}

void StateTable::recordTransition(StateSetId S, OpKeyId Op,
                                  StateSetId Result) {
  uint64_t Key = (static_cast<uint64_t>(S) << 32) | Op;
  {
    std::unique_lock<std::shared_mutex> Lock(Mutex);
    Transitions.emplace(Key, Result);
  }
  // A racing recorder that won the emplace computed the same set, hence
  // the same interned id, so caching ours agrees with the shared map.
  readCache().transition(S, Op) = {TableId, S, Op, Result};
}

InternStats StateTable::stats() const {
  InternStats Out;
  for (unsigned I = 0; I < CounterSlots; ++I) {
    Out.TransitionMemoHits += Counters[I].Hits.load(std::memory_order_relaxed);
    Out.TransitionMemoMisses +=
        Counters[I].Misses.load(std::memory_order_relaxed);
  }
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  Out.StatesInterned = StateIds.size();
  Out.StateSetsInterned = Sets.size();
  Out.OpKeysInterned = OpKeys.size();
  return Out;
}

//===----------------------------------------------------------------------===//
// SequentialSpec
//===----------------------------------------------------------------------===//

SequentialSpec::~SequentialSpec() = default;

Tri SequentialSpec::leftMoverHint(const Operation &, const Operation &) const {
  return Tri::Unknown;
}

std::string MethodSig::toString() const {
  return Object + "." + Method + "/" + std::to_string(Arity);
}

std::vector<MethodSig> SequentialSpec::methods() const {
  std::vector<MethodSig> Out;
  for (const Operation &Op : probes()) {
    bool Found = false;
    for (MethodSig &S : Out)
      if (S.Object == Op.Call.Object && S.Method == Op.Call.Method) {
        S.HasResult = S.HasResult || Op.Result.has_value();
        Found = true;
        break;
      }
    if (Found)
      continue;
    MethodSig S;
    S.Object = Op.Call.Object;
    S.Method = Op.Call.Method;
    S.Arity = static_cast<unsigned>(Op.Call.Args.size());
    S.HasResult = Op.Result.has_value();
    Out.push_back(std::move(S));
  }
  return Out;
}

const SequentialSpec::ProbeAlphabet &SequentialSpec::probeAlphabet() const {
  std::call_once(ProbesOnce, [this] {
    Probes.Ops = probeOps();
    Probes.Keys.reserve(Probes.Ops.size());
    for (const Operation &Op : Probes.Ops)
      Probes.Keys.push_back(Table.opKey(Op));
  });
  return Probes;
}

const std::vector<Operation> &SequentialSpec::probes() const {
  return probeAlphabet().Ops;
}

const std::vector<OpKeyId> &SequentialSpec::probeKeys() const {
  return probeAlphabet().Keys;
}

StateSet SequentialSpec::initial() const {
  return StateSet::of(initialStates());
}

StateSetId SequentialSpec::initialId() const {
  StateSetId Id = CachedInitial.load(std::memory_order_acquire);
  if (Id != NoInitial)
    return Id;
  // Racing computations intern the same canonical set, so the CAS loser's
  // work is identical and harmless.
  Id = Table.internSet(initial());
  CachedInitial.store(Id, std::memory_order_release);
  return Id;
}

StateSetId SequentialSpec::applyOpId(StateSetId S, const Operation &Op) const {
  return applyOpId(S, Op, Table.opKey(Op));
}

StateSetId SequentialSpec::applyOpId(StateSetId S, const Operation &Op,
                                     OpKeyId Key) const {
  if (Table.setEmpty(S))
    return StateTable::EmptySetId;
  StateSetId Out;
  if (Table.lookupTransition(S, Key, Out))
    return Out;
  const StateSet &In = Table.setOf(S);
  std::vector<State> Next;
  for (const State &St : In.states())
    for (State &Succ : successors(St, Op))
      Next.push_back(std::move(Succ));
  Out = Table.internSet(StateSet::of(std::move(Next)));
  Table.recordTransition(S, Key, Out);
  return Out;
}

StateSetId
SequentialSpec::denoteFromId(StateSetId From,
                             const std::vector<Operation> &Log) const {
  StateSetId S = From;
  for (const Operation &Op : Log) {
    if (Table.setEmpty(S))
      break;
    S = applyOpId(S, Op);
  }
  return S;
}

StateSetId SequentialSpec::denoteId(const std::vector<Operation> &Log) const {
  return denoteFromId(initialId(), Log);
}

StateSet SequentialSpec::applyOp(const StateSet &S, const Operation &Op) const {
  return Table.setOf(applyOpId(Table.internSet(S), Op));
}

StateSet SequentialSpec::denote(const std::vector<Operation> &Log) const {
  return Table.setOf(denoteId(Log));
}

StateSet SequentialSpec::denoteFrom(const StateSet &From,
                                    const std::vector<Operation> &Log) const {
  return Table.setOf(denoteFromId(Table.internSet(From), Log));
}

bool SequentialSpec::allowed(const std::vector<Operation> &Log) const {
  return !Table.setEmpty(denoteId(Log));
}

bool SequentialSpec::allowsFrom(const StateSet &SOfLog,
                                const Operation &Op) const {
  return !Table.setEmpty(applyOpId(Table.internSet(SOfLog), Op));
}

std::vector<Completion>
SequentialSpec::completionsFrom(const StateSet &S,
                                const ResolvedCall &Call) const {
  std::vector<Completion> Out;
  for (const State &St : S.states())
    for (const Completion &C : completions(St, Call))
      if (std::find(Out.begin(), Out.end(), C) == Out.end())
        Out.push_back(C);
  return Out;
}
