//===- core/Log.cpp - Local and global operation logs ----------------------===//

#include "core/Log.h"

#include "support/Str.h"

#include <cassert>

using namespace pushpull;

std::string pushpull::toString(LocalKind K) {
  switch (K) {
  case LocalKind::NotPushed:
    return "npshd";
  case LocalKind::Pushed:
    return "pshd";
  case LocalKind::Pulled:
    return "pld";
  }
  return "?";
}

size_t LocalLog::indexOf(OpId Id) const {
  size_t I = 0;
  for (const LocalEntry &E : Chain) {
    if (E.Op.Id == Id)
      return I;
    ++I;
  }
  return npos;
}

std::vector<Operation> LocalLog::ops() const {
  std::vector<Operation> Out;
  Out.reserve(Chain.size());
  for (const LocalEntry &E : Chain)
    Out.push_back(E.Op);
  return Out;
}

std::vector<Operation> LocalLog::opsOmitting(size_t Omit) const {
  std::vector<Operation> Out;
  Out.reserve(Chain.size());
  size_t I = 0;
  for (const LocalEntry &E : Chain) {
    if (I != Omit)
      Out.push_back(E.Op);
    ++I;
  }
  return Out;
}

std::vector<Operation> LocalLog::project(LocalKind K) const {
  std::vector<Operation> Out;
  for (const LocalEntry &E : Chain)
    if (E.Kind == K)
      Out.push_back(E.Op);
  return Out;
}

std::vector<Operation> LocalLog::ownOps() const {
  std::vector<Operation> Out;
  for (const LocalEntry &E : Chain)
    if (E.Kind != LocalKind::Pulled)
      Out.push_back(E.Op);
  return Out;
}

LocalLog::IndexList LocalLog::indicesOf(LocalKind K) const {
  IndexList Out;
  size_t I = 0;
  for (const LocalEntry &E : Chain) {
    if (E.Kind == K)
      Out.push_back(I);
    ++I;
  }
  return Out;
}

std::string LocalLog::toString() const {
  std::vector<std::string> Parts;
  for (const LocalEntry &E : Chain)
    Parts.push_back(E.Op.toString() + ":" + pushpull::toString(E.Kind));
  return "L[" + join(Parts, ", ") + "]";
}

std::string pushpull::toString(GlobalKind K) {
  switch (K) {
  case GlobalKind::Uncommitted:
    return "gUCmt";
  case GlobalKind::Committed:
    return "gCmt";
  }
  return "?";
}

size_t GlobalLog::indexOf(OpId Id) const {
  size_t I = 0;
  for (const GlobalEntry &E : Chain) {
    if (E.Op.Id == Id)
      return I;
    ++I;
  }
  return npos;
}

std::vector<Operation> GlobalLog::ops() const {
  std::vector<Operation> Out;
  Out.reserve(Chain.size());
  for (const GlobalEntry &E : Chain)
    Out.push_back(E.Op);
  return Out;
}

std::vector<Operation> GlobalLog::project(GlobalKind K) const {
  std::vector<Operation> Out;
  for (const GlobalEntry &E : Chain)
    if (E.Kind == K)
      Out.push_back(E.Op);
  return Out;
}

std::vector<Operation> GlobalLog::minus(const LocalLog &L) const {
  std::vector<Operation> Out;
  for (const GlobalEntry &E : Chain)
    if (!L.contains(E.Op.Id))
      Out.push_back(E.Op);
  return Out;
}

std::vector<Operation> GlobalLog::uncommittedNotIn(const LocalLog &L) const {
  std::vector<Operation> Out;
  for (const GlobalEntry &E : Chain)
    if (E.Kind == GlobalKind::Uncommitted && !L.contains(E.Op.Id))
      Out.push_back(E.Op);
  return Out;
}

std::vector<Operation> GlobalLog::uncommittedNotOwnedBy(TxId T) const {
  std::vector<Operation> Out;
  for (const GlobalEntry &E : Chain)
    if (E.Kind == GlobalKind::Uncommitted && E.Owner != T)
      Out.push_back(E.Op);
  return Out;
}

bool GlobalLog::containsAll(const LocalLog &L) const {
  for (const LocalEntry &E : L)
    if (!contains(E.Op.Id))
      return false;
  return true;
}

void GlobalLog::commitOwned(const LocalLog &L,
                            SmallVec<uint32_t, 4> *Flipped) {
  // Scan first, then flip.  mutableAt clones any shared chunk on the path
  // and drops this log's reference to the original, which a copy on
  // another thread may then free under a live iterator; and only entries
  // that actually flip go through it, so the common "nothing of ours is
  // here" probes deep-copy nothing.
  SmallVec<uint32_t, 4> Own;
  size_t I = 0;
  for (const GlobalEntry &E : Chain) {
    if (E.Kind != GlobalKind::Committed && L.contains(E.Op.Id))
      Own.push_back(static_cast<uint32_t>(I));
    ++I;
  }
  for (uint32_t J : Own) {
    Chain.mutableAt(J).Kind = GlobalKind::Committed;
    if (Flipped)
      Flipped->push_back(J);
  }
}

std::string GlobalLog::toString() const {
  std::vector<std::string> Parts;
  for (const GlobalEntry &E : Chain)
    Parts.push_back(E.Op.toString() + ":" + pushpull::toString(E.Kind) +
                    "@t" + std::to_string(E.Owner));
  return "G[" + join(Parts, ", ") + "]";
}
