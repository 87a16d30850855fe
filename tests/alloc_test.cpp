//===- tests/alloc_test.cpp - Rejected rule attempts allocate nothing -------===//
//
// The explorer probes every candidate firing and most probes are rejected,
// so a rejection must not touch the heap: criterion names, details and rule
// messages are StaticText views of literals and the reports live inline.
// This binary replaces the global operator new/delete with a per-thread
// counting version and checks that a second, identical rejected attempt
// (after one warm-up that fills the spec's and mover checker's memos)
// performs zero allocations, for one criterion of each kind of check: a
// mover criterion (PUSH (ii)), a denotation criterion (PULL (ii)), a
// structural criterion (CMT (i)) and a flag check (UNAPP).
//
// Not built under ASan or TSan, whose runtimes own operator new.
//
//===----------------------------------------------------------------------===//

#include "core/Machine.h"

#include "lang/Parser.h"
#include "spec/RegisterSpec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
thread_local uint64_t Allocations = 0;

void *countedAlloc(std::size_t N, std::size_t Align) {
  ++Allocations;
  if (N == 0)
    N = 1;
  void *P = Align <= alignof(std::max_align_t)
                ? std::malloc(N)
                : std::aligned_alloc(Align, (N + Align - 1) / Align * Align);
  if (!P)
    throw std::bad_alloc();
  return P;
}
} // namespace

// The standard's default array and nothrow forms forward to these, so
// replacing them counts every allocation.
void *operator new(std::size_t N) {
  return countedAlloc(N, alignof(std::max_align_t));
}
void *operator new(std::size_t N, std::align_val_t A) {
  return countedAlloc(N, static_cast<std::size_t>(A));
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

using namespace pushpull;

namespace {

struct RegisterRig {
  RegisterSpec Spec{"mem", 2, 3};
  MoverChecker Movers{Spec};
  PushPullMachine M{Spec, Movers};

  TxId addThread(const std::string &Tx) {
    TxId T = M.addThread({parseOrDie(Tx)});
    EXPECT_TRUE(M.beginTx(T));
    return T;
  }
};

bool failedOn(const RuleResult &R, std::string_view Name) {
  for (const CriterionReport &C : R.Criteria)
    if (C.Name == Name && !C.holds())
      return true;
  return false;
}

/// Run \p Attempt twice (the first fills every memo it consults) and
/// return the heap allocations of the second run; \p Out receives the
/// second result.
template <typename Fn> uint64_t secondAttemptAllocations(Fn &&Attempt,
                                                         RuleResult &Out) {
  Out = Attempt();
  uint64_t Before = Allocations;
  Out = Attempt();
  return Allocations - Before;
}

} // namespace

TEST(RejectedAttempt, CountingAllocatorSeesHeapTraffic) {
  uint64_t Before = Allocations;
  std::string S(64, 'x');
  EXPECT_GT(Allocations - Before, 0u) << S;
}

TEST(RejectedAttempt, PushCriterionIIAllocatesNothing) {
  RegisterRig Rig;
  TxId T0 = Rig.addThread("tx { v := mem.read(0) }");
  TxId T1 = Rig.addThread("tx { mem.write(0, 1) }");
  ASSERT_TRUE(Rig.M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T0, 0).Applied);
  ASSERT_TRUE(Rig.M.app(T1, 0, 0).Applied);
  RuleResult R;
  uint64_t N = secondAttemptAllocations([&] { return Rig.M.push(T1, 0); }, R);
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "PUSH criterion (ii)")) << R.toString();
  EXPECT_EQ(N, 0u);
}

TEST(RejectedAttempt, PullCriterionIIAllocatesNothing) {
  RegisterRig Rig;
  TxId T0 = Rig.addThread("tx { mem.write(0, 2); u := mem.read(0) }");
  TxId T1 = Rig.addThread("tx { v := mem.read(0); w := mem.read(0) }");
  ASSERT_TRUE(Rig.M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T0, 0).Applied);
  ASSERT_TRUE(Rig.M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T0, 1).Applied);
  ASSERT_TRUE(Rig.M.commit(T0).Applied);
  ASSERT_TRUE(Rig.M.app(T1, 0, 0).Applied);
  RuleResult R;
  uint64_t N = secondAttemptAllocations([&] { return Rig.M.pull(T1, 1); }, R);
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "PULL criterion (ii)")) << R.toString();
  EXPECT_EQ(N, 0u);
}

TEST(RejectedAttempt, CmtCriterionIAllocatesNothing) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  RuleResult R;
  uint64_t N = secondAttemptAllocations([&] { return Rig.M.commit(T); }, R);
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "CMT criterion (i)")) << R.toString();
  EXPECT_EQ(N, 0u);
}

TEST(RejectedAttempt, UnAppFlagCheckAllocatesNothing) {
  RegisterRig Rig;
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  ASSERT_TRUE(Rig.M.push(T, 0).Applied);
  RuleResult R;
  uint64_t N = secondAttemptAllocations([&] { return Rig.M.unapp(T); }, R);
  EXPECT_FALSE(R.Applied);
  EXPECT_TRUE(failedOn(R, "UNAPP flag check")) << R.toString();
  EXPECT_EQ(N, 0u);
}

TEST(RejectedAttempt, ToStringPrintsEveryCriterion) {
  // With RecordAudit the passing reports are kept too, so the rendering of
  // an applied PUSH names all three criteria; a rejection names its
  // failing criterion with the detail text.
  RegisterRig Rig;
  MachineConfig Audit;
  Audit.RecordAudit = true;
  Rig.M.setConfig(Audit);
  TxId T = Rig.addThread("tx { mem.write(0, 1) }");
  ASSERT_TRUE(Rig.M.app(T, 0, 0).Applied);
  std::string Pushed = Rig.M.push(T, 0).toString();
  for (const char *Name :
       {"PUSH criterion (i)", "PUSH criterion (ii)", "PUSH criterion (iii)"})
    EXPECT_NE(Pushed.find(Name), std::string::npos) << Name << "\n" << Pushed;
  std::string Unapp = Rig.M.unapp(T).toString();
  EXPECT_NE(Unapp.find("UNAPP flag check: no -- last local entry is pshd, "
                       "not npshd"),
            std::string::npos)
      << Unapp;
}
