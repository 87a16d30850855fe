//===- bench/bench_mover.cpp - E8: Definitions 3.1 / 4.1 costs -----------------===//
//
// Experiment E8: the machinery everything else stands on.  Measures the
// executable coinduction: precongruence pair-graph sizes vs state-space
// size, the algebraic-hint vs semantic-decision ablation (the cost the
// abstract-lock/commutativity reasoning of boosting saves), and the
// composite-spec growth the Section 7 mixture pays.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Machine.h"
#include "core/Mover.h"
#include "core/Precongruence.h"
#include "spec/CompositeSpec.h"
#include "spec/CounterSpec.h"
#include "spec/MapSpec.h"
#include "spec/RegisterSpec.h"
#include "spec/SetSpec.h"

#include <benchmark/benchmark.h>

#include <memory>

using namespace pushpull;
using namespace pushpull::benchutil;

namespace {

Operation mk(const std::string &Obj, const std::string &Mth,
             std::vector<Value> Args, std::optional<Value> R) {
  Operation O;
  O.Call = {Obj, Mth, std::move(Args)};
  O.Result = R;
  O.Id = 1;
  return O;
}

void qualitative() {
  banner("E8 (Definitions 3.1/4.1)", "cost of the executable coinduction");

  section("reachable denotations & probe alphabet vs spec size");
  std::printf("%24s %12s %14s %10s\n", "spec", "probe-ops",
              "reachable-sets", "exact?");
  std::vector<std::shared_ptr<SequentialSpec>> Specs;
  Specs.push_back(std::make_shared<RegisterSpec>("mem", 1, 2));
  Specs.push_back(std::make_shared<RegisterSpec>("mem", 2, 3));
  Specs.push_back(std::make_shared<SetSpec>("set", 4));
  Specs.push_back(std::make_shared<SetSpec>("set", 8));
  Specs.push_back(std::make_shared<MapSpec>("map", 3, 3));
  Specs.push_back(std::make_shared<CounterSpec>("c", 2, 4));
  {
    auto Comp = std::make_shared<CompositeSpec>();
    Comp->add("s", std::make_shared<SetSpec>("s", 2));
    Comp->add("c", std::make_shared<CounterSpec>("c", 1, 4));
    Specs.push_back(Comp);
  }
  for (const auto &S : Specs) {
    MoverChecker Movers(*S);
    const ReachableFamily &F = Movers.family();
    std::printf("%24s %12zu %14zu %10s\n", S->name().c_str(),
                S->probeOps().size(), F.Sets.size(), yesNo(F.Exact));
  }
  std::printf("shape: composite state spaces multiply — the cost the\n"
              "paper's uniform treatment of mixed systems pays.\n");

  section("hint vs semantic decision (same-key map puts)");
  {
    MapSpec Spec("map", 4, 3);
    Operation A = mk("map", "put", {0, 1}, MapSpec::Absent);
    Operation B = mk("map", "put", {0, 2}, 1);
    MoverChecker WithHints(Spec);
    Tri H = WithHints.leftMover(A, B);
    Tri Sem = WithHints.leftMoverSemantic(A, B);
    std::printf("leftMover(put0a, put0b): hint=%s semantic=%s agree=%s\n",
                toString(H).c_str(), toString(Sem).c_str(),
                yesNo(H == Sem));
    std::printf("semantic path explored %zu reachable sets and %llu "
                "precongruence pairs\n",
                WithHints.family().Sets.size(),
                (unsigned long long)WithHints.precongruence().pairsVisited());
  }

  section("precongruence pair-graph effort vs register-bank size");
  std::printf("%10s %10s %16s\n", "regs", "vals", "pairs-visited");
  for (auto [R, V] : {std::pair<unsigned, unsigned>{1, 2}, {2, 2}, {2, 3}}) {
    RegisterSpec Spec("mem", R, V);
    PrecongruenceChecker Pre(Spec);
    // A genuinely-distinct pair: write(0,1) vs empty.
    Operation W = mk("mem", "write", {0, 1}, 1);
    Pre.checkLogs({W}, {});
    std::printf("%10u %10u %16llu\n", R, V,
                (unsigned long long)Pre.pairsVisited());
  }
}

void BM_LeftMoverHinted(benchmark::State &State) {
  MapSpec Spec("map", 64, 4);
  MoverChecker Movers(Spec);
  Operation A = mk("map", "put", {1, 1}, MapSpec::Absent);
  Operation B = mk("map", "put", {2, 1}, MapSpec::Absent);
  for (auto _ : State)
    benchmark::DoNotOptimize(Movers.leftMover(A, B));
}
BENCHMARK(BM_LeftMoverHinted);

void BM_LeftMoverSemanticMemoized(benchmark::State &State) {
  MapSpec Spec("map", 2, 2);
  MoverChecker Movers(Spec);
  Operation A = mk("map", "put", {0, 1}, MapSpec::Absent);
  Operation B = mk("map", "put", {1, 1}, MapSpec::Absent);
  Movers.leftMoverSemantic(A, B); // Warm the memo.
  for (auto _ : State)
    benchmark::DoNotOptimize(Movers.leftMoverSemantic(A, B));
}
BENCHMARK(BM_LeftMoverSemanticMemoized);

void BM_LeftMoverSemanticCold(benchmark::State &State) {
  MapSpec Spec("map", 2, 2);
  Operation A = mk("map", "put", {0, 1}, MapSpec::Absent);
  Operation B = mk("map", "put", {1, 1}, MapSpec::Absent);
  for (auto _ : State) {
    MoverChecker Movers(Spec); // Fresh caches each time.
    benchmark::DoNotOptimize(Movers.leftMoverSemantic(A, B));
  }
}
BENCHMARK(BM_LeftMoverSemanticCold);

void BM_PrecongruenceDiagonal(benchmark::State &State) {
  // The subset shortcut: equal denotations answer without exploration.
  SetSpec Spec("set", 16);
  PrecongruenceChecker Pre(Spec);
  Operation A = mk("set", "add", {3}, 1);
  for (auto _ : State)
    benchmark::DoNotOptimize(Pre.checkLogs({A}, {A}));
}
BENCHMARK(BM_PrecongruenceDiagonal);

void BM_PrecongruenceRefutation(benchmark::State &State) {
  RegisterSpec Spec("mem", 2, 3);
  Operation W = mk("mem", "write", {0, 1}, 1);
  for (auto _ : State) {
    PrecongruenceChecker Pre(Spec); // Cold: measure the search.
    benchmark::DoNotOptimize(Pre.checkLogs({W}, {}));
  }
}
BENCHMARK(BM_PrecongruenceRefutation);

void BM_AllowedDenotation(benchmark::State &State) {
  size_t Len = static_cast<size_t>(State.range(0));
  SetSpec Spec("set", 8);
  std::vector<Operation> Log;
  for (size_t I = 0; I < Len; ++I) {
    // Adds cycling over the 8 keys: the first round inserts (result 1),
    // later rounds find the key present (result 0) — a long allowed log.
    Operation Op = mk("set", "add", {Value(I % 8)}, I < 8 ? 1 : 0);
    Op.Id = I + 1;
    Log.push_back(Op);
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(Spec.allowed(Log));
}
BENCHMARK(BM_AllowedDenotation)->Arg(8)->Arg(64)->Arg(512);


/// Ablation: the per-operation cost of criteria validation.  The same
/// boosted APP+PUSH sequence runs on a Trusting machine (structural
/// checks only) and a Criteria machine (full Figure 5 side-conditions).
void BM_ValidationOverhead(benchmark::State &State) {
  bool Validate = State.range(0) != 0;
  MapSpec Spec("map", 16, 4);
  MoverChecker Movers(Spec);
  MachineConfig MC;
  MC.Level = Validate ? ValidationLevel::Criteria : ValidationLevel::Trusting;
  for (auto _ : State) {
    PushPullMachine M(Spec, Movers, MC);
    TxId T = M.addThread({tx(seqAll({
        call("map", "put", {Value(0), Value(1)}, "a"),
        call("map", "put", {Value(1), Value(2)}, "b"),
        call("map", "get", {Value(0)}, "c"),
    }))});
    M.beginTx(T);
    for (int I = 0; I < 3; ++I) {
      M.app(T, 0, 0);
      M.push(T, M.thread(T).L.size() - 1);
    }
    M.commit(T);
  }
  State.SetLabel(Validate ? "criteria" : "trusting");
}
BENCHMARK(BM_ValidationOverhead)->Arg(0)->Arg(1);

} // namespace

int main(int argc, char **argv) {
  qualitative();
  std::printf("\n-- microbenchmarks --\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
