//===- perfbench/src/harness.cpp - Shared workload plumbing ----------------===//

#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

double peakRssMiB() {
  struct rusage RU {};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

} // namespace

void Result::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Failures.size() < 20)
    Failures.push_back(What);
}

void Result::addPass(double Seconds, double Work, size_t Kind) {
  PassS.push_back(Seconds);
  PassWork.push_back(Work);
  PassKind.push_back(Kind);
  if (PassS.size() == 1)
    PeakRssMiB = peakRssMiB();
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return ratio(Sum, static_cast<double>(V.size()));
}

namespace {

template <typename Key> struct Fastest {
  std::map<Key, double> Min;
  void add(const Key &K, double V) {
    auto [It, New] = Min.try_emplace(K, V);
    if (!New)
      It->second = std::min(It->second, V);
  }
  std::vector<double> values() const {
    std::vector<double> Out;
    for (const auto &KV : Min)
      Out.push_back(KV.second);
    return Out;
  }
};

} // namespace

std::vector<double> fastestPasses(const Result &R) {
  Fastest<size_t> F;
  for (size_t P = 0; P < R.PassS.size(); ++P)
    F.add(R.PassKind[P], R.PassS[P]);
  return F.values();
}

std::vector<double> fastestUnits(const Result &R) {
  if (R.PassS.empty())
    return {};
  size_t PerPass = R.UnitMs.size() / R.PassS.size();
  Fastest<std::pair<size_t, size_t>> F;
  for (size_t I = 0; I < PerPass * R.PassS.size(); ++I)
    F.add({R.PassKind[I / PerPass], I % PerPass}, R.UnitMs[I]);
  return F.values();
}

void nextCpu() {
  static std::vector<int> Cpus = [] {
    std::vector<int> C;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int I = 0; I < CPU_SETSIZE; ++I)
        if (CPU_ISSET(I, &Set))
          C.push_back(I);
    return C;
  }();
  static size_t Next = 0;
  if (Cpus.size() < 2)
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[Next++ % Cpus.size()], &One);
  sched_setaffinity(0, sizeof(One), &One);
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P / 100.0 * static_cast<double>(V.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

double usPerCall(const SiteTotals &T, Site S) {
  return ratio(static_cast<double>(T.inclNs(S)) * 1e-3,
               static_cast<double>(T.calls(S)));
}

void addTraceMetrics(Result &R, const SiteTotals &T,
                     const std::vector<double> &Untraced,
                     const std::vector<double> &Traced) {
  double Total = static_cast<double>(T.inclNs(Site::Root));
  std::vector<double> LayerNs(layerNames().size(), 0.0);
  for (size_t I = 0; I < NumSites; ++I) {
    int L = layerOf(static_cast<Site>(I));
    if (L >= 0)
      LayerNs[static_cast<size_t>(L)] += static_cast<double>(T.SelfNs[I]);
  }
  for (size_t L = 0; L < LayerNs.size(); ++L)
    R.Layer[std::string("self_frac.") + layerNames()[L]] =
        ratio(LayerNs[L], Total);
  R.Layer["trace.unattributed_frac"] =
      ratio(static_cast<double>(T.selfNs(Site::Root)), Total);
  // Pass k of both halves does the same work, so compare the passes both
  // halves completed.
  size_t N = std::min(Untraced.size(), Traced.size());
  double U = 0, Tr = 0;
  for (size_t I = 0; I < N; ++I)
    U += Untraced[I], Tr += Traced[I];
  R.Layer["trace.overhead_frac"] = U > 0 ? Tr / U - 1.0 : 0.0;
}

} // namespace perfbench
