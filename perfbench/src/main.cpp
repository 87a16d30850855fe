//===- perfbench/src/main.cpp - Benchmark entry point ----------------------===//
//
//   perfbench --workload explore|fuzz|stress|audit --seed N --seconds S
//             --trace 0|1 [--root DIR]
//
// Prints one `build {...}` line recording how the library was compiled, then,
// as the last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  With --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones; every name is printed on every workload
// (0 where the workload does no work in that layer).
//
// Build guard: numbers from an unoptimized or sanitized build are refused
// (exit 3) — they would describe the instrumentation, not the library.
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include "sim/Scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE "OFF"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||    \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

#ifdef __OPTIMIZE__
#define PERFBENCH_OPTIMIZED 1
#else
#define PERFBENCH_OPTIMIZED 0
#endif

using namespace perfbench;

namespace {

struct MetricDef {
  std::string Name;
  std::string Unit;
};

const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s"},       {"peak_rss_mb", "MiB"},
      {"pass_s", "s"},        {"work_per_s", "1/s"},
      {"unit_ms_p50", "ms"},  {"unit_ms_p99", "ms"}};
  return Defs;
}

const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> Defs = [] {
    std::vector<MetricDef> D = {
        {"fail_frac", "ratio"},
        {"parse.ms", "ms"},
        {"explorer.configs", "count"},
        {"explorer.rule_apps", "count"},
        {"explorer.rejected", "count"},
        {"explorer.accept_ratio", "ratio"},
        {"explorer.pruned", "count"},
        {"explorer.symmetry_hits", "count"},
        {"explorer.configs_per_s", "1/s"},
        {"machine.configkey_ns", "ns"},
        {"machine.copies_per_config", "count"},
        {"cow.snapshot_bytes_per_config", "B"},
        {"cow.deep_copies_per_config", "count"},
        {"arena.bytes", "B"},
        {"spec.transition_hit_rate", "ratio"},
        {"spec.states", "count"},
        {"spec.sets", "count"},
        {"spec.successor_calls", "count"},
        {"spec.successor_ns", "ns"},
        {"mover.memo_hit_rate", "ratio"},
        {"mover.semantic_calls", "count"},
        {"mover.hint_calls", "count"},
        {"mover.reachable_sets", "count"},
        {"precongruence.pairs", "count"},
        {"commut.hits", "count"},
        {"commut.misses", "count"},
        {"commut.query_ns", "ns"},
        {"commut.cert_checks", "count"},
        {"commut.db_build_ms", "ms"},
        {"oracle.calls", "count"},
        {"oracle.us_per_call", "us"},
        {"oracle.outcomes_per_call", "count"},
        {"opacity.us_per_case", "us"},
        {"invariants.rules_checked", "count"},
        {"invariants.us_per_rule", "us"},
        {"sched.steps_per_case", "count"},
        {"sched.blocked_frac", "ratio"},
        {"sched.inconclusive_frac", "ratio"},
        {"tm.commit_ratio", "ratio"},
        {"gen.us_per_case", "us"},
        {"arbiter.admit_ns", "ns"},
        {"ring.push_ns", "ns"},
        {"ring.spins_per_record", "count"},
        {"window.feed_ns", "ns"},
        {"window.check_us_mean", "us"},
        {"window.check_us_max", "us"},
        {"window.count", "count"},
        {"obligations.shapes", "count"},
        {"obligations.probes", "count"},
        {"obligations.us_per_probe", "us"},
        {"battery.convicted", "count"},
        {"independence.pairs", "count"},
        {"independence.ns_per_pair", "ns"},
        {"prove.pairs", "count"},
        {"trace.overhead_frac", "ratio"},
        {"trace.unattributed_frac", "ratio"},
    };
    for (const std::string &E : pushpull::allEngineNames()) {
      D.push_back({"tm." + E + ".step_ns", "ns"});
      D.push_back({"tm." + E + ".commits_per_s", "1/s"});
    }
    for (const char *L : layerNames())
      D.push_back({std::string("self_frac.") + L, "ratio"});
    return D;
  }();
  return Defs;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

void usage() {
  std::fprintf(stderr, "usage: perfbench --workload explore|fuzz|stress|audit "
                       "--seed N --seconds S --trace 0|1 [--root DIR]\n"
                       "       perfbench --list-metrics\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--list-metrics") {
      for (const MetricDef &M : endToEndMetrics())
        std::printf("end_to_end %s %s\n", M.Name.c_str(), M.Unit.c_str());
      for (const MetricDef &M : perLayerMetrics())
        std::printf("per_layer %s %s\n", M.Name.c_str(), M.Unit.c_str());
      return 0;
    }
    if (I + 1 >= Argc) {
      usage();
      return 2;
    }
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      Opt.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      Opt.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (A == "--seconds") {
      Opt.Seconds = std::strtod(V.c_str(), &End);
    } else if (A == "--trace") {
      Opt.Trace = V == "1";
      if (V != "0" && V != "1") {
        usage();
        return 2;
      }
    } else if (A == "--root") {
      Opt.Root = V;
    } else {
      usage();
      return 2;
    }
    if (End && *End) {
      std::fprintf(stderr, "perfbench: bad number '%s' for %s\n", V.c_str(),
                   A.c_str());
      return 2;
    }
  }
  if (!HaveWorkload || !(Opt.Seconds > 0)) {
    usage();
    return 2;
  }

  std::printf("build {\"build_type\": %s, \"sanitize\": %s, \"optimized\": "
              "%s, \"sanitized\": %s}\n",
              jsonString(PERFBENCH_BUILD_TYPE).c_str(),
              jsonString(PERFBENCH_SANITIZE).c_str(),
              PERFBENCH_OPTIMIZED ? "true" : "false",
              PERFBENCH_SANITIZED ? "true" : "false");
  std::string Sanitize = PERFBENCH_SANITIZE;
  if (!PERFBENCH_OPTIMIZED || PERFBENCH_SANITIZED ||
      !(Sanitize.empty() || Sanitize == "OFF")) {
    std::fprintf(stderr, "perfbench: refusing to measure an unoptimized or "
                         "sanitized build\n");
    return 3;
  }

  Result R;
  if (Opt.Workload == "explore")
    R = runExplore(Opt);
  else if (Opt.Workload == "fuzz")
    R = runFuzz(Opt);
  else if (Opt.Workload == "stress")
    R = runStress(Opt);
  else if (Opt.Workload == "audit")
    R = runAudit(Opt);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 Opt.Workload.c_str());
    return 2;
  }

  for (const std::string &F : R.Failures)
    std::fprintf(stderr, "perfbench: FAILED %s\n", F.c_str());

  std::vector<std::pair<MetricDef, double>> Out;
  if (!Opt.Trace) {
    std::vector<double> Passes = fastestPasses(R);
    std::vector<double> Kinds = fastestUnits(R);
    std::map<std::string, double> E2E = {
        {"setup_s", median(R.SetupS)},
        {"peak_rss_mb", R.PeakRssMiB},
        {"pass_s", mean(Passes)},
        {"work_per_s", ratio(mean(R.PassWork), mean(Passes))},
        {"unit_ms_p50", percentile(Kinds, 50)},
        {"unit_ms_p99", percentile(Kinds, 99)}};
    std::fprintf(stderr,
                 "perfbench: %s: %zu set-ups, %zu passes, %zu units\n",
                 Opt.Workload.c_str(), R.SetupS.size(), R.PassS.size(),
                 R.UnitMs.size());
    for (const MetricDef &M : endToEndMetrics())
      Out.push_back({M, E2E[M.Name]});
  } else {
    R.Layer["fail_frac"] =
        ratio(static_cast<double>(R.Failed), static_cast<double>(R.Attempted));
    for (const MetricDef &M : perLayerMetrics()) {
      auto It = R.Layer.find(M.Name);
      Out.push_back({M, It == R.Layer.end() ? 0.0 : It->second});
    }
    for (const auto &[Name, V] : R.Layer)
      if (std::none_of(Out.begin(), Out.end(),
                       [&](const auto &P) { return P.first.Name == Name; }))
        std::fprintf(stderr, "perfbench: undeclared metric %s\n",
                     Name.c_str());
  }

  std::string Json = "{\"correct\": ";
  Json += (R.Failed == 0 && R.Attempted > 0) ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < Out.size(); ++I) {
    if (I)
      Json += ", ";
    Json += jsonString(Out[I].first.Name) + ": {\"value\": " +
            jsonNumber(Out[I].second) +
            ", \"unit\": " + jsonString(Out[I].first.Unit) + "}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
