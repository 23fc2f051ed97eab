// perfbench: the search benchmark of libcalculon.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--rev <git rev>]
//
// Untraced (--trace 0): sets the workload up 15 times (setup_s is the
// median), then cycles its query list in reshuffled passes until the next
// pass would overrun --seconds (at least two passes); a query's time is its
// median over the passes. Prints the end-to-end metrics.
//
// Traced (--trace 1): records the benchmark's own spans around the calls it
// makes, measures the tracing overhead on a stratified subset of the
// queries, reconciles per-layer self-time with query time, and runs the
// layer probes. Writes a Chrome trace and a per-layer JSON to
// .bench_build/perfbench-out and prints the per-layer metrics.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "bench.h"
#include "common.h"
#include "json/json.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 40;
  bool trace = false;
  std::string rev = "unknown";
};

constexpr const char* kOutDir = ".bench_build/perfbench-out";

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--rev") {
      a.rev = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

calculon::json::Value Fingerprint(const Args& a, unsigned threads) {
  calculon::json::Value f;
  f["nproc"] = static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN));
  f["cpu"] = CpuModel();
  f["compiler"] = PERFBENCH_COMPILER;
  f["build_type"] = PERFBENCH_BUILD_TYPE;
  f["git_rev"] = a.rev;
  // Queries of exec_supervised run in worker processes, the others on
  // threads of this process.
  const bool supervised = a.workload == "exec_supervised";
  f["threads"] = static_cast<std::int64_t>(supervised ? 0 : threads);
  f["workers"] = static_cast<std::int64_t>(supervised ? threads : 0);
  f["workload"] = a.workload;
  f["seed"] = static_cast<std::int64_t>(a.seed);
  f["seconds"] = a.seconds;
  f["trace"] = a.trace;
  return f;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Fail(const Workload& w, std::size_t i, const std::string& why) {
    ++failed;
    std::fprintf(stderr, "FAILED %s: %s\n", w.Label(i).c_str(), why.c_str());
  }
};

// Runs query i, checks it, and returns its time (NaN on failure). Adds the
// time the checks took to `check_s`.
double RunChecked(Workload& w, std::size_t i, bool deep, Tally& tally,
                  double* check_s = nullptr) {
  ++tally.attempted;
  std::string why;
  double dt = std::numeric_limits<double>::quiet_NaN();
  try {
    dt = w.Run(i);
    const double c0 = NowS();
    why = w.Check(i, deep);
    if (check_s != nullptr) *check_s += NowS() - c0;
  } catch (const std::exception& e) {
    why = std::string("threw: ") + e.what();
  }
  if (!why.empty()) {
    tally.Fail(w, i, why);
    return std::numeric_limits<double>::quiet_NaN();
  }
  return dt;
}

// Sets a fresh workload up 15 times and keeps the last; `setup_s` gets the
// median. Each previous instance (and its pool) is destroyed outside the
// timed region.
std::unique_ptr<Workload> TimedSetup(const std::string& name, std::uint64_t seed,
                                     double& setup_s) {
  const SpecTexts texts = MakeSpecTexts(seed);
  std::unique_ptr<Workload> w;
  std::vector<double> s;
  for (int r = 0; r < 15; ++r) {
    std::unique_ptr<Workload> fresh = MakeWorkload(name);
    const double t0 = NowS();
    fresh->Setup(texts, seed);
    s.push_back(NowS() - t0);
    w = std::move(fresh);
  }
  setup_s = Median(s);
  return w;
}

void Metric(calculon::json::Value& metrics, const std::string& name, double value,
            const char* unit) {
  calculon::json::Value m;
  // JSON has no NaN or infinity; a non-finite value is written as null and
  // makes the run incorrect.
  m["value"] = std::isfinite(value) ? calculon::json::Value(value) : calculon::json::Value();
  m["unit"] = unit;
  metrics[name] = m;
  std::printf("  %-44s %14.6g %s\n", name.c_str(), value, unit);
}

void RunUntraced(Workload& w, double setup_s, const Args& a, calculon::json::Value& metrics,
                 Tally& tally) {
  const std::size_t n = w.size();
  std::vector<std::vector<double>> samples(n);  // per query, one per pass
  Rng rng(a.seed ^ 0x0bdeULL);
  // Passes continue while the time spent running queries (the checks
  // excluded) leaves room for one more pass.
  const double start = NowS();
  double check_s = 0.0;
  int passes = 0;
  while (true) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    rng.Shuffle(order);
    const double p0 = NowS();
    const double checks_before = check_s;
    std::vector<char> ok(n, 0);
    for (std::size_t i : order) {
      const double dt = RunChecked(w, i, passes == 0, tally, &check_s);
      if (!std::isnan(dt)) {
        ok[i] = 1;
        samples[i].push_back(dt);
      }
    }
    for (const auto& [i, why] : w.CheckPass()) {
      if (ok[i]) tally.Fail(w, i, why);
    }
    ++passes;
    const double pass_s = NowS() - p0 - (check_s - checks_before);
    std::fprintf(stderr, "pass %d: %.2f s (+%.2f s checks)\n", passes, pass_s,
                 check_s - checks_before);
    const double spent = NowS() - start - check_s;
    if (passes >= 2 && spent + pass_s > a.seconds) break;
  }
  std::vector<double> times;
  double time_sum = 0.0;
  double candidates = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (samples[i].empty()) continue;
    // The median over passes: the host's speed moves in phases of seconds
    // to tens of seconds, and a per-query minimum follows whichever fast
    // phase a run happens to catch.
    const double t = Median(samples[i]);
    times.push_back(t);
    time_sum += t;
    candidates += w.Candidates(i);
  }
  std::printf("workload %s: %zu queries x %d passes, %zu timed\n", w.name().c_str(), n,
              passes, times.size());
  Metric(metrics, "setup_s", setup_s, "s");
  Metric(metrics, "query_p50_ms", Quantile(times, 0.5) * 1e3, "ms");
  Metric(metrics, "query_p90_ms", Quantile(times, 0.9) * 1e3, "ms");
  Metric(metrics, "candidates_per_thread_s", candidates / (time_sum * w.Threads()), "1/s");
  Metric(metrics, "peak_rss_mb", PeakRssMiB(), "MiB");
}

// Units of the per-layer metrics, by name prefix or suffix.
const char* LayerUnit(const std::string& name) {
  auto ends = [&](const char* s) {
    const std::string suf(s);
    return name.size() >= suf.size() && name.compare(name.size() - suf.size(), suf.size(), suf) == 0;
  };
  if (ends("_ns")) return "ns";
  if (ends("_us")) return "us";
  if (ends("_ms") || ends("_ms_p50") || ends("_ms_max")) return "ms";
  if (ends("_pct")) return "%";
  if (ends("_bytes")) return "bytes";
  if (ends("_ratio") || ends("_ratio_min") || ends("_skew") || ends("_per_candidate")) {
    return "ratio";
  }
  return "count";
}

void RunTraced(Workload& w, double setup_s, const Args& a, calculon::json::Value& metrics,
               Tally& tally) {
  const SpecTexts texts = MakeSpecTexts(a.seed);
  // A stratified subset: every 6th query of the (class-ordered) list.
  std::vector<std::size_t> subset;
  for (std::size_t i = 0; i < w.size(); i += 6) subset.push_back(i);

  // Tracing overhead: each subset query untraced and traced, alternated
  // (which goes first alternates too), fastest of four each.
  Tracer& tracer = Tracer::Get();
  double untraced = 0.0;
  double traced = 0.0;
  for (std::size_t i : subset) {
    double best_u = 1e300;
    double best_t = 1e300;
    for (int r = 0; r < 4; ++r) {
      for (int traced_turn = 0; traced_turn < 2; ++traced_turn) {
        const bool on = (traced_turn + r) % 2 == 1;
        tracer.Enable(on);
        double t = 0.0;
        {
          ScopedSpan span("query");
          t = RunChecked(w, i, r == 0 && traced_turn == 0, tally);
        }
        if (std::isnan(t)) continue;
        (on ? best_t : best_u) = std::min(on ? best_t : best_u, t);
      }
    }
    untraced += best_u;
    traced += best_t;
  }
  // Reconciliation: the query decomposed into separately timed public calls
  // of the layers below it, against the query's own time.
  double decomposed = 0.0;
  double queried = 0.0;
  for (std::size_t i : subset) {
    {
      ScopedSpan span("query");
      queried += RunChecked(w, i, false, tally);
    }
    ScopedSpan span("query.decomposed");
    decomposed += w.Decompose(i);
  }
  tracer.Enable(false);

  std::map<std::string, double> layer;
  CommonLayerMetrics(texts, w.ProbeSearches(), a.seed, layer);
  for (const std::string& name : WorkloadNames()) {
    if (name == w.name()) {
      w.LayerMetrics(layer, a.seed);
      continue;
    }
    std::unique_ptr<Workload> other = MakeWorkload(name);
    other->Setup(texts, a.seed);
    other->LayerMetrics(layer, a.seed);
  }
  layer["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0;
  const double reconcile_pct = (decomposed / queried - 1.0) * 100.0;
  layer["trace.reconcile_gap_pct"] = std::abs(reconcile_pct);

  std::printf("workload %s (traced): %zu of %zu queries, setup %.4f s\n", w.name().c_str(),
              subset.size(), w.size(), setup_s);
  std::printf("tracing overhead: %+.2f%% (%.4f s traced vs %.4f s untraced)\n",
              layer["trace.overhead_pct"], traced, untraced);
  std::printf("per-layer self-time vs query time: %+.2f%% (%.4f s vs %.4f s)\n",
              reconcile_pct, decomposed, queried);
  std::printf("span self-times:\n");
  calculon::json::Value self;
  for (const auto& [name, st] : tracer.SelfTimes()) {
    std::printf("  %-44s %10.4f s  %6d spans\n", name.c_str(), st.first, st.second);
    calculon::json::Value v;
    v["self_s"] = st.first;
    v["spans"] = static_cast<std::int64_t>(st.second);
    self[name] = v;
  }
  std::printf("per-layer metrics:\n");
  for (const auto& [name, value] : layer) Metric(metrics, name, value, LayerUnit(name));

  std::filesystem::create_directories(kOutDir);
  const std::string stem = std::string(kOutDir) + "/" + w.name() + "-" + std::to_string(a.seed);
  tracer.WriteChromeTrace(stem + ".trace.json");
  calculon::json::Value doc;
  doc["fingerprint"] = Fingerprint(a, w.Threads());
  doc["span_self_times"] = self;
  doc["metrics"] = metrics;
  calculon::json::WriteFile(stem + ".layers.json", doc);
  std::printf("wrote %s.trace.json and %s.layers.json\n", stem.c_str(), stem.c_str());
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--rev <rev>]\n");
    return 2;
  }
  if (MakeWorkload(a.workload) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  double setup_s = 0.0;
  std::unique_ptr<Workload> w = TimedSetup(a.workload, a.seed, setup_s);
  std::printf("fingerprint %s\n", Fingerprint(a, w->Threads()).Dump().c_str());
  calculon::json::Value metrics = calculon::json::Object{};
  Tally tally;
  if (a.trace) {
    RunTraced(*w, setup_s, a, metrics, tally);
  } else {
    RunUntraced(*w, setup_s, a, metrics, tally);
  }
  bool finite = true;
  for (const auto& [name, m] : metrics.AsObject()) finite = finite && m.at("value").is_number();
  std::printf("queries attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  calculon::json::Value result;
  result["correct"] = tally.failed == 0 && finite;
  result["attempted"] = static_cast<std::int64_t>(tally.attempted);
  result["failed"] = static_cast<std::int64_t>(tally.failed);
  result["metrics"] = metrics;
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
