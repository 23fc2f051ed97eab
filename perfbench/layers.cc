// Per-layer probes shared by every workload: spec load (json/models), the
// model (core), the hardware curves (hw), search internals (search) and the
// metrics-registry overhead (obs). Each times a public call from outside.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench.h"
#include "common.h"
#include "core/block.h"
#include "core/perf_model.h"
#include "hw/presets.h"
#include "models/presets.h"
#include "obs/metrics.h"
#include "search/pareto.h"

namespace perfbench {

using calculon::Execution;
using calculon::Infeasible;
using calculon::Result;
using calculon::Stats;

namespace {

double g_sink = 0.0;  // keeps timed results observable

// Fastest of `rounds` timings of `fn`, in seconds.
template <typename Fn>
double Fastest(int rounds, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < rounds; ++r) {
    const double t0 = NowS();
    fn();
    best = std::min(best, NowS() - t0);
  }
  return best;
}

struct Candidate {
  const ExecQuery* q;
  Execution exec;
};

bool IsDivisibility(Infeasible r) {
  return r == Infeasible::kIndivisibleBatch || r == Infeasible::kIndivisibleHeads ||
         r == Infeasible::kIndivisibleBlocks;
}

// ns per CalculatePerformance over `cands`, fastest of five sweeps.
double EvalNs(const std::vector<Candidate>& cands) {
  if (cands.empty()) return 0.0;
  const double s = Fastest(5, [&] {
    for (const Candidate& c : cands) {
      const Result<Stats> r = calculon::CalculatePerformance(c.q->app, c.exec, c.q->sys);
      g_sink += r.ok() ? r.value().sample_rate.raw() : 1.0;
    }
  });
  return s * 1e9 / static_cast<double>(cands.size());
}

// Heap allocations per CalculatePerformance, averaged over every candidate
// of one fixed space (Megatron-22B on 8 preset A100s, batch 8, the full
// Table 1 space), per outcome. The space does not depend on the seed or the
// workload, so the counts repeat exactly; the histograms go to stderr.
void AllocsPerEval(std::map<std::string, double>& out) {
  ExecQuery q;
  q.app = calculon::presets::ApplicationByName("megatron_22b");
  q.sys = calculon::presets::SystemByName("a100_80g").WithNumProcs(8);
  q.space = calculon::SearchSpace::AllOptimizations();
  q.config.batch_size = 8;
  Rng rng(0);
  std::map<std::string, std::map<std::uint64_t, double>> histograms;
  for (const Execution& e :
       SampleCandidates(q, rng, std::numeric_limits<std::size_t>::max())) {
    const std::uint64_t before = ThreadAllocations();
    const Result<Stats> r = calculon::CalculatePerformance(q.app, e, q.sys);
    const std::uint64_t allocs = ThreadAllocations() - before;
    const char* kind = r.ok() ? "feasible"
                       : r.reason() == Infeasible::kMemoryCapacity ? "rejected"
                       : IsDivisibility(r.reason())               ? "reject_divisibility"
                                                                  : "other";
    histograms[kind][allocs] += 1.0;
  }
  for (const auto& [kind, histogram] : histograms) {
    double n = 0.0;
    double sum = 0.0;
    std::fprintf(stderr, "allocations per evaluation, %s:", kind.c_str());
    for (const auto& [allocs, count] : histogram) {
      n += count;
      sum += count * static_cast<double>(allocs);
      std::fprintf(stderr, " %llu x%.0f", static_cast<unsigned long long>(allocs), count);
    }
    std::fprintf(stderr, "\n");
    if (kind != "other") out["core.allocs_per_eval_" + kind] = sum / n;
  }
}

}  // namespace

double DecomposeSearch(const ExecQuery& q, unsigned parallelism) {
  double total = 0.0;
  double t0 = NowS();
  std::vector<calculon::Triple> triples;
  {
    ScopedSpan span("search.SearchTriples");
    triples = calculon::SearchTriples(q.app, q.sys, q.space, q.config);
  }
  total += NowS() - t0;
  std::vector<calculon::SearchEntry> best;
  for (std::uint64_t i = 0; i < triples.size(); ++i) {
    t0 = NowS();
    calculon::TripleSweep sweep;
    {
      ScopedSpan span("search.SweepTriple");
      sweep = calculon::SweepTriple(q.app, q.sys, q.space, q.config, i);
    }
    {
      ScopedSpan span("search.InsertTopK");
      for (calculon::SearchEntry& e : sweep.best) {
        calculon::InsertTopK(best, q.config.top_k, std::move(e.exec), std::move(e.stats));
      }
    }
    total += NowS() - t0;
  }
  return total / parallelism;
}

void CommonLayerMetrics(const SpecTexts& texts, const std::vector<ExecQuery>& probe,
                        std::uint64_t seed, std::map<std::string, double>& out) {
  Rng rng(seed ^ 0x1a7e5ULL);

  // json + models: parse and FromJson, per spec document.
  {
    const double docs = static_cast<double>(texts.apps.size() + texts.systems.size());
    std::vector<double> us;
    for (int r = 0; r < 15; ++r) {
      const double t0 = NowS();
      const Specs s = LoadSpecs(texts);
      us.push_back((NowS() - t0) * 1e6 / docs);
      g_sink += static_cast<double>(s.apps.size());
    }
    out["spec.load_us"] = Median(us);
  }

  // core: a seeded sample of candidates, split by outcome.
  std::vector<Candidate> feasible;
  std::vector<Candidate> memory;
  std::vector<Candidate> divisibility;
  std::vector<calculon::SearchEntry> entries;
  for (const ExecQuery& q : probe) {
    for (Execution& e : SampleCandidates(q, rng, 60)) {
      const Result<Stats> r = calculon::CalculatePerformance(q.app, e, q.sys);
      if (r.ok()) {
        entries.push_back({e, r.value()});
        feasible.push_back({&q, std::move(e)});
      } else if (r.reason() == Infeasible::kMemoryCapacity) {
        memory.push_back({&q, std::move(e)});
      } else if (IsDivisibility(r.reason())) {
        divisibility.push_back({&q, std::move(e)});
      }
    }
  }
  out["core.eval_feasible_ns"] = EvalNs(feasible);
  out["core.eval_reject_memory_ns"] = EvalNs(memory);
  out["core.eval_reject_divisibility_ns"] = EvalNs(divisibility);
  AllocsPerEval(out);
  out["core.block_build_ns"] =
      feasible.empty() ? 0.0
                       : Fastest(5, [&] {
                           for (const Candidate& c : feasible) {
                             const calculon::BlockModel b = calculon::BuildBlock(c.q->app, c.exec);
                             g_sink += static_cast<double>(b.layers.size());
                           }
                         }) * 1e9 / static_cast<double>(feasible.size());

  // hw: operation times and efficiency lookups at seeded sizes spread
  // log-uniformly over 1 MFLOP .. 1 PFLOP and 1 KB .. 100 GB.
  {
    const calculon::Processor& proc = probe.front().sys.proc();
    std::vector<std::pair<calculon::Flops, calculon::Bytes>> ops;
    for (int k = 0; k < 4000; ++k) {
      ops.emplace_back(calculon::Flops(std::pow(10.0, rng.Uniform(6.0, 15.0))),
                       calculon::Bytes(std::pow(10.0, rng.Uniform(3.0, 11.0))));
    }
    const double n = static_cast<double>(ops.size());
    out["hw.op_time_ns"] = Fastest(5, [&] {
                             for (const auto& [f, b] : ops) {
                               g_sink += proc.OpTime(calculon::ComputeKind::kMatrix, f, b).raw();
                             }
                           }) * 1e9 / n;
    out["hw.efficiency_at_ns"] = Fastest(5, [&] {
                                   for (const auto& [f, b] : ops) {
                                     g_sink += proc.matrix.Efficiency(f);
                                   }
                                 }) * 1e9 / n;
  }

  // search: triple enumeration, per-triple sweeps, top-k and Pareto merges.
  std::vector<double> triples_us;
  std::vector<double> sweep_ms;
  std::vector<double> skew;
  double sweep_max = 0.0;
  for (const ExecQuery& q : probe) {
    std::vector<calculon::Triple> triples;
    triples_us.push_back(Fastest(3, [&] {
                           triples = calculon::SearchTriples(q.app, q.sys, q.space, q.config);
                         }) * 1e6);
    std::vector<double> ms;
    for (std::uint64_t i = 0; i < triples.size(); ++i) {
      const double t0 = NowS();
      const calculon::TripleSweep s = calculon::SweepTriple(q.app, q.sys, q.space, q.config, i);
      ms.push_back((NowS() - t0) * 1e3);
      g_sink += static_cast<double>(s.evaluated);
    }
    if (ms.empty()) continue;
    double sum = 0.0;
    for (double m : ms) sum += m;
    const double mx = *std::max_element(ms.begin(), ms.end());
    sweep_max = std::max(sweep_max, mx);
    skew.push_back(mx / (sum / static_cast<double>(ms.size())));
    sweep_ms.insert(sweep_ms.end(), ms.begin(), ms.end());
  }
  out["search.triples_us"] = Median(triples_us);
  out["search.triple_sweep_ms_p50"] = Median(sweep_ms);
  out["search.triple_sweep_ms_max"] = sweep_max;
  out["search.triple_skew"] = Median(skew);

  if (!entries.empty()) {
    rng.Shuffle(entries);
    const double n = static_cast<double>(entries.size());
    out["search.topk_insert_ns"] = Fastest(5, [&] {
                                     std::vector<calculon::SearchEntry> best;
                                     for (const calculon::SearchEntry& e : entries) {
                                       calculon::InsertTopK(best, 10, e.exec, e.stats);
                                     }
                                     g_sink += static_cast<double>(best.size());
                                   }) * 1e9 / n;
    out["search.pareto_us"] = Fastest(5, [&] {
                                g_sink += static_cast<double>(
                                    calculon::ExtractParetoFront(entries).size());
                              }) * 1e6;
  }

  // Counts from the program's own metrics registry, and the time the
  // registry costs: each probe search with metrics off and on, alternated,
  // fastest of three each.
  auto& metrics = calculon::obs::MetricsRegistry::Global();
  calculon::ThreadPool pool(kThreads);
  double off_s = 0.0;
  double on_s = 0.0;
  double candidates = 0.0;
  metrics.Reset();
  for (const ExecQuery& q : probe) {
    double best_off = 1e300;
    double best_on = 1e300;
    for (int r = 0; r < 3; ++r) {
      metrics.Disable();
      double t0 = NowS();
      (void)calculon::FindOptimalExecution(q.app, q.sys, q.space, q.config, pool);
      best_off = std::min(best_off, NowS() - t0);
      metrics.Enable();
      t0 = NowS();
      (void)calculon::FindOptimalExecution(q.app, q.sys, q.space, q.config, pool);
      best_on = std::min(best_on, NowS() - t0);
    }
    off_s += best_off;
    on_s += best_on;
    candidates += q.candidates;
  }
  metrics.Disable();
  out["obs.metrics_on_overhead_pct"] = (on_s / off_s - 1.0) * 100.0;
  const calculon::obs::MetricsSnapshot snap = metrics.Snapshot();
  metrics.Reset();
  auto counter = [&](const std::string& name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second) / 3.0;
  };
  const double evaluated = counter("exec_search.evaluated");
  const double feasible_n = counter("exec_search.feasible");
  out["search.evaluated"] = evaluated;
  out["search.feasible"] = feasible_n;
  out["search.useful_ratio"] = evaluated > 0 ? feasible_n / evaluated : 0.0;
  out["search.evals_per_candidate"] = evaluated / candidates;
  for (int r = static_cast<int>(Infeasible::kBadPartition);
       r <= static_cast<int>(Infeasible::kBadConfig); ++r) {
    const std::string segment =
        calculon::obs::MetricNameSegment(calculon::ToString(static_cast<Infeasible>(r)));
    out["search.rejected." + segment] = counter("exec_search.rejected." + segment);
  }
}

}  // namespace perfbench
