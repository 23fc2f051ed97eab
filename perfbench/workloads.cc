// The four workloads: stream generation, the timed call, and the output
// checks. See README.md for the make-up of each stream.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <type_traits>

#include <unistd.h>

#include "bench.h"
#include "common.h"
#include "core/perf_model.h"
#include "dist/drivers.h"
#include "hw/presets.h"
#include "json/json.h"
#include "models/presets.h"
#include "obs/metrics.h"
#include "runner/study.h"
#include "search/pricing.h"
#include "search/system_search.h"
#include "util/strings.h"

namespace perfbench {

using calculon::Application;
using calculon::Execution;
using calculon::Result;
using calculon::SearchConfig;
using calculon::SearchEntry;
using calculon::SearchResult;
using calculon::SearchSpace;
using calculon::Stats;
using calculon::System;

namespace {

const char* const kSystems[] = {"a100_80g", "h100_80g"};

// Scales every "bandwidth" number in a system spec by `factor`.
void ScaleBandwidths(calculon::json::Value& v, double factor) {
  if (v.is_object()) {
    for (auto& [key, child] : v.AsObject()) {
      if (key == "bandwidth" && child.is_number()) {
        child = calculon::json::Value(child.AsDouble() * factor);
      } else {
        ScaleBandwidths(child, factor);
      }
    }
  } else if (v.is_array()) {
    for (auto& child : v.AsArray()) ScaleBandwidths(child, factor);
  }
}

std::vector<std::int64_t> DivisorsOf(std::int64_t n) {
  std::vector<std::int64_t> out;
  for (std::int64_t i = 1; i <= n; ++i) {
    if (n % i == 0) out.push_back(i);
  }
  return out;
}

// Stats hold only doubles; compare their bits.
static_assert(std::is_trivially_copyable_v<Stats>);
static_assert(sizeof(Stats) == 28 * sizeof(double));
bool SameStats(const Stats& a, const Stats& b) {
  return std::memcmp(&a, &b, sizeof(Stats)) == 0;
}

bool SameExec(const Execution& a, const Execution& b) {
  return a.ToJson() == b.ToJson();
}

// Higher sample rate first, lower tier-1 memory on ties: the order the
// search documents for its top-k.
bool Ahead(const Stats& a, const Stats& b) {
  if (a.sample_rate != b.sample_rate) return a.sample_rate > b.sample_rate;
  return a.tier1.Total() < b.tier1.Total();
}

struct Point {
  double time, tier1, tier2;
  bool operator<(const Point& o) const {
    return std::tie(time, tier1, tier2) < std::tie(o.time, o.tier1, o.tier2);
  }
  bool operator==(const Point& o) const {
    return time == o.time && tier1 == o.tier1 && tier2 == o.tier2;
  }
};
Point PointOf(const Stats& s) {
  return {s.batch_time.raw(), s.tier1.Total().raw(), s.tier2.Total().raw()};
}
bool Dominates(const Point& a, const Point& b) {
  return a.time <= b.time && a.tier1 <= b.tier1 && a.tier2 <= b.tier2 &&
         !(a == b);
}

// Distinct non-dominated points of a set, sorted.
std::vector<Point> Front(std::vector<Point> pts) {
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  std::vector<Point> front;
  for (const Point& p : pts) {
    bool dominated = false;
    for (const Point& q : pts) {
      if (Dominates(q, p)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(p);
  }
  return front;
}

// Every candidate of the query's space, in the benchmark's own loop nest.
template <typename Fn>
void ForEachCandidate(const Application& app, const System& sys,
                      const SearchSpace& space, std::int64_t batch, Fn&& fn) {
  const std::int64_t n = sys.num_procs();
  const bool tier2 = sys.proc().mem2.present();
  for (std::int64_t t : DivisorsOf(n)) {
    for (std::int64_t p : DivisorsOf(n / t)) {
      const std::int64_t d = n / t / p;
      if (t < space.min_tensor_par || t > space.max_tensor_par) continue;
      if (p < space.min_pipeline_par || p > space.max_pipeline_par) continue;
      if (d < space.min_data_par || d > space.max_data_par) continue;
      if (app.attn_heads % t != 0 || p > app.num_blocks || batch % d != 0) {
        continue;
      }
      std::vector<std::int64_t> ils = {1};
      if (space.sweep_interleaving && p > 1) {
        ils = DivisorsOf((app.num_blocks + p - 1) / p);
      }
      const std::vector<SearchSpace::TpCommVariant> no_tp = {{}};
      const std::vector<calculon::TpOverlap> no_ov = {calculon::TpOverlap::kNone};
      const std::vector<bool> only_false = {false};
      const std::vector<bool> only_true = {true};
      const std::vector<SearchSpace::OffloadVariant> no_off = {{}};
      const auto& tpc = t > 1 ? space.tp_comm : no_tp;
      const auto& ovs = t > 1 ? space.tp_overlap : no_ov;
      const auto& dpo = d > 1 ? space.dp_overlap : only_false;
      const auto& shard = d > 1 ? space.optimizer_sharding : only_false;
      const auto& f1b = p > 1 ? space.pp_1f1b : only_true;
      const auto& pprs = (p > 1 && t > 1) ? space.pp_rs_ag : only_false;
      const auto& offs = tier2 ? space.offload : no_off;
      Execution e;
      e.num_procs = n;
      e.tensor_par = t;
      e.pipeline_par = p;
      e.data_par = d;
      e.batch_size = batch;
      for (std::int64_t m : DivisorsOf(batch / d)) {
        if (m > space.max_microbatch) continue;
        e.microbatch = m;
        for (std::int64_t il : ils) {
          e.pp_interleaving = il;
          for (auto rc : space.recompute) {
            e.recompute = rc;
            for (const auto& v : tpc) {
              e.tp_rs_ag = v.tp_rs_ag;
              e.seq_par = v.seq_par;
              e.seq_par_ag_redo = v.ag_redo;
              for (auto ov : ovs) {
                e.tp_overlap = ov;
                for (bool fused : space.fused_activation) {
                  e.fused_activation = fused;
                  for (bool a : dpo) {
                    e.dp_overlap = a;
                    for (bool s : shard) {
                      e.optimizer_sharding = s;
                      for (bool f : f1b) {
                        e.pp_1f1b = f;
                        for (bool r : pprs) {
                          e.pp_rs_ag = r;
                          for (const auto& o : offs) {
                            e.weight_offload = o.weights;
                            e.activation_offload = o.activations;
                            e.optimizer_offload = o.optimizer;
                            fn(e);
                          }
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

// Output checks every search result must pass, whatever the space.
std::string CheckSearch(const ExecQuery& q, const SearchResult& r,
                        bool with_pareto) {
  const std::int64_t batch = q.config.batch_size;
  if (r.feasible > r.evaluated) return "feasible > evaluated";
  if (static_cast<double>(r.evaluated) > q.candidates) {
    return "evaluated more candidates than the space holds";
  }
  const std::size_t want =
      std::min<std::uint64_t>(r.feasible, static_cast<std::uint64_t>(q.config.top_k));
  if (r.best.size() != want) return "top-k size disagrees with feasible count";
  for (std::size_t k = 0; k < r.best.size(); ++k) {
    const SearchEntry& e = r.best[k];
    if (k > 0 && Ahead(e.stats, r.best[k - 1].stats)) return "top-k out of order";
    if (e.exec.num_procs != q.sys.num_procs() || e.exec.batch_size != batch) {
      return "top-k entry has the wrong size or batch";
    }
    const Result<Stats> again = calculon::CalculatePerformance(q.app, e.exec, q.sys);
    if (!again.ok() || !SameStats(again.value(), e.stats)) {
      return "top-k entry does not re-evaluate to identical Stats";
    }
    if (e.stats.tier1.Total() > q.sys.proc().mem1.capacity()) {
      return "top-k entry exceeds tier-1 memory";
    }
    const double samples = e.stats.sample_rate.raw() * e.stats.batch_time.raw();
    if (std::abs(samples - static_cast<double>(batch)) >
        1e-9 * static_cast<double>(batch)) {
      return "sample_rate * batch_time != batch_size";
    }
  }
  if (with_pareto) {
    if (r.pareto.empty() != (r.feasible == 0)) return "Pareto set empty/nonempty mismatch";
    for (std::size_t k = 0; k < r.pareto.size(); ++k) {
      const Point p = PointOf(r.pareto[k].stats);
      if (k > 0 && r.pareto[k - 1].stats.batch_time > r.pareto[k].stats.batch_time) {
        return "Pareto set not sorted by batch time";
      }
      for (const SearchEntry& o : r.pareto) {
        if (Dominates(PointOf(o.stats), p)) return "Pareto entry is dominated";
      }
    }
    if (!r.best.empty() &&
        r.pareto.front().stats.batch_time != r.best.front().stats.batch_time) {
      return "fastest Pareto entry is not the top-1 batch time";
    }
  }
  return "";
}

// Enumerates the whole space apart from the search and compares top-1,
// feasible count and Pareto set.
std::string BruteForce(const ExecQuery& q, const SearchResult& r) {
  std::uint64_t feasible = 0;
  bool have = false;
  Stats best;
  std::vector<Point> pts;
  ForEachCandidate(q.app, q.sys, q.space, q.config.batch_size,
                   [&](const Execution& e) {
                     const Result<Stats> s = calculon::CalculatePerformance(q.app, e, q.sys);
                     if (!s.ok()) return;
                     ++feasible;
                     if (!have || Ahead(s.value(), best)) {
                       best = s.value();
                       have = true;
                     }
                     pts.push_back(PointOf(s.value()));
                   });
  if (feasible != r.feasible) return "feasible count differs from enumeration";
  if (have != !r.best.empty()) return "top-1 presence differs from enumeration";
  if (have && !SameStats(best, r.best.front().stats)) {
    return "top-1 differs from enumeration";
  }
  std::vector<Point> got;
  for (const SearchEntry& e : r.pareto) got.push_back(PointOf(e.stats));
  std::sort(got.begin(), got.end());
  if (Front(std::move(pts)) != got) return "Pareto set differs from enumeration";
  return "";
}

// The reduced space of the repository's Table 3 harness: the knobs that
// matter for the envelope, offload none/all when the design has DDR5.
SearchSpace CodesignSpace(bool with_offload) {
  SearchSpace s;
  s.tp_comm = {{false, false, false}, {true, true, true}};
  s.tp_overlap = {calculon::TpOverlap::kRing};
  s.fused_activation = {true};
  s.dp_overlap = {true};
  s.optimizer_sharding = {true};
  s.pp_rs_ag = {false};
  s.max_microbatch = 8;
  s.offload = {{false, false, false}};
  if (with_offload) s.offload.push_back({true, true, true});
  return s;
}

// ---------------------------------------------------------------------------

class ExecSearch : public Workload {
 public:
  [[nodiscard]] std::string name() const override { return "exec_search"; }
  void Setup(const SpecTexts& texts, std::uint64_t seed) override {
    queries_ = ExecStream(LoadSpecs(texts));
    results_.assign(queries_.size(), {});
    // Brute-force cross-check on four seeded 8-GPU queries.
    Rng rng(seed ^ 0xb5ULL);
    brute_.clear();
    std::vector<std::size_t> small;
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      if (queries_[i].sys.num_procs() == 8) small.push_back(i);
    }
    rng.Shuffle(small);
    brute_.assign(small.begin(), small.begin() + 4);
    pool_ = std::make_unique<calculon::ThreadPool>(kThreads);
  }
  [[nodiscard]] std::size_t size() const override { return queries_.size(); }
  [[nodiscard]] std::string Label(std::size_t i) const override { return queries_[i].label; }
  [[nodiscard]] double Candidates(std::size_t i) const override {
    return queries_[i].candidates;
  }
  double Run(std::size_t i) override {
    const ExecQuery& q = queries_[i];
    ScopedSpan span("search.FindOptimalExecution");
    const double t0 = NowS();
    results_[i] = calculon::FindOptimalExecution(q.app, q.sys, q.space, q.config, *pool_);
    return NowS() - t0;
  }
  std::string Check(std::size_t i, bool deep) override {
    std::string why = CheckSearch(queries_[i], results_[i], true);
    if (why.empty() && deep &&
        std::find(brute_.begin(), brute_.end(), i) != brute_.end()) {
      why = BruteForce(queries_[i], results_[i]);
    }
    return why;
  }
  void LayerMetrics(std::map<std::string, double>&, std::uint64_t) override {}
  double Decompose(std::size_t i) override { return DecomposeSearch(queries_[i], kThreads); }
  [[nodiscard]] std::vector<ExecQuery> ProbeSearches() const override {
    std::vector<ExecQuery> out;
    for (std::size_t i = 0; i < queries_.size(); i += 5) out.push_back(queries_[i]);
    return out;
  }

 private:
  std::vector<ExecQuery> queries_;
  std::vector<SearchResult> results_;
  std::vector<std::size_t> brute_;
  std::unique_ptr<calculon::ThreadPool> pool_;
};

// ---------------------------------------------------------------------------

class ExecSupervised : public Workload {
 public:
  [[nodiscard]] std::string name() const override { return "exec_supervised"; }
  void Setup(const SpecTexts& texts, std::uint64_t) override {
    queries_.clear();
    // The exec_search stream without its heavy class and without the
    // Pareto collector, which the wire format does not carry.
    for (ExecQuery& q : ExecStream(LoadSpecs(texts))) {
      if (q.sys.num_procs() == 16) continue;
      q.config.keep_pareto = false;
      queries_.push_back(std::move(q));
    }
    results_.assign(queries_.size(), {});
    dist_ = {};
    dist_.workers = static_cast<int>(kWorkers);
    dist_.fallback_threads = kWorkers;
    // The in-process reference runs at the same parallelism.
    pool_ = std::make_unique<calculon::ThreadPool>(kWorkers);
    if (!dist_.active()) throw calculon::ConfigError("fork is unavailable");
  }
  [[nodiscard]] std::size_t size() const override { return queries_.size(); }
  [[nodiscard]] std::string Label(std::size_t i) const override { return queries_[i].label; }
  [[nodiscard]] double Candidates(std::size_t i) const override {
    return queries_[i].candidates;
  }
  double Run(std::size_t i) override {
    const ExecQuery& q = queries_[i];
    ScopedSpan span("dist.FindOptimalExecutionSupervised");
    const double t0 = NowS();
    results_[i] = calculon::dist::FindOptimalExecutionSupervised(q.app, q.sys, q.space,
                                                                 q.config, dist_);
    return NowS() - t0;
  }
  std::string Check(std::size_t i, bool deep) override {
    const ExecQuery& q = queries_[i];
    const SearchResult& r = results_[i];
    std::string why = CheckSearch(q, r, false);
    if (!why.empty() || !deep) return why;
    const SearchResult ref =
        calculon::FindOptimalExecution(q.app, q.sys, q.space, q.config, *pool_);
    if (ref.evaluated != r.evaluated || ref.feasible != r.feasible) {
      return "evaluated/feasible differ from the in-process run";
    }
    if (ref.best.size() != r.best.size()) return "top-k size differs from in-process";
    for (std::size_t k = 0; k < r.best.size(); ++k) {
      if (!SameStats(ref.best[k].stats, r.best[k].stats) ||
          !SameExec(ref.best[k].exec, r.best[k].exec)) {
        return "top-k differs from the in-process run";
      }
    }
    return "";
  }
  void LayerMetrics(std::map<std::string, double>& out, std::uint64_t seed) override;
  [[nodiscard]] unsigned Threads() const override { return kWorkers; }
  double Decompose(std::size_t i) override { return DecomposeSearch(queries_[i], kWorkers); }
  [[nodiscard]] std::vector<ExecQuery> ProbeSearches() const override {
    std::vector<ExecQuery> out;
    for (std::size_t i = 0; i < queries_.size(); i += 4) out.push_back(queries_[i]);
    return out;
  }

 private:
  std::vector<ExecQuery> queries_;
  std::vector<SearchResult> results_;
  calculon::dist::DistOptions dist_;
  std::unique_ptr<calculon::ThreadPool> pool_;
};

void ExecSupervised::LayerMetrics(std::map<std::string, double>& out,
                                  std::uint64_t seed) {
  // Supervised vs in-process wall time at equal parallelism (2 workers vs
  // 2 threads), fastest of two alternations each, on 8 seeded queries.
  Rng rng(seed ^ 0xd15ULL);
  std::vector<std::size_t> pick(queries_.size());
  for (std::size_t i = 0; i < pick.size(); ++i) pick[i] = i;
  rng.Shuffle(pick);
  pick.resize(8);
  double sup = 0.0;
  double inproc = 0.0;
  for (std::size_t i : pick) {
    const ExecQuery& q = queries_[i];
    double best_sup = 1e300;
    double best_in = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
      double t0 = NowS();
      (void)calculon::dist::FindOptimalExecutionSupervised(q.app, q.sys, q.space, q.config,
                                                           dist_);
      best_sup = std::min(best_sup, NowS() - t0);
      t0 = NowS();
      (void)calculon::FindOptimalExecution(q.app, q.sys, q.space, q.config, *pool_);
      best_in = std::min(best_in, NowS() - t0);
    }
    sup += best_sup;
    inproc += best_in;
  }
  out["dist.query_overhead_ratio"] = sup / inproc;

  // Worker busy time from the metrics the supervisor ingests from its
  // workers (what --metrics exports): per-slot evaluation-latency sums
  // over the query's wall time; the least busy worker.
  auto& metrics = calculon::obs::MetricsRegistry::Global();
  std::vector<double> busy(kWorkers, 0.0);
  double wall = 0.0;
  for (std::size_t i : pick) {
    const ExecQuery& q = queries_[i];
    metrics.Reset();
    metrics.Enable();
    const double t0 = NowS();
    (void)calculon::dist::FindOptimalExecutionSupervised(q.app, q.sys, q.space, q.config,
                                                         dist_);
    wall += NowS() - t0;
    const calculon::obs::MetricsSnapshot snap = metrics.Snapshot();
    metrics.Disable();
    for (unsigned w = 0; w < kWorkers; ++w) {
      const auto it = snap.histograms.find(
          calculon::StrFormat("dist.worker.%u.exec_search.eval_latency_us", w));
      if (it != snap.histograms.end()) busy[w] += it->second.sum * 1e-6;
    }
  }
  metrics.Reset();
  out["dist.worker_busy_ratio_min"] = *std::min_element(busy.begin(), busy.end()) / wall;
}

// ---------------------------------------------------------------------------

class SystemCodesign : public Workload {
 public:
  [[nodiscard]] std::string name() const override { return "system_codesign"; }
  void Setup(const SpecTexts& texts, std::uint64_t seed) override {
    const Specs specs = LoadSpecs(texts);
    queries_.clear();
    Rng rng(seed ^ 0xc0deULL);
    const char* const llms[] = {"gpt3_175b", "turing_530b", "megatron_1t"};
    // Budget tiers: the paper's $125M swept in 4096-GPU steps, and seeded
    // budgets in $20-25M and $10-15M swept in 512-GPU steps (smaller
    // machines, so cheaper queries).
    for (int tier = 0; tier < 3; ++tier) {
      for (const calculon::SystemDesign& d : calculon::Table3Designs()) {
        for (const char* llm : llms) {
          Query q;
          q.app = specs.apps.at(llm);
          q.design = d;
          q.space = CodesignSpace(d.ddr_gib > 0.0);
          q.options.size_step = tier == 0 ? 4096 : 512;
          q.options.budget = tier == 0   ? 125e6
                             : tier == 1 ? rng.Uniform(20e6, 25e6)
                                         : rng.Uniform(10e6, 15e6);
          q.paper = tier == 0;
          q.label = calculon::StrFormat("%s/%s/$%.1fM", llm, d.Label().c_str(),
                                        q.options.budget / 1e6);
          for (std::int64_t n : Sizes(q)) {
            q.candidates += SpaceSize(q.app, d.Build(n), q.space, n);
          }
          queries_.push_back(std::move(q));
        }
      }
    }
    results_.assign(queries_.size(), {});
    table3_rate_.assign(queries_.size(), -1.0);
    pool_ = std::make_unique<calculon::ThreadPool>(kThreads);
  }
  [[nodiscard]] std::size_t size() const override { return queries_.size(); }
  [[nodiscard]] std::string Label(std::size_t i) const override { return queries_[i].label; }
  [[nodiscard]] double Candidates(std::size_t i) const override {
    return queries_[i].candidates;
  }
  double Run(std::size_t i) override {
    const Query& q = queries_[i];
    ScopedSpan span("system.EvaluateDesign");
    const double t0 = NowS();
    results_[i] = calculon::EvaluateDesign(q.app, q.design, q.space, q.options, *pool_);
    return NowS() - t0;
  }
  std::string Check(std::size_t i, bool deep) override {
    const Query& q = queries_[i];
    const calculon::SystemSearchEntry& e = results_[i];
    if (deep && q.paper) {
      // The Table 3 harness's 512-GPU sweep of this design, for the
      // conclusion checked in CheckPass.
      calculon::SystemSearchOptions fine = q.options;
      fine.size_step = 512;
      const calculon::SystemSearchEntry t3 =
          calculon::EvaluateDesign(q.app, q.design, q.space, fine, *pool_);
      table3_rate_[i] = t3.feasible ? t3.sample_rate.raw() : 0.0;
    }
    const double price = q.design.UnitPrice();
    if (e.max_gpus <= 0 || static_cast<double>(e.max_gpus) * price > q.options.budget) {
      return "max_gpus does not fit the budget";
    }
    if (static_cast<double>(e.max_gpus + 8) * price <= q.options.budget) {
      return "max_gpus leaves a whole NVLink domain affordable";
    }
    if (!e.feasible) return q.paper ? "no feasible size for a Table 3 design" : "";
    if (e.used_gpus <= 0 || e.used_gpus > e.max_gpus) return "used_gpus > max_gpus";
    if (e.best_exec.num_procs != e.used_gpus) return "best execution has the wrong size";
    const Result<Stats> again =
        calculon::CalculatePerformance(q.app, e.best_exec, q.design.Build(e.used_gpus));
    if (!again.ok() || again.value().sample_rate != e.sample_rate) {
      return "best execution does not reproduce the sample rate";
    }
    return "";
  }
  std::vector<std::pair<std::size_t, std::string>> CheckPass() override {
    // Table 3's conclusion: 20 GiB HBM3 + 256 GiB DDR5 has the highest
    // sample rate for every LLM at $125M (512-GPU sweep).
    std::vector<std::pair<std::size_t, std::string>> failed;
    std::map<std::string, std::pair<double, std::string>> top;
    std::map<std::string, std::size_t> winner_index;
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      const Query& q = queries_[i];
      if (!q.paper || table3_rate_[i] < 0.0) continue;
      const double rate = table3_rate_[i];
      auto& slot = top[q.app.name];
      if (rate > slot.first) slot = {rate, q.design.Label()};
      if (q.design.Label() == "20G+256G") winner_index[q.app.name] = i;
    }
    for (const auto& [app, best] : top) {
      if (best.second != "20G+256G") {
        failed.emplace_back(winner_index[app],
                            "Table 3: " + best.second + " beats 20G+256G for " + app);
      }
    }
    return failed;
  }
  void LayerMetrics(std::map<std::string, double>& out, std::uint64_t seed) override {
    Rng rng(seed ^ 0x5e5ULL);
    std::vector<double> ms;
    for (int k = 0; k < 6; ++k) {
      const Query& q = queries_[rng.Index(queries_.size())];
      const double t0 = NowS();
      (void)calculon::EvaluateDesign(q.app, q.design, q.space, q.options, *pool_);
      ms.push_back((NowS() - t0) * 1e3);
    }
    out["system.design_ms"] = Median(ms);
  }
  double Decompose(std::size_t i) override {
    // EvaluateDesign is one search per size of the sweep.
    const Query& q = queries_[i];
    double total = 0.0;
    for (std::int64_t n : Sizes(q)) {
      ScopedSpan span("search.FindOptimalExecution");
      SearchConfig c;
      c.top_k = 1;
      c.batch_size = n;
      const double t0 = NowS();
      (void)calculon::FindOptimalExecution(q.app, q.design.Build(n), q.space, c, *pool_);
      total += NowS() - t0;
    }
    return total;
  }
  [[nodiscard]] std::vector<ExecQuery> ProbeSearches() const override {
    // The largest affordable size of every 6th $125M query.
    std::vector<ExecQuery> out;
    for (std::size_t i = 0; i < queries_.size(); i += 6) {
      const Query& q = queries_[i];
      if (!q.paper) continue;
      ExecQuery e;
      const std::int64_t n = q.design.MaxGpus(q.options.budget);
      e.label = q.label;
      e.app = q.app;
      e.sys = q.design.Build(n);
      e.space = q.space;
      e.config.top_k = 1;
      e.config.batch_size = n;
      e.candidates = SpaceSize(e.app, e.sys, e.space, n);
      out.push_back(std::move(e));
    }
    return out;
  }

 private:
  struct Query {
    std::string label;
    Application app;
    calculon::SystemDesign design;
    SearchSpace space;
    calculon::SystemSearchOptions options;
    bool paper = false;
    double candidates = 0;
  };
  // The sizes EvaluateDesign sweeps: multiples of the step below the
  // affordable maximum, then the maximum.
  static std::vector<std::int64_t> Sizes(const Query& q) {
    std::vector<std::int64_t> out;
    const std::int64_t max_gpus =
        static_cast<std::int64_t>(q.options.budget / q.design.UnitPrice()) / 8 * 8;
    for (std::int64_t n = q.options.size_step; n < max_gpus; n += q.options.size_step) {
      out.push_back(n);
    }
    if (max_gpus > 0) out.push_back(max_gpus);
    return out;
  }
  std::vector<Query> queries_;
  std::vector<calculon::SystemSearchEntry> results_;
  std::vector<double> table3_rate_;  // 512-GPU sweep, $125M tier; -1 = not run
  std::unique_ptr<calculon::ThreadPool> pool_;
};

// ---------------------------------------------------------------------------

// Table 2: the Selene configurations and measured batch times (s), full
// recompute and seq-par + selective recompute.
struct SeleneCase {
  const char* app;
  std::int64_t procs, t, p, d, batch, microbatch;
  double full_s, seqsel_s;
};
const SeleneCase kSelene[] = {
    {"megatron_22b", 8, 8, 1, 1, 4, 2, 1.42, 1.10},
    {"gpt3_175b", 512, 8, 8, 8, 512, 1, 18.13, 13.75},
    {"turing_530b", 280, 8, 35, 1, 280, 1, 49.05, 37.83},
    {"megatron_1t", 512, 8, 64, 1, 512, 1, 94.42, 71.49},
};
// Largest relative error a Table 2 row may have against Selene.
constexpr double kSeleneTolerance = 0.11;

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> out(1);
  for (char c : line) {
    if (c == ',') {
      out.emplace_back();
    } else if (c != '\n') {
      out.back() += c;
    }
  }
  return out;
}

class StudyRows : public Workload {
 public:
  [[nodiscard]] std::string name() const override { return "study_rows"; }
  void Setup(const SpecTexts&, std::uint64_t seed) override {
    using calculon::json::Array;
    using calculon::json::Value;
    seed_ = seed;
    // One directory per instance: setup is timed on fresh instances, and a
    // destroyed one removes its own directory.
    static int instances = 0;
    dir_ = (std::filesystem::path(".bench_build") /
            calculon::StrFormat("perfbench-tmp-%d-%d", static_cast<int>(::getpid()),
                                instances++))
               .string();
    std::filesystem::create_directories(dir_);
    queries_.clear();
    for (const SeleneCase& c : kSelene) {
      Value spec;
      spec["application"] = c.app;
      spec["system"] = "a100_80g";
      spec["num_procs"] = c.procs;
      Value base;
      base["tensor_par"] = c.t;
      base["pipeline_par"] = c.p;
      base["data_par"] = c.d;
      base["batch_size"] = c.batch;
      base["microbatch"] = c.microbatch;
      spec["base_execution"] = base;
      Value sweep;
      sweep["recompute"] = Value(Array{Value("full"), Value("attn")});
      for (const char* knob : {"tp_rs_ag", "seq_par", "seq_par_ag_redo"}) {
        sweep[knob] = Value(Array{Value(false), Value(true)});
      }
      spec["sweep"] = sweep;
      queries_.push_back(MakeQuery(spec, &c));
    }
    // Seeded studies, all of one shape: 3 t x 3 p x 3 m x 3 recompute x
    // 2 x 2 x 2 boolean knobs = 648 rows, data_par derived.
    Rng rng(seed ^ 0x57dULL);
    const std::vector<std::string> apps = calculon::presets::ApplicationNames();
    const char* const knobs[] = {"fused_activation", "dp_overlap", "optimizer_sharding",
                                 "pp_rs_ag", "tp_rs_ag"};
    auto pick3 = [&](std::vector<std::int64_t> from) {
      rng.Shuffle(from);
      from.resize(3);
      std::sort(from.begin(), from.end());
      Array a;
      for (std::int64_t v : from) a.emplace_back(v);
      return Value(std::move(a));
    };
    for (int k = 0; k < 116; ++k) {
      const std::int64_t procs = std::int64_t{64} << rng.Index(4);
      Value spec;
      spec["application"] = apps[rng.Index(apps.size())];
      spec["system"] = kSystems[rng.Index(2)];
      spec["num_procs"] = procs;
      Value base;
      base["batch_size"] = procs * 2;
      spec["base_execution"] = base;
      Value sweep;
      sweep["tensor_par"] = pick3({1, 2, 4, 8});
      sweep["pipeline_par"] = pick3({1, 2, 4, 8, 16});
      sweep["data_par"] = "auto";
      sweep["microbatch"] = pick3({1, 2, 4, 8});
      sweep["recompute"] = Value(Array{Value("none"), Value("attn"), Value("full")});
      std::vector<std::string> ks(std::begin(knobs), std::end(knobs));
      rng.Shuffle(ks);
      for (int j = 0; j < 3; ++j) sweep[ks[j]] = Value(Array{Value(false), Value(true)});
      spec["sweep"] = sweep;
      queries_.push_back(MakeQuery(spec, nullptr));
    }
    // Resume from a mid-run checkpoint on six seeded studies.
    for (int k = 0; k < 6; ++k) queries_[rng.Index(queries_.size())].resume_check = true;
    runs_.assign(queries_.size(), {});
  }
  ~StudyRows() override {
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] std::size_t size() const override { return queries_.size(); }
  [[nodiscard]] std::string Label(std::size_t i) const override { return queries_[i].label; }
  [[nodiscard]] double Candidates(std::size_t i) const override {
    return static_cast<double>(queries_[i].rows);
  }
  // A study runs its rows on the calling thread.
  [[nodiscard]] unsigned Threads() const override { return 1; }
  double Run(std::size_t i) override {
    Query& q = queries_[i];
    ScopedSpan span("runner.study");
    const double t0 = NowS();
    const calculon::Study study = calculon::Study::FromJson(calculon::json::Parse(q.text));
    runs_[i] = study.RunResilient();
    q.csv = runs_[i].Csv();
    return NowS() - t0;
  }
  std::string Check(std::size_t i, bool deep) override;
  void LayerMetrics(std::map<std::string, double>& out, std::uint64_t seed) override;
  double Decompose(std::size_t i) override;
  [[nodiscard]] std::vector<ExecQuery> ProbeSearches() const override {
    // Studies run no search; probe with the 8-GPU exec_search queries.
    std::vector<ExecQuery> out;
    for (ExecQuery& q : ExecStream(LoadSpecs(MakeSpecTexts(seed_)))) {
      if (q.sys.num_procs() == 8 && out.size() < 8) out.push_back(std::move(q));
    }
    return out;
  }

 private:
  // Checkpoint cadence of the resume check. The timed studies write no
  // checkpoint: a checkpoint write fsyncs, and on a shared disk its latency
  // moved study_rows' p50 by 21% from run to run (4% without). Checkpoint
  // cost is the per-layer runner.checkpoint_write_ms instead.
  static constexpr std::uint64_t kCheckpointEvery = 128;
  struct Query {
    std::string label;
    std::string text;
    std::uint64_t rows = 0;  // product of the spec's axis lengths
    const SeleneCase* selene = nullptr;
    bool resume_check = false;
    std::string csv;
    std::string first_csv;
  };
  static Query MakeQuery(const calculon::json::Value& spec, const SeleneCase* selene) {
    Query q;
    q.text = spec.Dump();
    q.selene = selene;
    q.rows = 1;
    for (const auto& [axis, values] : spec.at("sweep").AsObject()) {
      if (values.is_array()) q.rows *= values.AsArray().size();
    }
    q.label = calculon::StrFormat("%s/%s/%lld:%llu rows",
                                  spec.at("application").AsString().c_str(),
                                  spec.at("system").AsString().c_str(),
                                  static_cast<long long>(spec.at("num_procs").AsInt()),
                                  static_cast<unsigned long long>(q.rows));
    return q;
  }
  std::string Checkpoint(std::size_t i) const {
    return calculon::StrFormat("%s/study-%zu.json", dir_.c_str(), i);
  }
  std::uint64_t seed_ = 0;
  std::string dir_;
  std::vector<Query> queries_;
  std::vector<calculon::StudyRun> runs_;
};

std::string StudyRows::Check(std::size_t i, bool deep) {
  Query& q = queries_[i];
  const calculon::StudyRun& run = runs_[i];
  if (!run.status.complete || run.status.failures != 0) return "study did not complete cleanly";
  if (run.csv_rows.size() != q.rows || run.total_rows != q.rows) {
    return "row count differs from the product of the axis lengths";
  }
  if (!deep) return q.csv == q.first_csv ? "" : "CSV differs from the first pass";
  q.first_csv = q.csv;
  const calculon::Study study = calculon::Study::FromJson(calculon::json::Parse(q.text));
  const std::vector<Execution> execs = study.Enumerate();
  if (execs.size() != q.rows) return "enumeration size differs from the axis product";
  int selene_rows = 0;
  for (std::size_t k = 0; k < execs.size(); ++k) {
    const Result<Stats> r =
        calculon::CalculatePerformance(study.application, execs[k], study.system);
    const std::vector<std::string> cols = SplitCsv(run.csv_rows[k]);
    if (cols.size() < 9) return "malformed CSV row";
    if (cols[7] != (r.ok() ? "1" : "0")) return "row feasibility disagrees with the model";
    if (!r.ok() && cols[8].rfind(calculon::ToString(r.reason()), 0) != 0) {
      return "row rejection reason disagrees with the model";
    }
    if (q.selene != nullptr && r.ok()) {
      const Execution& e = execs[k];
      const bool full = e.recompute == calculon::Recompute::kFull && !e.tp_rs_ag &&
                        !e.seq_par && !e.seq_par_ag_redo;
      const bool seqsel = e.recompute == calculon::Recompute::kAttnOnly && e.tp_rs_ag &&
                          e.seq_par && e.seq_par_ag_redo;
      if (full || seqsel) {
        const double selene = full ? q.selene->full_s : q.selene->seqsel_s;
        const double ours = std::stod(cols[9]);
        if (std::abs(ours - selene) > kSeleneTolerance * selene) {
          return "Table 2 row outside the Selene tolerance";
        }
        ++selene_rows;
      }
    }
  }
  if (q.selene != nullptr && selene_rows != 2) return "a Table 2 row is missing or infeasible";
  if (q.resume_check) {
    // A checkpoint of the first half, written by the runner's own writer,
    // then a resumed run: its CSV must be byte-identical.
    calculon::StudyRun half;
    half.total_rows = q.rows;
    const std::size_t mid = execs.size() / 2;
    for (std::size_t k = 0; k < mid; ++k) {
      half.csv_rows.push_back(run.csv_rows[k]);
      const Result<Stats> r = calculon::EvaluateStudyRow(study, execs[k], k);
      if (r.ok() && (!half.best.found || r.value().sample_rate > half.best.sample_rate)) {
        half.best = {true, k, execs[k], r.value().sample_rate};
      }
    }
    half.status.complete = false;
    const std::string path = Checkpoint(i) + ".resume";
    calculon::WriteStudyCheckpoint(
        path, calculon::StudyCheckpointToJson(study.Fingerprint(), half));
    calculon::StudyRunOptions opts;
    opts.checkpoint_path = path;
    opts.checkpoint_every = kCheckpointEvery;
    opts.resume = true;
    const calculon::StudyRun resumed = study.RunResilient(opts);
    if (resumed.resumed_rows != mid) return "resume did not restore the checkpointed rows";
    if (resumed.Csv() != q.csv) return "resumed CSV differs from the uninterrupted run";
  }
  return "";
}

void StudyRows::LayerMetrics(std::map<std::string, double>& out, std::uint64_t seed) {
  Rng rng(seed ^ 0x7ULL);
  std::vector<double> parse_us;
  std::vector<double> row_us;
  std::vector<double> write_ms;
  double csv_bytes = 0.0;
  for (int k = 0; k < 12; ++k) {
    const std::size_t i = rng.Index(queries_.size());
    const Query& q = queries_[i];
    double t0 = NowS();
    const calculon::Study study = calculon::Study::FromJson(calculon::json::Parse(q.text));
    parse_us.push_back((NowS() - t0) * 1e6);
    const std::vector<Execution> execs = study.Enumerate();
    calculon::StudyRun run;
    run.total_rows = execs.size();
    t0 = NowS();
    for (std::size_t r = 0; r < execs.size(); ++r) {
      run.csv_rows.push_back(
          calculon::StudyCsvRow(execs[r], calculon::EvaluateStudyRow(study, execs[r], r)));
    }
    row_us.push_back((NowS() - t0) * 1e6 / static_cast<double>(execs.size()));
    run.status.complete = true;
    csv_bytes += static_cast<double>(run.Csv().size());
    t0 = NowS();
    calculon::WriteStudyCheckpoint(Checkpoint(i) + ".probe",
                                   calculon::StudyCheckpointToJson(study.Fingerprint(), run));
    write_ms.push_back((NowS() - t0) * 1e3);
  }
  out["runner.study_parse_us"] = Median(parse_us);
  out["runner.study_row_us"] = Median(row_us);
  out["runner.csv_bytes"] = csv_bytes / 12.0;
  out["runner.checkpoint_write_ms"] = Median(write_ms);
}

double StudyRows::Decompose(std::size_t i) {
  // A study is parse + one evaluation and CSV line per row, all on the
  // calling thread.
  const Query& q = queries_[i];
  double t0 = NowS();
  calculon::Study study;
  {
    ScopedSpan span("runner.Study::FromJson");
    study = calculon::Study::FromJson(calculon::json::Parse(q.text));
  }
  double total = NowS() - t0;
  const std::vector<Execution> execs = study.Enumerate();
  std::vector<std::string> rows;
  rows.reserve(execs.size());
  for (std::size_t r = 0; r < execs.size(); ++r) {
    t0 = NowS();
    ScopedSpan span("core.EvaluateStudyRow");
    const Result<Stats> res = calculon::EvaluateStudyRow(study, execs[r], r);
    rows.push_back(calculon::StudyCsvRow(execs[r], res));
    total += NowS() - t0;
  }
  return total;
}

}  // namespace

// ---------------------------------------------------------------------------

SpecTexts MakeSpecTexts(std::uint64_t seed) {
  SpecTexts t;
  for (const std::string& name : calculon::presets::ApplicationNames()) {
    t.apps[name] = calculon::presets::ApplicationByName(name).ToJson().Dump();
  }
  Rng rng(seed ^ 0x5a5ULL);
  for (const char* name : kSystems) {
    calculon::json::Value v = calculon::presets::SystemByName(name).ToJson();
    ScaleBandwidths(v, rng.Uniform(0.85, 1.15));
    t.systems[name] = v.Dump();
  }
  return t;
}

Specs LoadSpecs(const SpecTexts& texts) {
  Specs s;
  for (const auto& [name, text] : texts.apps) {
    s.apps[name] = Application::FromJson(calculon::json::Parse(text));
  }
  for (const auto& [name, text] : texts.systems) {
    s.systems[name] = System::FromJson(calculon::json::Parse(text));
  }
  return s;
}

double SpaceSize(const Application& app, const System& sys, const SearchSpace& space,
                 std::int64_t batch) {
  double total = 0.0;
  const std::int64_t n = sys.num_procs();
  const double offload = sys.proc().mem2.present() ? static_cast<double>(space.offload.size()) : 1.0;
  auto len = [](const auto& v, bool on) { return on ? static_cast<double>(v.size()) : 1.0; };
  for (std::int64_t t : DivisorsOf(n)) {
    for (std::int64_t p : DivisorsOf(n / t)) {
      const std::int64_t d = n / t / p;
      if (t < space.min_tensor_par || t > space.max_tensor_par) continue;
      if (p < space.min_pipeline_par || p > space.max_pipeline_par) continue;
      if (d < space.min_data_par || d > space.max_data_par) continue;
      if (app.attn_heads % t != 0 || p > app.num_blocks || batch % d != 0) continue;
      double mbs = 0.0;
      for (std::int64_t m : DivisorsOf(batch / d)) mbs += m <= space.max_microbatch ? 1.0 : 0.0;
      const double ils = (space.sweep_interleaving && p > 1)
                             ? static_cast<double>(DivisorsOf((app.num_blocks + p - 1) / p).size())
                             : 1.0;
      total += mbs * ils * static_cast<double>(space.recompute.size()) *
               len(space.tp_comm, t > 1) * len(space.tp_overlap, t > 1) *
               static_cast<double>(space.fused_activation.size()) *
               len(space.dp_overlap, d > 1) * len(space.optimizer_sharding, d > 1) *
               len(space.pp_1f1b, p > 1) * len(space.pp_rs_ag, p > 1 && t > 1) * offload;
    }
  }
  return total;
}

std::vector<ExecQuery> ExecStream(const Specs& specs) {
  // (GPUs, batch) size classes. 16 GPUs at batch 8 is the heavy class, the
  // last in the list; exec_supervised runs the others.
  const std::pair<std::int64_t, std::int64_t> classes[] = {
      {8, 4}, {64, 4}, {2048, 4}, {4096, 4}, {4096, 8}, {16, 8}};
  std::vector<ExecQuery> out;
  for (const auto& [app_name, app] : specs.apps) {
    for (const char* sys_name : kSystems) {
      for (const auto& [n, batch] : classes) {
        ExecQuery q;
        q.label = calculon::StrFormat("%s/%s/n=%lld/b=%lld", app_name.c_str(), sys_name,
                                      static_cast<long long>(n), static_cast<long long>(batch));
        q.app = app;
        q.sys = specs.systems.at(sys_name).WithNumProcs(n);
        q.space = SearchSpace::AllOptimizations();
        q.config.batch_size = batch;
        q.config.top_k = 10;
        q.config.keep_pareto = true;
        q.candidates = SpaceSize(q.app, q.sys, q.space, batch);
        out.push_back(std::move(q));
      }
    }
  }
  return out;
}

std::vector<Execution> SampleCandidates(const ExecQuery& q, Rng& rng, std::size_t k) {
  std::vector<Execution> out;
  std::uint64_t seen = 0;
  ForEachCandidate(q.app, q.sys, q.space, q.config.batch_size, [&](const Execution& e) {
    ++seen;
    if (out.size() < k) {
      out.push_back(e);
    } else {
      const std::size_t j = static_cast<std::size_t>(rng.Next() % seen);
      if (j < k) out[j] = e;
    }
  });
  return out;
}

std::vector<std::string> WorkloadNames() {
  return {"exec_search", "system_codesign", "study_rows", "exec_supervised"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "exec_search") return std::make_unique<ExecSearch>();
  if (name == "exec_supervised") return std::make_unique<ExecSupervised>();
  if (name == "system_codesign") return std::make_unique<SystemCodesign>();
  if (name == "study_rows") return std::make_unique<StudyRows>();
  return nullptr;
}

}  // namespace perfbench
