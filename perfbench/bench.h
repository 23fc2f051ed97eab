// The search benchmark: four workloads over libcalculon's public API.
//
// A workload owns a seeded list of queries. main.cc times
// Run(i) from outside and cycles the list in reshuffled passes; Check(i)
// validates the outputs of the last run against computations made apart
// from the code under test.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/system.h"
#include "models/application.h"
#include "search/exec_search.h"
#include "util/threadpool.h"
#include "common.h"

namespace perfbench {

// Threads of the in-process pool, and worker processes of the supervised
// pool. Fixed (not the host's core count) so figures compare across hosts.
// One thread: on a VM whose vCPUs share cores with other tenants, a
// 2-thread query's wall time swings with the second thread's access to a
// CPU (see README.md, "Steadiness").
constexpr unsigned kThreads = 1;
constexpr unsigned kWorkers = 2;

// The applications and systems a workload uses, parsed from JSON spec text
// (the round trip a user's config files take).
struct Specs {
  std::map<std::string, calculon::Application> apps;
  std::map<std::string, calculon::System> systems;
};

// JSON spec text for every preset a workload may use. System bandwidths are
// scaled by seeded factors in [0.85, 1.15): the answers of a search change
// with the seed, its candidate counts do not.
struct SpecTexts {
  std::map<std::string, std::string> apps;
  std::map<std::string, std::string> systems;
};
SpecTexts MakeSpecTexts(std::uint64_t seed);
Specs LoadSpecs(const SpecTexts& texts);

// One optimal-execution search.
struct ExecQuery {
  std::string label;
  calculon::Application app;
  calculon::System sys;
  calculon::SearchSpace space;
  calculon::SearchConfig config;
  double candidates = 0;  // SpaceSize() of the query
};

// Size of the execution space a search covers, counted from the SearchSpace
// lists and the (t, p, d, m) enumeration: every (t, p, d) with t*p*d = n
// inside the space's degree limits, t | heads, p <= blocks and d | batch;
// every microbatch m | batch/d up to max_microbatch; every interleaving
// dividing ceil(blocks/p) when p > 1; and the knob lists, collapsed where a
// degree is 1 exactly as the Table 1 space defines them.
double SpaceSize(const calculon::Application& app, const calculon::System& sys,
                 const calculon::SearchSpace& space, std::int64_t batch);

// The exec_search query stream (110 queries; see README.md).
std::vector<ExecQuery> ExecStream(const Specs& specs);

// Up to `k` candidates of the query's space drawn uniformly by reservoir
// sampling over the benchmark's own enumeration.
std::vector<calculon::Execution> SampleCandidates(const ExecQuery& q, Rng& rng,
                                                  std::size_t k);

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  // Parses specs, generates the query list and starts the pool. Called
  // several times; each call replaces the previous state.
  virtual void Setup(const SpecTexts& texts, std::uint64_t seed) = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual std::string Label(std::size_t i) const = 0;
  [[nodiscard]] virtual double Candidates(std::size_t i) const = 0;
  // Threads or worker processes a query runs on.
  [[nodiscard]] virtual unsigned Threads() const { return kThreads; }
  // Runs query i and returns the wall seconds of the timed call.
  virtual double Run(std::size_t i) = 0;
  // Validates the outputs of the last Run(i): "" when correct, else why
  // not. `deep` adds the costly cross-checks (done once per query).
  virtual std::string Check(std::size_t i, bool deep) = 0;
  // Checks that span queries, made after each pass; returns the indices of
  // failed queries with the reason.
  virtual std::vector<std::pair<std::size_t, std::string>> CheckPass() {
    return {};
  }
  // Traced mode: per-layer metrics of this workload's own layers, and a
  // decomposition of query i into separately timed public calls (seconds of
  // thread time), used to reconcile layer self-time with query time.
  virtual void LayerMetrics(std::map<std::string, double>& out,
                            std::uint64_t seed) = 0;
  virtual double Decompose(std::size_t i) = 0;
  // Optimal-execution searches representative of this workload, for the
  // core/hw/search/obs probes.
  [[nodiscard]] virtual std::vector<ExecQuery> ProbeSearches() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// Layer probes shared by every workload (layers.cc): spec load, core, hw,
// search internals and the metrics-registry overhead, measured on `probe`.
void CommonLayerMetrics(const SpecTexts& texts,
                        const std::vector<ExecQuery>& probe,
                        std::uint64_t seed,
                        std::map<std::string, double>& out);

// Search-layer decomposition of one exec query: SearchTriples plus every
// SweepTriple on one thread plus the InsertTopK merge, in seconds, divided
// by the `parallelism` the query ran with. Spans are recorded when tracing
// is on.
double DecomposeSearch(const ExecQuery& q, unsigned parallelism);

}  // namespace perfbench
