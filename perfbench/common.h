// Shared pieces of the search benchmark: clock, seeded RNG, order
// statistics, the allocation counter, and the benchmark's own span recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// splitmix64: small, fast, and identical on every platform, so a seed
// names the same inputs everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  std::size_t Index(std::size_t n) {
    return static_cast<std::size_t>(Next() % static_cast<std::uint64_t>(n));
  }
  // Uniform in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[Index(i)]);
  }

 private:
  std::uint64_t state_;
};

// Quantile with linear interpolation between order statistics (the
// "inclusive" definition); q in [0, 1]. Returns 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Heap allocations made by the calling thread so far (counting operator
// new, linked into this binary only).
std::uint64_t ThreadAllocations();

// Peak resident set of this process plus its largest reaped child, MiB.
double PeakRssMiB();

// The benchmark's own spans, recorded around the calls it makes into the
// library. Off unless Enable() was called; kept in memory and written as
// Chrome-trace JSON at the end of a traced run.
class Tracer {
 public:
  static Tracer& Get();
  void Enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Opens a span and returns its id; spans nest on the calling thread.
  int Begin(const std::string& name);
  void End(int id);

  // Self time per span name (duration minus the time covered by child
  // spans), summed over every span, in seconds; plus the span counts.
  [[nodiscard]] std::map<std::string, std::pair<double, int>> SelfTimes() const;
  void WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    double child_time = 0.0;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::Get().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

}  // namespace perfbench
