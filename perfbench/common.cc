#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>

// --- Counting global operator new ---
//
// Replaces the global allocation functions of this binary only (the
// library itself is unchanged). Each thread counts its own allocations, so
// a probe on the main thread reads an exact count while pool threads idle.

namespace {
thread_local std::uint64_t t_allocations = 0;

void* CountedAlloc(std::size_t size) {
  ++t_allocations;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t ThreadAllocations() { return t_allocations; }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double PeakRssMiB() {
  struct rusage self {};
  struct rusage children {};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux. Forked workers share the parent's pages
  // copy-on-write, so adding the largest child (not every child) avoids
  // counting shared pages twice per worker.
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start = NowS();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = NowS();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  if (s.parent >= 0) {
    spans_[static_cast<std::size_t>(s.parent)].child_time += s.end - s.start;
  }
}

std::map<std::string, std::pair<double, int>> Tracer::SelfTimes() const {
  std::map<std::string, std::pair<double, int>> out;
  for (const Span& s : spans_) {
    auto& [self, count] = out[s.name];
    self += (s.end - s.start) - s.child_time;
    ++count;
  }
  return out;
}

void Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), (s.start - t0) * 1e6,
                 (s.end - s.start) * 1e6, i, s.parent);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace perfbench
