// Shared pieces of the end-to-end benchmark: timing, sample statistics,
// seeded input generation, the span recorder behind the traced run, and
// the result-line writer.
#ifndef HDB_E2E_BENCH_UTIL_H_
#define HDB_E2E_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// A bag of timings; percentiles by nearest rank over the sorted samples.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  double Percentile(double q) const {
    if (v_.empty()) return 0;
    std::vector<double> s = v_;
    const size_t rank = std::min(
        s.size() - 1, static_cast<size_t>(std::ceil(q * s.size())) - (q > 0));
    std::nth_element(s.begin(), s.begin() + rank, s.end());
    return s[rank];
  }
  double Median() const { return Percentile(0.5); }

 private:
  std::vector<double> v_;
};

/// What a timing metric reports from a run's windows (or passes, or
/// restarts): their 2nd percentile, and for rates their 98th; with fewer
/// than 50 samples, the lowest and the highest. Each vCPU of the host
/// switches between a fast phase and one about 1.6x slower, and a slow
/// phase can last most of a run, so a run-wide median reads either mode.
/// A window mostly sits in one phase; the 2nd percentile reads the fast
/// phase as long as a fiftieth of the windows saw it. Five runs of oltp
/// read select_p50_us with a quartile spread of 0.09 this way, 0.22 with
/// the 10th percentile.
inline double FastLow(const Samples& s) { return s.Percentile(0.02); }
inline double FastHigh(const Samples& s) { return s.Percentile(0.98); }

/// Deterministic generator: every input of a run derives from --seed.
using Rng = std::mt19937_64;

inline int64_t Uniform(Rng& rng, int64_t lo, int64_t hi) {  // [lo, hi]
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

/// Zipf(s) over [0, n) by inverse CDF; key 0 is the hottest. The keys are
/// then scattered by a fixed permutation so hot keys are not adjacent.
class Zipf {
 public:
  Zipf(int64_t n, double s, uint64_t seed) : cdf_(static_cast<size_t>(n)) {
    double sum = 0;
    for (int64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[static_cast<size_t>(i)] = sum;
    }
    for (double& c : cdf_) c /= sum;
    perm_.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) perm_[static_cast<size_t>(i)] = i;
    Rng rng(seed);
    std::shuffle(perm_.begin(), perm_.end(), rng);
  }
  int64_t Next(Rng& rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return perm_[std::min(i, perm_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<int64_t> perm_;
};

/// Spans recorded around the benchmark's calls into each layer. They stay
/// in memory and are written once, as Chrome trace-event JSON, when the
/// traced run ends. A null Tracer* means tracing is off.
class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  /// Opens a span; returns its id, the parent of spans opened under it.
  uint64_t Begin(const char* name, uint64_t parent) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, MicrosSince(t0_), -1, ThreadNo()});
    return spans_.size();
  }
  void End(uint64_t id) {
    const double t = MicrosSince(t0_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_us = t;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t parent;
    double start_us;
    double end_us;
    int tid;
  };
  int ThreadNo() {  // caller holds mu_
    const auto id = std::this_thread::get_id();
    auto it = tids_.find(id);
    if (it == tids_.end()) it = tids_.emplace(id, static_cast<int>(tids_.size())).first;
    return it->second;
  }

  const Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> tids_;
};

/// RAII span; a no-op when the tracer is null.
class Span {
 public:
  Span(Tracer* t, const char* name, uint64_t parent = 0)
      : t_(t), id_(t ? t->Begin(name, parent) : 0) {}
  ~Span() {
    if (t_) t_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* t_;
  uint64_t id_;
};

/// The result line and the metric set a run reports.
struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

/// One correctness check against an expectation computed apart from the
/// engine. Every check also runs once against its expectation perturbed by
/// one and must then fail — the self-test that shows the check can fail.
class Checks {
 public:
  /// `check(perturb)` compares actual against expected, with expected
  /// moved by one when perturb is true.
  template <typename Fn>
  void Run(const std::string& name, Fn&& check) {
    const bool ok = check(false);
    const bool self_test_caught = !check(true);
    if (!ok) Fail(name + ": output differs from the expectation");
    if (!self_test_caught) Fail(name + ": self-test (expectation + 1) still passed");
    ++count_;
  }
  void Fail(const std::string& why) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
    ok_ = false;
  }
  bool ok() const { return ok_; }
  int count() const { return count_; }

 private:
  bool ok_ = true;
  int count_ = 0;
};

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const Metrics& metrics);

}  // namespace e2e

#endif  // HDB_E2E_BENCH_UTIL_H_
