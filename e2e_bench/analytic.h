// The star schema behind the pass metrics: one fact table and two
// dimensions, loaded identically into three volatile databases — roomy
// (in memory), starved (small pool, soft limit far below the hash-join
// build) and roomy with two workers — and queried by a fixed pass of five
// queries whose answers are recomputed here in plain C++.
#ifndef HDB_E2E_ANALYTIC_H_
#define HDB_E2E_ANALYTIC_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/database.h"

namespace e2e {

struct StarSpec {
  int64_t fact_rows;
  int64_t d1_rows;
  int64_t d2_rows;
  int64_t groups;         // distinct f.g values
  size_t roomy_frames;    // the inmem pool; par2 gets twice as many
  size_t starved_frames;  // the spill pool
  int starved_mpl;        // soft limit = pool / MPL (Eq. 5)
};

enum Config { kInMem = 0, kStarved = 1, kPar2 = 2 };
inline constexpr int kConfigs = 3;
inline constexpr const char* kConfigName[kConfigs] = {"inmem", "spill", "par2"};

/// One query's answer in canonical form: rows of integers.
using Answer = std::vector<std::vector<int64_t>>;

struct PassResult {
  // Per configuration, per query: the time of each timed run of it.
  std::array<std::vector<Samples>, kConfigs> query_ms;
  std::array<uint64_t, kConfigs> passes{};  // timed passes per configuration
  uint64_t queries = 0;
  uint64_t failed = 0;
  // Pool counters over the starved configuration's timed passes.
  uint64_t starved_hits = 0, starved_misses = 0, starved_evictions = 0;

  /// A pass's time: the sum over its queries of each query's FastLow. A
  /// query (tens to hundreds of ms) is a finer window than a whole pass.
  double PassMs(Config c) const {
    double ms = 0;
    for (const Samples& q : query_ms[c]) ms += FastLow(q);
    return ms;
  }
};

class Star {
 public:
  Star(StarSpec spec, uint64_t seed, Tracer* tracer);

  /// Generates the rows, computes the expected answers, opens and loads
  /// the three databases. Part of set-up time.
  void Setup();
  /// One untimed pass per configuration.
  void WarmUp(PassResult* out, Checks* checks);
  /// `passes` timed passes, each over the three configurations in turn.
  void Run(int passes, PassResult* out, Checks* checks);

  hdb::engine::Database* db(Config c) { return dbs_[c].get(); }
  const std::vector<std::string>& queries() const { return queries_; }

 private:
  void Pass(Config c, bool timed, PassResult* out, Checks* checks);

  const StarSpec spec_;
  const uint64_t seed_;
  Tracer* const tracer_;
  std::vector<std::string> queries_;
  std::vector<Answer> expected_;
  std::vector<bool> ordered_;  // the query has ORDER BY on column 1
  std::array<std::unique_ptr<hdb::engine::Database>, kConfigs> dbs_;
  std::array<std::unique_ptr<hdb::engine::Connection>, kConfigs> conns_;
  std::vector<hdb::table::Row> fact_, d1_, d2_;
};

}  // namespace e2e

#endif  // HDB_E2E_ANALYTIC_H_
