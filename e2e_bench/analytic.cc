#include "analytic.h"

#include <cmath>
#include <cstdlib>
#include <map>
#include <set>

namespace e2e {

using hdb::Value;
using hdb::engine::Database;

namespace {

constexpr int64_t kTickMicros = 10'000;  // virtual time per query

[[noreturn]] void Die(const std::string& what, const hdb::Status& st) {
  std::fprintf(stderr, "e2e bench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(2);
}

int64_t AsInt64(const Value& v) {
  if (v.is_null()) return INT64_MIN;
  if (v.type() == hdb::TypeId::kDouble) return std::llround(v.AsDouble());
  return v.AsInt();
}

/// Canonical answer: unordered queries compare as sorted row multisets;
/// ordered ones must also come back non-decreasing in column 0, and are
/// then compared as multisets too (ties may legally come in any order).
bool Canonicalize(const std::vector<std::vector<Value>>& rows, bool ordered,
                  Answer* out) {
  out->clear();
  out->reserve(rows.size());
  for (const auto& r : rows) {
    std::vector<int64_t> row;
    row.reserve(r.size());
    for (const Value& v : r) row.push_back(AsInt64(v));
    out->push_back(std::move(row));
  }
  bool sorted = true;
  if (ordered) {
    for (size_t i = 1; i < out->size(); ++i) {
      if ((*out)[i][0] < (*out)[i - 1][0]) sorted = false;
    }
  }
  std::sort(out->begin(), out->end());
  return sorted;
}

}  // namespace

Star::Star(StarSpec spec, uint64_t seed, Tracer* tracer)
    : spec_(spec), seed_(seed), tracer_(tracer) {
  queries_ = {
      // join + aggregate
      "SELECT COUNT(*), SUM(f.qty) FROM f JOIN d1 ON f.d1 = d1.k "
      "WHERE d1.grp < 50",
      // group-by
      "SELECT g, COUNT(*), SUM(qty) FROM f GROUP BY g",
      // ORDER BY
      "SELECT price, id FROM f WHERE qty < 10 ORDER BY price",
      // DISTINCT
      "SELECT DISTINCT g FROM f WHERE qty < 50",
      // two-join star
      "SELECT d2.region, COUNT(*), SUM(f.price) FROM f "
      "JOIN d1 ON f.d1 = d1.k JOIN d2 ON f.d2 = d2.k "
      "WHERE d1.grp < 20 GROUP BY d2.region",
  };
  ordered_ = {false, false, true, false, false};
}

void Star::Setup() {
  Rng rng(seed_ ^ 0x9e3779b97f4a7c15ull);
  std::vector<int64_t> grp(static_cast<size_t>(spec_.d1_rows));
  std::vector<int64_t> region(static_cast<size_t>(spec_.d2_rows));
  for (int64_t k = 0; k < spec_.d1_rows; ++k) {
    grp[static_cast<size_t>(k)] = Uniform(rng, 0, 99);
    d1_.push_back({Value::Int(static_cast<int32_t>(k)),
                   Value::Int(static_cast<int32_t>(grp[static_cast<size_t>(k)]))});
  }
  for (int64_t k = 0; k < spec_.d2_rows; ++k) {
    region[static_cast<size_t>(k)] = Uniform(rng, 0, 9);
    d2_.push_back({Value::Int(static_cast<int32_t>(k)),
                   Value::Int(static_cast<int32_t>(region[static_cast<size_t>(k)]))});
  }

  // Expected answers, computed from the generated rows alone.
  int64_t q0_count = 0, q0_sum = 0;
  std::map<int64_t, std::pair<int64_t, int64_t>> q1;  // g -> (count, sum qty)
  Answer q2;
  std::set<int64_t> q3;
  std::map<int64_t, std::pair<int64_t, int64_t>> q4;  // region -> (count, sum price)
  for (int64_t id = 0; id < spec_.fact_rows; ++id) {
    const int64_t d1 = Uniform(rng, 0, spec_.d1_rows - 1);
    const int64_t d2 = Uniform(rng, 0, spec_.d2_rows - 1);
    const int64_t g = Uniform(rng, 0, spec_.groups - 1);
    const int64_t qty = Uniform(rng, 1, 99);
    const int64_t price = Uniform(rng, 1, 1000);
    fact_.push_back({Value::Int(static_cast<int32_t>(id)), Value::Int(static_cast<int32_t>(d1)),
                     Value::Int(static_cast<int32_t>(d2)), Value::Int(static_cast<int32_t>(g)),
                     Value::Int(static_cast<int32_t>(qty)),
                     Value::Int(static_cast<int32_t>(price))});
    if (grp[static_cast<size_t>(d1)] < 50) {
      ++q0_count;
      q0_sum += qty;
    }
    auto& a = q1[g];
    ++a.first;
    a.second += qty;
    if (qty < 10) q2.push_back({price, id});
    if (qty < 50) q3.insert(g);
    if (grp[static_cast<size_t>(d1)] < 20) {
      auto& b = q4[region[static_cast<size_t>(d2)]];
      ++b.first;
      b.second += price;
    }
  }
  expected_.resize(queries_.size());
  expected_[0] = {{q0_count, q0_sum}};
  for (const auto& [g, a] : q1) expected_[1].push_back({g, a.first, a.second});
  std::sort(q2.begin(), q2.end());
  expected_[2] = std::move(q2);
  for (int64_t g : q3) expected_[3].push_back({g});
  for (const auto& [r, b] : q4) expected_[4].push_back({r, b.first, b.second});

  for (int c = 0; c < kConfigs; ++c) {
    hdb::engine::DatabaseOptions o;
    // The parallelism governor grants workers only from idle MPL slots, so
    // par2 runs at MPL 2 on twice the pool: the same soft limit as inmem.
    const size_t frames = c == kStarved ? spec_.starved_frames
                          : c == kPar2  ? 2 * spec_.roomy_frames
                                        : spec_.roomy_frames;
    const int mpl = c == kStarved ? spec_.starved_mpl : c == kPar2 ? 2 : 1;
    o.initial_pool_frames = frames;
    // Fixed pool and MPL: each configuration is what its name says for
    // the whole run, whatever the governors would otherwise decide.
    o.pool_governor.min_bytes = o.pool_governor.max_bytes =
        static_cast<uint64_t>(frames) * o.page_bytes;
    o.memory_governor.multiprogramming_level = mpl;
    o.mpl_controller.min_mpl = o.mpl_controller.max_mpl = mpl;
    if (c == kPar2) o.parallel.max_workers = 2;
    auto db = Database::Open(o);
    if (!db.ok()) Die("open star db", db.status());
    dbs_[c] = std::move(*db);
    auto conn = dbs_[c]->Connect();
    if (!conn.ok()) Die("connect", conn.status());
    conns_[c] = std::move(*conn);
    for (const char* ddl :
         {"CREATE TABLE f (id INT NOT NULL, d1 INT NOT NULL, d2 INT NOT NULL, "
          "g INT NOT NULL, qty INT NOT NULL, price INT NOT NULL)",
          "CREATE TABLE d1 (k INT NOT NULL, grp INT NOT NULL)",
          "CREATE TABLE d2 (k INT NOT NULL, region INT NOT NULL)"}) {
      auto r = conns_[c]->Execute(ddl);
      if (!r.ok()) Die(ddl, r.status());
    }
    for (auto [name, rows] : {std::pair{"f", &fact_}, std::pair{"d1", &d1_},
                              std::pair{"d2", &d2_}}) {
      const hdb::Status st = dbs_[c]->LoadTable(name, *rows);
      if (!st.ok()) Die(std::string("load ") + name, st);
    }
  }
}

void Star::Pass(Config c, bool timed, PassResult* out, Checks* checks) {
  Span pass_span(tracer_, kConfigName[c]);
  std::vector<std::vector<std::vector<Value>>> results(queries_.size());
  const auto ps0 = dbs_[c]->pool().stats();
  if (timed) {
    out->query_ms[c].resize(queries_.size());
    ++out->passes[c];
  }
  for (size_t q = 0; q < queries_.size(); ++q) {
    Span q_span(tracer_, "query", pass_span.id());
    const Clock::time_point t0 = Clock::now();
    auto r = conns_[c]->Execute(queries_[q]);
    if (timed) out->query_ms[c][q].Add(MicrosSince(t0) / 1000.0);
    ++out->queries;
    if (!r.ok()) {
      ++out->failed;
      checks->Fail(std::string(kConfigName[c]) + " query " + std::to_string(q) +
                   ": " + r.status().ToString());
    } else {
      results[q] = std::move(r->rows);
    }
    dbs_[c]->Tick(kTickMicros);
  }
  if (timed && c == kStarved) {
    const auto ps1 = dbs_[c]->pool().stats();
    out->starved_hits += ps1.hits - ps0.hits;
    out->starved_misses += ps1.misses - ps0.misses;
    out->starved_evictions += ps1.evictions - ps0.evictions;
  }
  for (size_t q = 0; q < queries_.size(); ++q) {
    Answer got;
    const bool sorted = Canonicalize(results[q], ordered_[q], &got);
    const std::string name =
        std::string(kConfigName[c]) + " query " + std::to_string(q);
    if (!sorted) checks->Fail(name + ": rows not in ORDER BY order");
    // The same expectation serves all three configurations, so passing it
    // everywhere also means the configurations agree with each other.
    checks->Run(name + " == plain C++ answer", [&](bool perturb) {
      if (!perturb) return got == expected_[q];
      Answer w = expected_[q];
      if (w.empty()) return false;
      w[0][0] += 1;
      return got == w;
    });
  }
}

void Star::WarmUp(PassResult* out, Checks* checks) {
  for (int c = 0; c < kConfigs; ++c) Pass(static_cast<Config>(c), false, out, checks);
}

void Star::Run(int passes, PassResult* out, Checks* checks) {
  for (int p = 0; p < passes; ++p) {
    for (int c = 0; c < kConfigs; ++c) Pass(static_cast<Config>(c), true, out, checks);
  }
}

}  // namespace e2e
