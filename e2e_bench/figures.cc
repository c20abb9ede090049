// Reference figures for README.md, outside the benchmark's metrics:
// point selects and autocommit UPDATEs on a 100k-row account table
// (durable or volatile, roomy or 512-frame pool), and a 200k x 50k join in
// memory, starved and with two workers. Built next to hdb_e2e:
//
//   .bench_build/e2e/hdb_e2e_figures
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/database.h"
#include "os/stable_storage.h"

namespace e2e {
namespace {

using hdb::Value;
using hdb::engine::Database;
using hdb::engine::DatabaseOptions;

void Check(const hdb::Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
  std::exit(2);
}

DatabaseOptions PinnedPool(size_t frames) {
  DatabaseOptions o;
  o.initial_pool_frames = frames;
  o.pool_governor.min_bytes = o.pool_governor.max_bytes =
      static_cast<uint64_t>(frames) * o.page_bytes;
  return o;
}

std::unique_ptr<Database> Open(const DatabaseOptions& o) {
  auto db = Database::Open(o);
  Check(db.status(), "open");
  return std::move(*db);
}

void Exec(hdb::engine::Connection* c, const std::string& sql) {
  Check(c->Execute(sql).status(), sql.c_str());
}

void Accounts(bool durable, size_t frames) {
  DatabaseOptions o = PinnedPool(frames);
  if (durable) o.media = std::make_shared<hdb::os::StableStorage>(o.page_bytes);
  auto db = Open(o);
  auto conn = db->Connect();
  Check(conn.status(), "connect");
  hdb::engine::Connection* c = conn->get();
  Exec(c, "CREATE TABLE acct (k INT NOT NULL, v INT NOT NULL)");
  std::vector<hdb::table::Row> rows;
  for (int i = 0; i < 100000; ++i) rows.push_back({Value::Int(i), Value::Int(i)});
  Check(db->LoadTable("acct", rows), "load");
  Exec(c, "CREATE INDEX acct_k ON acct (k)");
  Rng rng(7);
  Samples select_us, update_us;
  const uint64_t misses0 = db->pool().stats().misses;
  for (int i = 0; i < 20000; ++i) {
    const Clock::time_point t0 = Clock::now();
    Exec(c, "SELECT v FROM acct WHERE k = " + std::to_string(Uniform(rng, 0, 99999)));
    select_us.Add(MicrosSince(t0));
  }
  const uint64_t misses = db->pool().stats().misses - misses0;
  for (int i = 0; i < 3000; ++i) {
    const Clock::time_point t0 = Clock::now();
    Exec(c, "UPDATE acct SET v = v + 1 WHERE k = " + std::to_string(Uniform(rng, 0, 99999)));
    update_us.Add(MicrosSince(t0));
  }
  std::printf("acct 100k %s, %zu frames: select p50 %.1f us (%.2f pool misses/select), "
              "autocommit UPDATE p50 %.1f us\n",
              durable ? "durable" : "volatile", frames, select_us.Median(),
              static_cast<double>(misses) / 20000, update_us.Median());
}

void Join(const char* name, size_t frames, int mpl, int workers) {
  DatabaseOptions o = PinnedPool(frames);
  o.memory_governor.multiprogramming_level = mpl;
  o.mpl_controller.min_mpl = o.mpl_controller.max_mpl = mpl;
  o.parallel.max_workers = workers;
  auto db = Open(o);
  auto conn = db->Connect();
  Check(conn.status(), "connect");
  hdb::engine::Connection* c = conn->get();
  Exec(c, "CREATE TABLE f (k INT NOT NULL, v INT)");
  Exec(c, "CREATE TABLE d (k INT NOT NULL, w INT)");
  std::vector<hdb::table::Row> f, d;
  for (int i = 0; i < 200000; ++i) f.push_back({Value::Int(i % 50000), Value::Int(i)});
  for (int i = 0; i < 50000; ++i) d.push_back({Value::Int(i), Value::Int(i)});
  Check(db->LoadTable("f", f), "load f");
  Check(db->LoadTable("d", d), "load d");
  Samples ms;
  for (int i = 0; i < 7; ++i) {
    const Clock::time_point t0 = Clock::now();
    Exec(c, "SELECT COUNT(*), SUM(d.w) FROM f JOIN d ON f.k = d.k");
    ms.Add(MicrosSince(t0) / 1000);
  }
  std::printf("200k x 50k join, %s: median %.0f ms (min %.0f, max %.0f over 7)\n", name,
              ms.Median(), ms.Percentile(0), ms.Percentile(1));
}

}  // namespace
}  // namespace e2e

int main() {
  e2e::Accounts(true, 4096);
  e2e::Accounts(false, 4096);
  e2e::Accounts(true, 512);
  e2e::Join("in memory (16384 frames, MPL 1)", 16384, 1, 1);
  e2e::Join("starved (512 frames, MPL 5)", 512, 5, 1);
  e2e::Join("2 workers (32768 frames, MPL 2)", 32768, 2, 2);
}
