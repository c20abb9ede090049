#include "service.h"

#include <algorithm>
#include <barrier>
#include <cstdlib>
#include <thread>

#include "net/client.h"

namespace e2e {

using hdb::Value;
using hdb::engine::Database;

namespace {

constexpr int64_t kRangeWidth = 100;
constexpr int kOpsPerTick = 100;
constexpr int64_t kTickMicros = 10'000;
constexpr int64_t kInsertIdStride = 100'000'000;  // per-client id block

// One round of the mix: 6 selects, 6 simple selects, 4 transfers, 2
// inserts and 2 range aggregates. Embedded, a select and a simple select
// are the same text statement; on the wire the select is prepared.
constexpr Kind kRound[] = {kSel, kSim, kCall, kSel, kSim, kIns, kSel,
                           kSim, kCall, kRng, kSel, kSim, kCall, kSel,
                           kSim, kIns, kSel, kSim, kCall, kRng};

std::string SimpleSelect(int64_t k) {
  return "SELECT v FROM acct WHERE k = " + std::to_string(k);
}
std::string Transfer(int64_t s, int64_t d, int64_t a) {
  return "CALL transfer(" + std::to_string(s) + ", " + std::to_string(d) +
         ", " + std::to_string(a) + ")";
}
std::string InsertHist(int64_t id, int64_t k, int64_t a) {
  return "INSERT INTO hist VALUES (" + std::to_string(id) + ", " +
         std::to_string(k) + ", " + std::to_string(a) + ")";
}
std::string RangeAgg(int64_t lo) {
  return "SELECT COUNT(*), SUM(v) FROM acct WHERE k BETWEEN " +
         std::to_string(lo) + " AND " + std::to_string(lo + kRangeWidth - 1);
}

[[noreturn]] void Die(const std::string& what, const hdb::Status& st) {
  std::fprintf(stderr, "e2e bench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(2);
}

void MustExec(hdb::engine::Connection* c, const std::string& sql) {
  auto r = c->Execute(sql);
  if (!r.ok()) Die(sql, r.status());
}

}  // namespace

/// One closed-loop client: its key block, generator, connection and the
/// samples it took. On the wire each client runs on its own thread; the
/// blocks are disjoint, so no two clients write the same row.
struct Service::Client {
  int id = 0;
  int64_t lo = 0, hi = 0;  // key block [lo, hi)
  Rng rng;
  std::unique_ptr<hdb::engine::Connection> conn;  // embedded
  std::unique_ptr<hdb::net::Client> net;          // wire
  uint32_t prepared = 0;
  int64_t next_insert = 0;
  ServiceResult res;
  std::array<Samples, kKinds> window;  // the open window's timings
  std::vector<Insert> inserts;
  std::vector<std::pair<int64_t, int64_t>> reads;
};

/// Runs at each window boundary, on one client thread while every other
/// client waits at the barrier: with no statement in flight, it advances
/// virtual time by kTickMicros per kOpsPerTick statements, then stamps the
/// barrier's time, so a step's time includes its Ticks. Tick is never
/// called while statements run on other threads: a checkpoint it starts
/// can then leave a group committer asleep for good (CHANGES.md, FOUND).
struct Service::TickAll {
  Service* s;
  void operator()() noexcept {
    uint64_t n = s->unticked_ops_.load();
    for (; n >= kOpsPerTick; n -= kOpsPerTick) s->db_->Tick(kTickMicros);
    s->unticked_ops_.store(n);
    s->barrier_times_.push_back(Clock::now());
  }
};

Service::Service(ServiceSpec spec, uint64_t seed, Tracer* tracer)
    : spec_(spec), seed_(seed), tracer_(tracer) {
  opts_.initial_pool_frames = kPoolFrames;
  media_ = std::make_shared<hdb::os::StableStorage>(opts_.page_bytes);
  opts_.media = media_;
  if (spec_.zipf) zipf_ = std::make_unique<Zipf>(kAccounts, 0.99, seed ^ 0x5a5a);
}

Service::~Service() {
  StopServer();
  clients_.clear();
  db_.reset();
}

void Service::Open() {
  auto db = Database::Open(opts_);
  if (!db.ok()) Die("open", db.status());
  db_ = std::move(*db);
}

void Service::StartServer() {
  hdb::net::ServerOptions so;
  so.workers = 2;
  auto s = hdb::net::Server::Start(db_.get(), so);
  if (!s.ok()) Die("server start", s.status());
  server_ = std::move(*s);
}

void Service::StopServer() {
  for (auto& c : clients_) {
    if (c->net) {
      (void)c->net->Close();
      c->net.reset();
    }
  }
  if (server_) {
    server_->Stop();
    server_.reset();
  }
}

void Service::Setup() {
  Rng rng(seed_);
  Open();
  {
    auto conn = db_->Connect();
    if (!conn.ok()) Die("connect", conn.status());
    hdb::engine::Connection* c = conn->get();
    MustExec(c, "CREATE TABLE acct (k INT NOT NULL, v INT NOT NULL)");
    MustExec(c, "CREATE TABLE hist (id INT NOT NULL, k INT NOT NULL, amt INT NOT NULL)");
    std::vector<hdb::table::Row> rows;
    rows.reserve(static_cast<size_t>(kAccounts));
    balance_.resize(static_cast<size_t>(kAccounts));
    for (int64_t k = 0; k < kAccounts; ++k) {
      const int64_t v = Uniform(rng, 0, 10000);
      balance_[static_cast<size_t>(k)] = v;
      total_ += v;
      rows.push_back({Value::Int(static_cast<int32_t>(k)),
                      Value::Int(static_cast<int32_t>(v))});
    }
    const hdb::Status st = db_->LoadTable("acct", rows);
    if (!st.ok()) Die("load acct", st);
    MustExec(c, "CREATE INDEX acct_k ON acct (k)");
    MustExec(c,
             "CREATE PROCEDURE transfer (:src, :dst, :amt) AS "
             "UPDATE acct SET v = v - :amt WHERE k = :src; "
             "UPDATE acct SET v = v + :amt WHERE k = :dst");
  }
  // A freshly loaded database starts from a checkpoint, so every run's
  // first restart replays only the log its own statements wrote.
  const hdb::Status ck = db_->checkpoint_governor().ForceCheckpoint("load");
  if (!ck.ok()) Die("checkpoint", ck);

  const int64_t block = kAccounts / spec_.clients;
  for (int i = 0; i < spec_.clients; ++i) {
    auto c = std::make_unique<Client>();
    c->id = i;
    c->lo = block * i;
    c->hi = i + 1 == spec_.clients ? kAccounts : block * (i + 1);
    c->rng.seed(seed_ * 7919 + static_cast<uint64_t>(i) + 1);
    c->next_insert = kInsertIdStride * i;
    clients_.push_back(std::move(c));
  }
  if (spec_.wire) StartServer();
}

std::vector<std::pair<std::string, std::string>> Service::SampleStatements() const {
  return {{kKindName[kSel], SimpleSelect(kAccounts / 2)},
          {kKindName[kCall], Transfer(1, 2, 0)},
          {kKindName[kIns], InsertHist(kInsertIdStride * 9, 1, 1)},
          {kKindName[kRng], RangeAgg(kAccounts / 2)}};
}

void Service::RunClient(Client* c, int rounds, bool timed, std::barrier<TickAll>* sync) {
  if (spec_.wire && !c->net) {
    auto n = hdb::net::Client::Connect("127.0.0.1", server_->port());
    if (!n.ok()) Die("client connect", n.status());
    c->net = std::move(*n);
    auto p = c->net->Prepare("SELECT v FROM acct WHERE k = ?");
    if (!p.ok()) Die("prepare", p.status());
    c->prepared = p->stmt_id;
  } else if (!spec_.wire && !c->conn) {
    auto conn = db_->Connect();
    if (!conn.ok()) Die("connect", conn.status());
    c->conn = std::move(*conn);
  }
  auto key = [&] {
    return zipf_ ? zipf_->Next(c->rng) : Uniform(c->rng, c->lo, c->hi - 1);
  };
  // Runs one statement; returns its rows, or nullopt when it failed.
  auto exec = [&](const std::string& sql)
      -> std::optional<std::vector<std::vector<Value>>> {
    if (spec_.wire) {
      auto r = c->net->Query(sql);
      if (!r.ok()) return std::nullopt;
      return std::move(r->rows);
    }
    auto r = c->conn->Execute(sql);
    if (!r.ok()) return std::nullopt;
    return std::move(r->rows);
  };
  auto first_int = [](const std::optional<std::vector<std::vector<Value>>>& rows,
                      size_t col) -> int64_t {
    if (!rows || rows->empty() || (*rows)[0].size() <= col ||
        (*rows)[0][col].is_null()) {
      return INT64_MIN;
    }
    return (*rows)[0][col].AsInt();
  };

  ServiceResult& r = c->res;
  sync->arrive_and_wait();  // every client connected: the step starts
  for (int round = 0; round < rounds; ++round) {
    for (Kind op : kRound) {
      // Draw every input before timing, in a fixed order per op.
      const int64_t k = key();
      int64_t k2 = key();
      while (k2 == k) k2 = key();
      const int64_t amt = Uniform(c->rng, 1, 100);
      const int64_t lo = Uniform(c->rng, c->lo, c->hi - kRangeWidth);
      if (c->id == 0 && sample_keys_.size() < 4096) sample_keys_.push_back(k);

      Span span(tracer_, kKindName[op], rounds_span_);
      const Clock::time_point t0 = Clock::now();
      bool ok = true;
      switch (op) {
        case kSel: {
          int64_t got = INT64_MIN;
          if (spec_.wire) {
            ok = c->net->Bind(c->prepared, {Value::Int(static_cast<int32_t>(k))}).ok();
            if (ok) {
              auto res = c->net->ExecutePrepared(c->prepared);
              ok = res.ok();
              if (ok) got = first_int(std::move(res->rows), 0);
            }
          } else {
            auto rows = exec(SimpleSelect(k));
            ok = rows.has_value();
            got = first_int(rows, 0);
          }
          const double us = MicrosSince(t0);
          if (ok) {
            c->reads.emplace_back(got, balance_[static_cast<size_t>(k)]);
            if (timed) c->window[op].Add(us);
          }
          break;
        }
        case kSim: {
          auto rows = exec(SimpleSelect(k));
          const double us = MicrosSince(t0);
          ok = rows.has_value();
          if (ok) {
            c->reads.emplace_back(first_int(rows, 0), balance_[static_cast<size_t>(k)]);
            if (timed) c->window[op].Add(us);
          }
          break;
        }
        case kCall: {
          ok = exec(Transfer(k, k2, amt)).has_value();
          const double us = MicrosSince(t0);
          if (ok) {
            balance_[static_cast<size_t>(k)] -= amt;
            balance_[static_cast<size_t>(k2)] += amt;
            if (timed) {
              ++r.commits;
              c->window[op].Add(us);
            }
          }
          break;
        }
        case kIns: {
          const int64_t id = c->next_insert++;
          ok = exec(InsertHist(id, k, amt)).has_value();
          const double us = MicrosSince(t0);
          if (ok) {
            c->inserts.push_back({id, k, amt});
            if (timed) {
              ++r.commits;
              c->window[op].Add(us);
            }
          }
          break;
        }
        case kRng: {
          auto rows = exec(RangeAgg(lo));
          const double us = MicrosSince(t0);
          ok = rows.has_value();
          if (ok) {
            int64_t sum = 0;
            for (int64_t i = lo; i < lo + kRangeWidth; ++i) {
              sum += balance_[static_cast<size_t>(i)];
            }
            c->reads.emplace_back(first_int(rows, 0), kRangeWidth);
            c->reads.emplace_back(first_int(rows, 1), sum);
            if (timed) c->window[op].Add(us);
          }
          break;
        }
        case kKinds:
          break;
      }
      ++r.attempted;
      if (!ok) ++r.failed;
    }
    if ((round + 1) % kWindowRounds != 0 && round + 1 != rounds) continue;
    unticked_ops_.fetch_add(static_cast<uint64_t>(
        (round % kWindowRounds + 1) * static_cast<int>(std::size(kRound))));
    sync->arrive_and_wait();
    if (timed) {
      for (int kind = 0; kind < kKinds; ++kind) {
        Samples& w = c->window[kind];
        if (w.size() > 0) r.window_p50[kind].Add(w.Median());
        r.us[kind].Append(w);
        w = Samples();
      }
    }
  }
}

void Service::RunClients(int rounds, bool timed) {
  std::barrier<TickAll> sync(static_cast<std::ptrdiff_t>(clients_.size()), TickAll{this});
  barrier_times_.clear();
  size_t done = 0;  // timed statements before this step
  for (const auto& c : clients_) {
    for (const Samples& s : c->res.us) done += s.size();
  }
  if (!spec_.wire) {  // embedded: one client, on this thread
    RunClient(clients_[0].get(), rounds, timed, &sync);
  } else {
    std::vector<std::thread> threads;
    for (auto& c : clients_) {
      threads.emplace_back([this, cl = c.get(), rounds, timed, &sync] {
        RunClient(cl, rounds, timed, &sync);
      });
    }
    for (auto& t : threads) t.join();
  }
  if (!timed) return;
  // The service's rate over the step: every client's timed statements
  // over the time from the first barrier (all connected) to the last
  // (its Tick done), barrier waits and Ticks included.
  size_t ops = 0;
  for (const auto& c : clients_) {
    for (const Samples& s : c->res.us) ops += s.size();
  }
  const double secs =
      std::chrono::duration<double>(barrier_times_.back() - barrier_times_.front()).count();
  step_ops_s_.Add(static_cast<double>(ops - done) / secs);
}

void Service::WarmUp() {
  RunClients(2, /*timed=*/false);
  MarkCounters();
}

void Service::Kill() {
  StopServer();
  for (auto& c : clients_) c->conn.reset();
  media_->ScheduleCrash(0);
  db_.reset();
  media_->PowerCycle();
}

void Service::VerifyAfterRestart(Checks* checks) {
  auto conn = db_->Connect();
  if (!conn.ok()) Die("connect", conn.status());
  auto acct = (*conn)->Execute("SELECT k, v FROM acct");
  auto hist = (*conn)->Execute("SELECT id, k, amt FROM hist");
  auto sum = (*conn)->Execute("SELECT SUM(v) FROM acct");
  if (!acct.ok() || !hist.ok() || !sum.ok()) {
    checks->Fail("scan after restart failed");
    return;
  }
  std::vector<int64_t> seen(balance_.size(), INT64_MIN);
  bool shape_ok = acct->rows.size() == balance_.size();
  for (const auto& row : acct->rows) {
    const int64_t k = row[0].AsInt();
    if (k < 0 || k >= static_cast<int64_t>(seen.size())) {
      shape_ok = false;
      continue;
    }
    seen[static_cast<size_t>(k)] = row[1].AsInt();
  }
  checks->Run("accounts after restart == ledger", [&](bool perturb) {
    if (!shape_ok) return false;
    for (size_t k = 0; k < seen.size(); ++k) {
      const int64_t want = balance_[k] + (perturb && k == 0 ? 1 : 0);
      if (seen[k] != want) return false;
    }
    return true;
  });
  std::vector<std::tuple<int64_t, int64_t, int64_t>> got, want;
  for (const auto& row : hist->rows) {
    got.emplace_back(row[0].AsInt(), row[1].AsInt(), row[2].AsInt());
  }
  for (const Insert& i : inserts_) want.emplace_back(i.id, i.k, i.amt);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got != want || !shape_ok) {
    size_t diff = 0;
    for (size_t k = 0; k < seen.size(); ++k) diff += seen[k] != balance_[k];
    std::fprintf(stderr,
                 "after restart: %zu of %zu accounts differ from the ledger; "
                 "history has %zu rows, %zu acknowledged\n",
                 diff, seen.size(), got.size(), want.size());
  }
  checks->Run("history after restart == acknowledged inserts", [&](bool perturb) {
    if (!perturb || want.empty()) return got == want;
    auto w = want;
    std::get<2>(w[0]) += 1;
    return got == w;
  });
  const int64_t total = sum->rows.empty() ? INT64_MIN : sum->rows[0][0].AsInt();
  checks->Run("transfers conserve SUM(v)", [&](bool perturb) {
    return total == total_ + (perturb ? 1 : 0);
  });
}

void Service::MarkCounters() {
  wal_mark_ = db_->wal().stats();
  waits_mark_ = db_->admission_gate().stats().admitted_after_wait;
}

void Service::RunRounds() {
  Span rounds_span(tracer_, "rounds");
  rounds_span_ = rounds_span.id();
  RunClients(spec_.rounds, /*timed=*/true);
  for (auto& c : clients_) {
    inserts_.insert(inserts_.end(), c->inserts.begin(), c->inserts.end());
    c->inserts.clear();
    reads_.insert(reads_.end(), c->reads.begin(), c->reads.end());
    c->reads.clear();
  }
}

void Service::Restart(ServiceResult* out, Checks* checks) {
  // Counters of this incarnation of the database, up to its kill.
  const auto ws = db_->wal().stats();
  out->wal_syncs += ws.syncs - wal_mark_.syncs;
  out->wal_bytes += ws.bytes - wal_mark_.bytes;
  out->checkpoints += db_->checkpoint_governor().stats().checkpoints;
  out->admitted_after_wait +=
      db_->admission_gate().stats().admitted_after_wait - waits_mark_;
  Kill();
  {
    Span restart_span(tracer_, "restart");
    const Clock::time_point r0 = Clock::now();
    Open();
    out->restart_ms.Add(MicrosSince(r0) / 1000.0);
  }
  out->last_recovery = db_->recovery_stats();
  VerifyAfterRestart(checks);
  if (spec_.wire) StartServer();
  MarkCounters();
}

void Service::Finish(ServiceResult* out, Checks* checks) {
  for (auto& c : clients_) {
    const ServiceResult& r = c->res;
    for (int kind = 0; kind < kKinds; ++kind) {
      out->us[kind].Append(r.us[kind]);
      out->window_p50[kind].Append(r.window_p50[kind]);
    }
    out->attempted += r.attempted;
    out->failed += r.failed;
    out->commits += r.commits;
  }
  out->ops_per_s = FastHigh(step_ops_s_);
  checks->Run("every point select and range aggregate == ledger", [&](bool perturb) {
    if (reads_.empty()) return false;
    for (size_t i = 0; i < reads_.size(); ++i) {
      if (reads_[i].first != reads_[i].second + (perturb && i == 0 ? 1 : 0)) {
        return false;
      }
    }
    return true;
  });
}

}  // namespace e2e
