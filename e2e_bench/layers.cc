#include "layers.h"

#include <cstdlib>
#include <regex>

#include "common/ophash.h"
#include "engine/lexer.h"
#include "engine/parser.h"
#include "net/client.h"
#include "net/wire.h"
#include "table/row_codec.h"

namespace e2e {

using hdb::Value;

namespace {

constexpr int kReps = 200;  // timed repetitions per statement text

/// Median over `batches` timed batches of `per_batch` calls, per call, in
/// microseconds; f(i) makes call number i.
template <typename F>
double MedianPerCallUs(int batches, int per_batch, F&& f) {
  Samples s;
  int i = 0;
  for (int b = 0; b < batches; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (int j = 0; j < per_batch; ++j) f(i++);
    s.Add(MicrosSince(t0) / per_batch);
  }
  return s.Median();
}

uint32_t TableOid(hdb::engine::Database* db, const std::string& name) {
  auto t = db->catalog().GetTable(name);
  if (!t.ok()) {
    std::fprintf(stderr, "e2e bench: no table %s\n", name.c_str());
    std::exit(2);
  }
  return (*t)->oid;
}

/// Sum of EXPLAIN ANALYZE's inclusive "time=" over operator lines of `op`.
double OperatorMs(const std::string& explain, const std::string& op) {
  static const std::regex kLine(R"(^\s*(\w+).*actual rows=\d+ invocations=\d+ time=([0-9.]+)ms)");
  double ms = 0;
  size_t start = 0;
  while (start < explain.size()) {
    size_t end = explain.find('\n', start);
    if (end == std::string::npos) end = explain.size();
    std::smatch m;
    const std::string line = explain.substr(start, end - start);
    if (std::regex_search(line, m, kLine) && m[1] == op) ms += std::stod(m[2]);
    start = end + 1;
  }
  return ms;
}

}  // namespace

void LayerHarness::Measure(Service* service, Star* star, const ServiceResult& svc,
                           const PassResult& passes, Checks* checks) {
  Span span(tracer_, "layers");
  Engine(service);
  AccessPaths(service, star, checks);
  Storage(service, star, passes);
  Txn(service);
  Wal(service, svc);
  Exec(star, svc);
  Net(service, checks);
}

// engine + optimizer: the front end on the mix's own statement texts.
void LayerHarness::Engine(Service* service) {
  Span span(tracer_, "layer.engine");
  const auto texts = service->SampleStatements();
  Samples lex, parse;
  for (const auto& [kind, t] : texts) {
    lex.Add(MedianPerCallUs(kReps / 10, 10, [&](int) {
      if (!hdb::engine::Lex(t).ok()) std::abort();
    }));
    parse.Add(MedianPerCallUs(kReps / 10, 10, [&](int) {
      if (!hdb::engine::Parse(t).ok()) std::abort();
    }));
  }
  Add("engine.lex_us", lex.Median(), "us");
  Add("engine.parse_us", parse.Median(), "us");

  auto conn = service->db()->Connect();
  if (!conn.ok()) std::abort();
  hdb::engine::Connection* c = conn->get();
  int next_id = 900'000'000;
  for (const auto& [kind, sample] : texts) {
    std::string text = sample;
    Samples exec, explain, parsed;
    for (int r = 0; r < kReps; ++r) {
      if (kind == "insert") {
        text = "INSERT INTO hist VALUES (" + std::to_string(next_id++) + ", 1, 1)";
      }
      Clock::time_point t0 = Clock::now();
      if (!c->Execute(text).ok()) std::abort();
      exec.Add(MicrosSince(t0));
    }
    const bool is_select = text.rfind("SELECT", 0) == 0;
    if (is_select) {
      for (int r = 0; r < kReps; ++r) {
        Clock::time_point t0 = Clock::now();
        if (!c->Explain(text).ok()) std::abort();
        explain.Add(MicrosSince(t0));
        t0 = Clock::now();
        if (!hdb::engine::Parse(text).ok()) std::abort();
        parsed.Add(MicrosSince(t0));
      }
    }
    // Execute minus Explain leaves the execution proper; statements that
    // EXPLAIN does not accept (CALL, INSERT) report Execute whole.
    Add("engine.execute_us." + kind,
        exec.Median() - (is_select ? explain.Median() : 0), "us");
    if (is_select) {
      Add("optimizer.plan_us." + kind,
          explain.Median() - parsed.Median(), "us");
    }
  }
}

// index + table: B+tree probes and range walks over the mix's keys, heap
// reads of the rows they find, and scan/decode of the star fact table.
void LayerHarness::AccessPaths(Service* service, Star* star, Checks* checks) {
  Span span(tracer_, "layer.index_table");
  hdb::engine::Database* db = service->db();
  auto idx = db->catalog().GetIndex("acct_k");
  if (!idx.ok()) std::abort();
  hdb::index::BTree* tree = db->btree((*idx)->oid);
  hdb::table::TableHeap* acct = db->heap(TableOid(db, "acct"));
  const std::vector<int64_t>& keys = service->sample_keys();

  uint64_t found = 0;
  Add("index.probe_ns", 1000 * MedianPerCallUs(64, 64, [&](int i) {
        auto r = tree->Contains(hdb::OrderPreservingHash(
            Value::Int(static_cast<int32_t>(keys[static_cast<size_t>(i) % keys.size()]))));
        if (r.ok() && *r) ++found;
      }), "ns");
  checks->Run("index probes find every mix key", [&](bool perturb) {
    return found == 64u * 64u + (perturb ? 1 : 0);
  });

  std::vector<hdb::Rid> rids;
  Add("index.range_us", MedianPerCallUs(64, 4, [&](int i) {
        const int64_t lo = std::min<int64_t>(keys[static_cast<size_t>(i) % keys.size()],
                                             kAccounts - 100);
        const Value lo_v = Value::Int(static_cast<int32_t>(lo));
        const Value hi_v = Value::Int(static_cast<int32_t>(lo + 99));
        if (!tree->ScanRange(hdb::OrderPreservingHash(lo_v), true,
                             hdb::OrderPreservingHash(hi_v), true,
                             [&](double, hdb::Rid rid) {
                               if (rids.size() < 4096) rids.push_back(rid);
                               return true;
                             })
                 .ok()) {
          std::abort();
        }
      }), "us");

  Add("table.get_ns", 1000 * MedianPerCallUs(64, 64, [&](int i) {
        if (!acct->Get(rids[static_cast<size_t>(i) % rids.size()]).ok()) std::abort();
      }), "ns");

  hdb::engine::Database* sdb = star->db(kInMem);
  hdb::table::TableHeap* fact = sdb->heap(TableOid(sdb, "f"));
  Samples rate;
  for (int pass = 0; pass < 5; ++pass) {
    auto it = fact->Scan();
    std::vector<hdb::table::Row> rows;
    std::vector<hdb::Rid> scan_rids;
    uint64_t n = 0;
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      auto got = it.NextRows(1024, &rows, &scan_rids);
      if (!got.ok()) std::abort();
      if (*got == 0) break;
      n += *got;
    }
    rate.Add(static_cast<double>(n) / (MicrosSince(t0) / 1e6));
  }
  Add("table.scan_rows_per_s", rate.Median(), "rows/s");

  std::vector<std::string> bytes;
  if (!fact->ScanAll([&](hdb::Rid, std::string_view b) {
             bytes.emplace_back(b);
             return bytes.size() < 4096;
           })
           .ok()) {
    std::abort();
  }
  hdb::table::RowDecoder decoder;
  decoder.Prepare(*fact->def(), nullptr);
  hdb::table::Row row;
  Add("table.decode_ns", 1000 * MedianPerCallUs(64, 64, [&](int i) {
        const std::string& b = bytes[static_cast<size_t>(i) % bytes.size()];
        if (!decoder.DecodeInto(b.data(), b.size(), &row).ok()) std::abort();
      }), "ns");
}

// storage: pinned fetches of resident pages, and of pages the starved
// star pool has to read back in; pool counters over the starved passes.
void LayerHarness::Storage(Service* service, Star* star, const PassResult& passes) {
  Span span(tracer_, "layer.storage");
  using hdb::storage::PageType;
  using hdb::storage::SpaceId;
  hdb::engine::Database* db = service->db();
  const uint32_t acct_oid = TableOid(db, "acct");
  std::vector<uint32_t> pages;
  if (!db->heap(acct_oid)
           ->ScanAll([&](hdb::Rid rid, std::string_view) {
             if (pages.empty() || pages.back() != rid.page_id) pages.push_back(rid.page_id);
             return pages.size() < 32;
           })
           .ok()) {
    std::abort();
  }
  auto fetch = [](hdb::engine::Database* d, uint32_t page, uint32_t owner) {
    auto h = d->pool().FetchPage({SpaceId::kMain, page}, PageType::kTable, owner);
    if (!h.ok()) std::abort();
  };
  for (uint32_t p : pages) fetch(db, p, acct_oid);  // make them resident
  Add("storage.fetch_hit_ns", 1000 * MedianPerCallUs(64, 64, [&](int i) {
        fetch(db, pages[static_cast<size_t>(i) % pages.size()], acct_oid);
      }), "ns");

  // Cycling through more heap pages than the starved pool holds makes
  // nearly every fetch a miss; only fetches that did miss are counted.
  hdb::engine::Database* sdb = star->db(kStarved);
  const uint32_t f_oid = TableOid(sdb, "f");
  std::vector<uint32_t> fpages;
  if (!sdb->heap(f_oid)
           ->ScanAll([&](hdb::Rid rid, std::string_view) {
             if (fpages.empty() || fpages.back() != rid.page_id) fpages.push_back(rid.page_id);
             return true;
           })
           .ok()) {
    std::abort();
  }
  Samples miss_us;
  for (size_t i = 0; i < 4 * fpages.size() && miss_us.size() < 2000; ++i) {
    const uint64_t m0 = sdb->pool().stats().misses;
    const Clock::time_point t0 = Clock::now();
    fetch(sdb, fpages[i % fpages.size()], f_oid);
    const double us = MicrosSince(t0);
    if (sdb->pool().stats().misses == m0 + 1) miss_us.Add(us);
  }
  Add("storage.fetch_miss_us", miss_us.Median(), "us");
  const double touched = static_cast<double>(passes.starved_hits + passes.starved_misses);
  Add("storage.hit_ratio", touched > 0 ? passes.starved_hits / touched : 0, "ratio");
  Add("storage.evictions",
      static_cast<double>(passes.starved_evictions) /
          std::max<uint64_t>(1, passes.passes[kStarved]),
      "count/pass");
}

// txn: a row lock taken and released, on the mix's own rows.
void LayerHarness::Txn(Service* service) {
  Span span(tracer_, "layer.txn");
  hdb::engine::Database* db = service->db();
  const uint32_t oid = TableOid(db, "acct");
  std::vector<hdb::Rid> rids;
  if (!db->heap(oid)
           ->ScanAll([&](hdb::Rid rid, std::string_view) {
             rids.push_back(rid);
             return rids.size() < 4096;
           })
           .ok()) {
    std::abort();
  }
  const uint64_t txn_base = 1ull << 40;  // far above any live transaction
  Add("txn.lock_row_ns", 1000 * MedianPerCallUs(64, 64, [&](int i) {
        const hdb::Rid rid = rids[static_cast<size_t>(i) % rids.size()];
        const uint64_t txn = txn_base + static_cast<uint64_t>(i);
        if (!db->lock_manager().LockRow(txn, oid, rid, hdb::txn::LockMode::kExclusive).ok()) {
          std::abort();
        }
        db->lock_manager().Unlock(txn, hdb::txn::LockManager::RowKey(oid, rid));
      }), "ns");
}

// wal: append and single-committer durability on a side database opened
// with the service options, so the workload's own log is untouched; the
// group-commit and volume ratios come from the workload's WalStats.
void LayerHarness::Wal(Service* service, const ServiceResult& svc) {
  Span span(tracer_, "layer.wal");
  hdb::engine::DatabaseOptions o = service->options();
  o.media = std::make_shared<hdb::os::StableStorage>(o.page_bytes);
  auto side = hdb::engine::Database::Open(o);
  if (!side.ok()) std::abort();
  hdb::wal::WalManager& wal = (*side)->wal();
  const std::string payload(48, 'x');  // about one heap-update record
  Add("wal.append_ns", 1000 * MedianPerCallUs(64, 64, [&](int i) {
        if (!wal.Append(hdb::wal::WalRecordType::kCommit, 1u + i, payload).ok()) std::abort();
      }), "ns");
  Samples commit;
  for (int i = 0; i < kReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    auto lsn = wal.Append(hdb::wal::WalRecordType::kCommit, 100000u + i, payload);
    if (!lsn.ok() || !wal.WaitDurable(*lsn).ok()) std::abort();
    commit.Add(MicrosSince(t0));
  }
  Add("wal.commit_wait_us", commit.Median(), "us");
  uint64_t ops = 0;
  for (const Samples& s : svc.us) ops += s.size();
  Add("wal.commits_per_sync",
      static_cast<double>(svc.commits) / std::max<uint64_t>(1, svc.wal_syncs), "ratio");
  Add("wal.bytes_per_op", static_cast<double>(svc.wal_bytes) / std::max<uint64_t>(1, ops),
      "B/op");
  Add("recovery.scanned_records", static_cast<double>(svc.last_recovery.scanned_records),
      "count");
  Add("recovery.redo_records", static_cast<double>(svc.last_recovery.redo_records), "count");
  Add("checkpoint.count", static_cast<double>(svc.checkpoints), "count");
}

// exec: EXPLAIN ANALYZE operator times and RuntimeStats over one pass per
// configuration; admission waits from the service's gate.
void LayerHarness::Exec(Star* star, const ServiceResult& svc) {
  Span span(tracer_, "layer.exec");
  for (Config c : {kInMem, kStarved, kPar2}) {
    auto conn = star->db(c)->Connect();
    if (!conn.ok()) std::abort();
    double hj = 0, gb = 0, sort = 0;
    hdb::exec::RuntimeStats sum;
    for (const std::string& q : star->queries()) {
      auto a = (*conn)->Execute("EXPLAIN ANALYZE " + q);
      if (!a.ok()) std::abort();
      hj += OperatorMs(a->explain, "HashJoin");
      gb += OperatorMs(a->explain, "HashGroupBy");
      sort += OperatorMs(a->explain, "Sort");
      auto r = (*conn)->Execute(q);
      if (!r.ok()) std::abort();
      sum.spill_bytes_written += r->exec_stats.spill_bytes_written;
      sum.spill_bytes_read += r->exec_stats.spill_bytes_read;
      sum.parallel_workers_started += r->exec_stats.parallel_workers_started;
    }
    const std::string cfg = kConfigName[c];
    if (c == kPar2) {
      Add("exec.workers_started.par2", static_cast<double>(sum.parallel_workers_started),
          "count/pass");
      continue;
    }
    Add("exec.hashjoin_ms." + cfg, hj, "ms");
    Add("exec.groupby_ms." + cfg, gb, "ms");
    Add("exec.sort_ms." + cfg, sort, "ms");
    Add("exec.spill_bytes_written." + cfg, static_cast<double>(sum.spill_bytes_written),
        "B/pass");
    Add("exec.spill_bytes_read." + cfg, static_cast<double>(sum.spill_bytes_read), "B/pass");
  }
  Add("exec.admitted_after_wait", static_cast<double>(svc.admitted_after_wait), "count");
}

// net: the wire codec on the mix's own frames, and a round trip.
void LayerHarness::Net(Service* service, Checks* checks) {
  Span span(tracer_, "layer.net");
  using hdb::net::Opcode;
  const std::vector<int64_t>& keys = service->sample_keys();
  const std::string simple = service->SampleStatements()[0].second;
  auto encode = [&](std::string* out, int i) {
    const int64_t k = keys[static_cast<size_t>(i) % keys.size()];
    std::string p;
    hdb::net::PutU32(&p, 1);
    hdb::net::PutU16(&p, 1);
    hdb::net::PutValue(&p, Value::Int(static_cast<int32_t>(k)));
    hdb::net::AppendFrame(out, Opcode::kBind, p);
    p.clear();
    hdb::net::PutString(&p, simple);
    hdb::net::AppendFrame(out, Opcode::kQuery, p);
    p.clear();
    hdb::net::PutU16(&p, 1);
    hdb::net::PutValue(&p, Value::Int(static_cast<int32_t>(k)));
    hdb::net::AppendFrame(out, Opcode::kRow, p);
  };
  std::string sink;
  Add("net.encode_ns", 1000 * MedianPerCallUs(64, 64, [&](int i) {
        sink.clear();
        encode(&sink, i);
      }) / 3, "ns");

  std::string stream;
  for (int i = 0; i < 64; ++i) encode(&stream, i);
  uint64_t frames = 0;
  Samples decode;
  for (int rep = 0; rep < 64; ++rep) {
    const Clock::time_point t0 = Clock::now();
    hdb::net::FrameAssembler fa;
    fa.Feed(stream);
    for (;;) {
      auto f = fa.Next();
      if (!f.ok()) std::abort();
      if (!f->has_value()) break;
      hdb::net::PayloadReader r((*f)->payload);
      bool ok = true;
      switch (static_cast<Opcode>((*f)->opcode)) {
        case Opcode::kBind: ok = r.U32().ok() && r.U16().ok() && r.GetValue().ok(); break;
        case Opcode::kQuery: ok = r.String().ok(); break;
        case Opcode::kRow: ok = r.U16().ok() && r.GetValue().ok(); break;
        default: ok = false;
      }
      if (!ok || !r.ExpectEnd().ok()) std::abort();
      ++frames;
    }
    decode.Add(1000 * MicrosSince(t0) / (3 * 64));
  }
  Add("net.decode_ns", decode.Median(), "ns");
  checks->Run("decoder returns every encoded frame", [&](bool perturb) {
    return frames == 64u * 3u * 64u + (perturb ? 1 : 0);
  });

  const bool had_server = service->port() != 0;
  if (!had_server) service->StartServer();
  {
    auto client = hdb::net::Client::Connect("127.0.0.1", service->port());
    if (!client.ok()) std::abort();
    Samples ping;
    for (int i = 0; i < kReps; ++i) {
      const Clock::time_point t0 = Clock::now();
      if (!(*client)->Ping().ok()) std::abort();
      ping.Add(MicrosSince(t0));
    }
    (void)(*client)->Close();
    Add("net.ping_us", ping.Median(), "us");
  }
  if (!had_server) service->StopServer();
}

}  // namespace e2e
