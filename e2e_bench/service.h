// The account database behind the statement-level metrics: a durable
// database (simulated stable media, WAL with group commit) holding an
// account table, a history table and a stored procedure, driven by a
// closed-loop statement mix either embedded or over the wire, and killed
// and reopened at the end of each segment.
#ifndef HDB_E2E_SERVICE_H_
#define HDB_E2E_SERVICE_H_

#include <array>
#include <atomic>
#include <barrier>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "engine/database.h"
#include "net/server.h"
#include "os/stable_storage.h"

namespace e2e {

/// Rows of the account table, and the service database's pool: the table
/// and its index fit.
inline constexpr int64_t kAccounts = 100000;
inline constexpr size_t kPoolFrames = 4096;

struct ServiceSpec {
  bool wire = false;        // clients talk to an in-process net::Server
  int clients = 1;          // closed-loop clients (one thread each on wire)
  bool zipf = false;        // Zipf(0.99) keys; else uniform
  int rounds = 100;         // statement rounds per client per RunRounds,
                            // a multiple of kWindowRounds
};

/// The statement kinds of the mix.
enum Kind { kSel, kSim, kCall, kIns, kRng, kKinds };
inline constexpr const char* kKindName[kKinds] = {"select", "simple_select", "call",
                                                  "insert", "range"};

/// Statement rounds per timing window (tens of milliseconds): each window
/// gives one median per kind, reported by FastLow.
inline constexpr int kWindowRounds = 25;

/// Per-kind latency samples and counts of one service phase.
struct ServiceResult {
  std::array<Samples, kKinds> us;          // every timed statement
  std::array<Samples, kKinds> window_p50;  // the median of each window
  Samples restart_ms;
  double ops_per_s = 0;  // Finish: FastHigh of the service's step rates
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t commits = 0;     // committing statements (CALL, INSERT)
  // Per-layer counts taken from the engine's public stats structs.
  uint64_t wal_syncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t checkpoints = 0;
  uint64_t admitted_after_wait = 0;
  hdb::wal::RecoveryStats last_recovery;
};

class Service {
 public:
  Service(ServiceSpec spec, uint64_t seed, Tracer* tracer);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Opens the database, creates the schema and loads the accounts (and,
  /// on the wire, starts the server). Part of set-up time.
  void Setup();
  /// Warm-up statements (checked, counted) that are not timed.
  void WarmUp();
  /// The timed statement mix: spec.rounds rounds per client.
  void RunRounds();
  /// Kill, timed reopen, and a full check against the ledger.
  void Restart(ServiceResult* out, Checks* checks);
  /// Merges the clients' samples and checks every read against the ledger.
  void Finish(ServiceResult* out, Checks* checks);

  hdb::engine::Database* db() { return db_.get(); }
  const ServiceSpec& spec() const { return spec_; }
  const hdb::engine::DatabaseOptions& options() const { return opts_; }
  /// (kind, text): one statement of each text the mix sends. The simple
  /// select is the select's text, so it is not listed apart.
  std::vector<std::pair<std::string, std::string>> SampleStatements() const;
  /// Keys the mix drew, for the layer harness.
  const std::vector<int64_t>& sample_keys() const { return sample_keys_; }
  uint16_t port() const { return server_ ? server_->port() : 0; }
  void StartServer();
  void StopServer();

 private:
  struct Client;
  struct TickAll;
  void Open();
  void Kill();
  void MarkCounters();
  /// Runs every client for `rounds` rounds: embedded on this thread (one
  /// client), on the wire one thread per client.
  void RunClients(int rounds, bool timed);
  void RunClient(Client* c, int rounds, bool timed, std::barrier<TickAll>* sync);
  void VerifyAfterRestart(Checks* checks);

  const ServiceSpec spec_;
  const uint64_t seed_;
  Tracer* const tracer_;
  uint64_t rounds_span_ = 0;  // parent of the statement spans
  // Counters when this incarnation of the database started its timed mix.
  hdb::wal::WalStats wal_mark_{};
  uint64_t waits_mark_ = 0;
  hdb::engine::DatabaseOptions opts_;
  std::shared_ptr<hdb::os::StableStorage> media_;
  std::unique_ptr<hdb::engine::Database> db_;
  std::unique_ptr<hdb::net::Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unique_ptr<Zipf> zipf_;
  std::vector<int64_t> sample_keys_;
  std::atomic<uint64_t> unticked_ops_{0};  // statements not yet turned into Ticks
  // When each barrier of the current RunClients call completed, its Tick
  // included: the service's own clock for a step.
  std::vector<Clock::time_point> barrier_times_;
  Samples step_ops_s_;  // timed statements / step time, one per timed step

  // The ledger: what every acknowledged statement says the tables hold.
  std::vector<int64_t> balance_;
  int64_t total_ = 0;
  struct Insert {
    int64_t id, k, amt;
  };
  std::vector<Insert> inserts_;  // acknowledged, merged across clients
  // (returned, expected) of every point select and range aggregate.
  std::vector<std::pair<int64_t, int64_t>> reads_;
};

}  // namespace e2e

#endif  // HDB_E2E_SERVICE_H_
