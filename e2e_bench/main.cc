// HolisticDB end-to-end benchmark program.
//
//   hdb_e2e --workload oltp|analytic|wire --seed N --seconds S --trace 0|1
//
// One process runs one workload and ends with one JSON result line. Every
// workload runs the account service (statement mix, kill, reopen) and the
// star-schema passes in three configurations; the workload fixes the
// transport, the key distribution, the data sizes and how much of the run
// each part takes. The number of statements and passes is fixed by
// --seconds (a rate per second calibrated for each workload), never by a
// clock, so the governors see the same sequence on every run. --trace 1
// runs the same workload twice, untraced then traced, and then the layer
// harness, and prints the per-layer metrics instead.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "analytic.h"
#include "bench_util.h"
#include "layers.h"
#include "service.h"

namespace e2e {
namespace {

struct Workload {
  std::string name;  // empty: no such workload
  ServiceSpec service;
  StarSpec star{};
  double rounds_per_s = 0;  // service rounds per client, per --seconds
  double passes_per_s = 0;  // star passes (all three configs), per --seconds
  // Set from --seconds: steps per segment. A step is spec.rounds service
  // rounds per client, then one star pass.
  int steps = 0;
};

// Service segments per run, each ending in kill + reopen.
constexpr int kSegments = 8;

// Small star for the workloads whose headline is the account service.
constexpr StarSpec kSmallStar{20000, 5000, 100, 1000, 4096, 64, 10};

Workload Lookup(const std::string& name) {
  Workload w;
  if (name == "oltp") {
    // Embedded, one client, Zipf keys; the account table and its index
    // fit the pool.
    w.service.zipf = true;
    w.star = kSmallStar;
    w.rounds_per_s = 180;
    w.passes_per_s = 2;
  } else if (name == "analytic") {
    // A star schema several times the starved pool; a light account mix.
    w.star = StarSpec{100000, 25000, 1000, 5000, 16384, 256, 12};
    w.rounds_per_s = 40;
    w.passes_per_s = 1;
  } else if (name == "wire") {
    // Three loopback clients on their own threads, uniform keys in
    // disjoint blocks, a 2-worker server.
    w.service.wire = true;
    w.service.clients = 3;
    w.star = kSmallStar;
    w.rounds_per_s = 105;
    w.passes_per_s = 2;
  } else {
    return w;
  }
  w.name = name;
  return w;
}

struct RunOutput {
  ServiceResult svc;
  PassResult star;
  double setup_s = 0;
  double total_s = 0;
  bool correct = false;
};

/// Runs a workload on fresh databases. `layers` (traced run only) gets the
/// live databases afterwards.
RunOutput RunOnce(const Workload& w, uint64_t seed, Tracer* tracer,
                  Clock::time_point process_start, LayerHarness* layers) {
  RunOutput out;
  Checks checks;
  Service service(w.service, seed, tracer);
  Star star(w.star, seed, tracer);
  {
    Span s(tracer, "setup");
    service.Setup();
    star.Setup();
  }
  out.setup_s = MicrosSince(process_start) / 1e6;
  const Clock::time_point t0 = Clock::now();
  {
    Span s(tracer, "warmup");
    service.WarmUp();
    star.WarmUp(&out.star, &checks);
  }
  // Steps interleave the two parts finely, so every metric samples the
  // host's fast and slow phases over the whole run (see FastLow).
  for (int seg = 0; seg < kSegments; ++seg) {
    for (int step = 0; step < w.steps; ++step) {
      service.RunRounds();
      star.Run(1, &out.star, &checks);
    }
    service.Restart(&out.svc, &checks);
  }
  service.Finish(&out.svc, &checks);
  out.total_s = MicrosSince(t0) / 1e6;
  if (layers != nullptr) layers->Measure(&service, &star, out.svc, out.star, &checks);
  out.correct = checks.ok() && checks.count() > 0;
  return out;
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  std::string workload, trace_dir = ".bench_build/traces";
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") workload = v;
    else if (flag == "--seed") seed = std::atoll(v);
    else if (flag == "--seconds") seconds = std::atoll(v);
    else if (flag == "--trace") trace = std::atoll(v);
    else if (flag == "--trace-dir") trace_dir = v;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  Workload w = Lookup(workload);
  if (w.name.empty() || seed < 0 || seconds < 1 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: hdb_e2e --workload oltp|analytic|wire --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  w.steps = std::max(1, static_cast<int>(w.passes_per_s * seconds / kSegments));
  const int windows = std::max(1, static_cast<int>(w.rounds_per_s * seconds / kSegments /
                                                       w.steps / kWindowRounds + 0.5));
  w.service.rounds = windows * kWindowRounds;
  const uint64_t s = static_cast<uint64_t>(seed);

  Metrics metrics;
  uint64_t attempted = 0, failed = 0;
  bool correct = false;
  if (trace == 0) {
    const RunOutput r = RunOnce(w, s, nullptr, process_start, nullptr);
    const ServiceResult& v = r.svc;
    metrics = {
        {"setup_s", {r.setup_s, "s"}},
        {"throughput_ops_s", {v.ops_per_s, "ops/s"}},
        {"select_p50_us", {FastLow(v.window_p50[kSel]), "us"}},
        {"simple_select_p50_us", {FastLow(v.window_p50[kSim]), "us"}},
        {"call_p50_us", {FastLow(v.window_p50[kCall]), "us"}},
        {"insert_p50_us", {FastLow(v.window_p50[kIns]), "us"}},
        {"range_p50_us", {FastLow(v.window_p50[kRng]), "us"}},
        {"restart_ms", {FastLow(v.restart_ms), "ms"}},
        {"inmem_pass_ms", {r.star.PassMs(kInMem), "ms"}},
        {"spill_pass_ms", {r.star.PassMs(kStarved), "ms"}},
        {"par2_pass_ms", {r.star.PassMs(kPar2), "ms"}},
    };
    // For reading only: run-wide p50 and p99 with their sample counts.
    std::printf("tails:");
    for (int kind = 0; kind < kKinds; ++kind) {
      const Samples& smp = v.us[kind];
      std::printf(" %s_p50/p99_us=%.1f/%.1f(n=%zu)", kKindName[kind], smp.Median(),
                  smp.Percentile(0.99), smp.size());
    }
    std::printf(" restarts=%zu run_s=%.2f\n", v.restart_ms.size(), r.total_s);
    attempted = v.attempted + r.star.queries;
    failed = v.failed + r.star.failed;
    correct = r.correct;
  } else {
    // Untraced first, then the same workload traced: the difference in
    // the timed part is the tracing overhead.
    const RunOutput plain = RunOnce(w, s, nullptr, process_start, nullptr);
    Tracer tracer;
    LayerHarness layers(&tracer);
    const RunOutput traced = RunOnce(w, s, &tracer, Clock::now(), &layers);
    metrics = layers.metrics();
    metrics.push_back(
        {"trace.overhead_pct",
         {100.0 * (traced.total_s - plain.total_s) / plain.total_s, "%"}});
    metrics.push_back({"trace.spans", {static_cast<double>(tracer.size()), "count"}});
    std::filesystem::create_directories(trace_dir);
    const std::string path =
        trace_dir + "/" + workload + "-" + std::to_string(seed) + ".json";
    if (!tracer.WriteChromeJson(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("trace: %s\n", path.c_str());
    attempted = plain.svc.attempted + plain.star.queries + traced.svc.attempted +
                traced.star.queries;
    failed = plain.svc.failed + plain.star.failed + traced.svc.failed +
             traced.star.failed;
    correct = plain.correct && traced.correct;
  }
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
