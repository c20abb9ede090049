// The layer harness behind the traced run. After a traced workload it
// times calls into each layer's public functions on that workload's own
// keys, statement texts, rows and frames, and reads the counts the layers
// publish in their stats structs. Each metric names the src/ module it
// measures; README.md maps each to the end-to-end metric it should move.
#ifndef HDB_E2E_LAYERS_H_
#define HDB_E2E_LAYERS_H_

#include "analytic.h"
#include "bench_util.h"
#include "service.h"

namespace e2e {

class LayerHarness {
 public:
  explicit LayerHarness(Tracer* tracer) : tracer_(tracer) {}

  void Measure(Service* service, Star* star, const ServiceResult& svc,
               const PassResult& passes, Checks* checks);
  const Metrics& metrics() const { return metrics_; }

 private:
  void Engine(Service* service);
  void AccessPaths(Service* service, Star* star, Checks* checks);
  void Storage(Service* service, Star* star, const PassResult& passes);
  void Txn(Service* service);
  void Wal(Service* service, const ServiceResult& svc);
  void Exec(Star* star, const ServiceResult& svc);
  void Net(Service* service, Checks* checks);
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, {value, unit}});
  }

  Tracer* const tracer_;
  Metrics metrics_;
};

}  // namespace e2e

#endif  // HDB_E2E_LAYERS_H_
