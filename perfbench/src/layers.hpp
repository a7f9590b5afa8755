// Per-layer metrics of a traced run: the serve/fleet counters of the traced
// passes, the fit stage split, and a layer pass that calls each layer's
// public entry point on inputs taken from the run (raw samples, matching
// windows, final score timelines). A layer the workload does not run itself
// is exercised on inputs shaped from the run, and its spans say so.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/nodesentry.hpp"
#include "correlate/incident.hpp"

namespace perfbench {

/// Samples of each per-layer metric over a traced run; each metric reports
/// the median of its samples.
class LayerMetrics {
 public:
  void add(const std::string& name, double value, const char* unit);
  void emit(RunResult& out) const;

 private:
  std::map<std::string, std::pair<std::vector<double>, std::string>> samples_;
};

/// serve.* and fleet.* metrics of one traced pass.
void add_serve_metrics(const PassResult& pass, LayerMetrics& out);

/// Fit stage split; `chunks` is the number of training chunks per epoch.
void add_fit_metrics(const ns::NodeSentry::FitReport& fit, std::size_t chunks,
                     std::size_t epochs, LayerMetrics& out);
std::size_t training_chunks(const ns::NodeSentry& sentry);

void add_detect_metrics(const ns::NodeSentry::DetectReport& report,
                        double detect_s, LayerMetrics& out);

/// store.* metrics of one drained writer plus its query phase.
void add_store_metrics(const ns::StoreWriter& writer, double drain_s,
                       const QueryStats& queries, LayerMetrics& out);

struct LayerInputs {
  ns::NodeSentry* sentry = nullptr;
  const ns::SimDataset* sim = nullptr;
  /// The samples of one pass (offline: the test region, one copy).
  const Population* population = nullptr;
  /// Final timelines; the first sim->data.num_nodes() are used.
  const std::vector<ns::NodeDetection>* detections = nullptr;
  bool quantized = false;
  /// Chunks per batched forward: the run's mean batch occupancy (serve),
  /// or 1 for detect()'s one-chunk forwards.
  std::size_t blocks_per_batch = 1;
};

/// ts.preprocess, features.match_extract, cluster.match, nn.forward,
/// core.score and core.threshold over one copy of the run's inputs.
void replay_layers(const LayerInputs& in, Tracer& tracer, LayerMetrics& out);

/// Cross-node incident grouping of `result`; records correlate.* metrics.
ns::IncidentReport build_incidents(
    const ns::ServeResult& result, std::size_t start_t,
    const std::vector<std::vector<ns::JobSpan>>& jobs,
    const ns::SimDataset& sim, const ns::NodeSentry& sentry, Tracer& tracer,
    double* build_s);

/// Seals the first copy of `pop` with the anomaly bits of `detections` in a
/// store under `dir` through a StoreWriter, drains it, queries it, and
/// removes it (workloads that serve without a store).
void shaped_store_pass(const ns::SimDataset& sim, const Population& pop,
                       const std::vector<ns::NodeDetection>& detections,
                       const std::string& dir, std::uint64_t seed,
                       Tracer& tracer, LayerMetrics& out);

/// The traced run's span-based overhead: traced vs untraced pass walls.
double overhead_fraction(const std::vector<double>& traced_walls,
                         const std::vector<double>& untraced_walls);

}  // namespace perfbench
