// Reproduces Table 5: ablation study. Variants (paper §4.4):
//   C1 — no coarse-grained clustering (a single shared model)
//   C2 — random segment-to-model assignment (same model count)
//   C3 — fixed-length chopping instead of job-based segmentation
//   C4 — no segment-aware positional encoding
//   C5 — dense FFN instead of the sparse MoE layer
// Pass --extra for additional design-choice ablations flagged in DESIGN.md
// (plain vs trimmed standardization, correlation threshold, HAC linkage).
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "bench_util.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"

int main(int argc, char** argv) {
  using namespace ns;
  using namespace ns::bench;
  const bool extra = argc > 1 && std::strcmp(argv[1], "--extra") == 0;

  std::printf("=== Table 5: ablation study (C1–C5) ===\n");

  struct Variant {
    const char* name;
    std::function<void(NodeSentryConfig&)> tweak;
  };
  std::vector<Variant> variants = {
      {"NodeSentry", [](NodeSentryConfig&) {}},
      {"C1 (single model)",
       [](NodeSentryConfig& c) { c.forced_k = 1; }},
      {"C2 (random assignment)",
       [](NodeSentryConfig& c) { c.random_cluster_assignment = true; }},
      {"C3 (fixed-length segments)",
       [](NodeSentryConfig& c) { c.fixed_length_segmentation = true; }},
      {"C4 (no segment encoding)",
       [](NodeSentryConfig& c) { c.model.use_segment_encoding = false; }},
      {"C5 (dense FFN, no MoE)",
       [](NodeSentryConfig& c) { c.model.use_moe = false; }},
  };
  if (extra) {
    variants.push_back({"extra: no trimmed standardization",
                        [](NodeSentryConfig& c) { c.standardize_trim = 0.0; }});
    variants.push_back({"extra: correlation threshold 0.95",
                        [](NodeSentryConfig& c) {
                          c.correlation_threshold = 0.95;
                        }});
    variants.push_back({"extra: average linkage",
                        [](NodeSentryConfig& c) {
                          c.linkage = Linkage::kAverage;
                        }});
    variants.push_back({"extra: no PCA reduction",
                        [](NodeSentryConfig& c) { c.pca_components = 0; }});
  }

  for (int which = 1; which <= 2; ++which) {
    const SimDataset sim = which == 1 ? make_d1() : make_d2();
    std::printf("\n--- %s ---\n", sim.config.name.c_str());
    TablePrinter table({"Variant", "Precision", "Recall", "AUC", "F1-score"});
    for (const Variant& variant : variants) {
      NodeSentryConfig config = bench_nodesentry_config();
      // The ablation isolates the offline components; online incremental
      // adaptation (§3.5) would otherwise fine-tune shared models on the
      // test windows they misfit and mask a broken variant (notably C2).
      config.incremental_updates = false;
      variant.tweak(config);
      NodeSentry sentry(config);
      sentry.fit(sim.data, sim.train_end);
      const auto det = sentry.detect();
      const auto m = evaluate(sim, det.detections);
      table.add_row({variant.name, format_double(m.precision),
                     format_double(m.recall), format_double(m.auc),
                     format_double(m.f1)});
    }
    std::printf("%s", table.render().c_str());
  }

  std::printf(
      "\npaper reference: D1 F1 — full 0.876, C1 0.301, C2 0.427, C3 0.751, "
      "C4 0.470, C5 0.378; D2 F1 — full 0.891, C1 0.359, C2 0.611, C3 0.780, "
      "C4 0.599, C5 0.504.\nExpected shape: every variant falls below the "
      "full pipeline, with C1 (no clustering) the worst.\n");
  return 0;
}
