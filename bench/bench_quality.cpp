// Detection-quality harness: paper Tables 4 and 5 as rows of one sweep over
// ten D1-sim and ten D2-sim datasets whose seeds are fixed below, so no
// table rests on one lucky seed. Prints every seed's row, then each
// method's mean ± 95 % t-interval and paired F1 / AUC difference against
// NodeSentry (Table 4) or the adaptation-off reference (Table 5).
//
//   bench_quality [--training-subsample F] [--json PATH] [--compare PATH]
//
// --training-subsample applies to every NodeSentry row. --json writes one
// line per (dataset, method, seed) (default BENCH_quality.json). --compare
// pairs each row with the same (dataset, method, seed) of an earlier run's
// JSON, for instance one written by a build of another commit, and prints
// the paired deltas (this run − that run). A row without a method key is
// NodeSentry's; metrics the earlier JSON lacks are skipped.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "baselines/examon.hpp"
#include "baselines/isc20.hpp"
#include "baselines/prodigy.hpp"
#include "baselines/ruad.hpp"
#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "ts/preprocess.hpp"

namespace {

using namespace ns;
using namespace ns::bench;

constexpr const char* kNodeSentry = "NodeSentry";
constexpr const char* kReference = "reference (adaptation off)";

struct Dataset {
  SimDataset (*make)(std::uint64_t seed);
  std::uint64_t seeds[10];
  /// The paper's Table 4 as printed (method, P, R, F1, AUC, offline,
  /// online); its methods are named as this harness's rows are.
  const char* table4[5][7];
  const char* table5_f1;
};

const Dataset kDatasets[] = {
    {make_d1,
     {11, 12, 13, 14, 15, 16, 17, 18, 19, 20},
     {{"NodeSentry", "0.840", "0.915", "0.876", "0.964", "1.06 day", "2.47 s"},
      {"Prodigy", "0.227", "0.132", "0.167", "0.571", "4.79 day", "9.52 s"},
      {"RUAD", "0.323", "0.306", "0.314", "0.629", "18.94 day", "7.54 s"},
      {"ExaMon", "0.203", "0.217", "0.210", "0.586", "7.95 day", "0.67 s"},
      {"ISC 20", "0.026", "0.154", "0.045", "0.557", "1.64 h", "7.35 s"}},
     "full 0.876, C1 0.301, C2 0.427, C3 0.751, C4 0.470, C5 0.378"},
    {make_d2,
     {22, 23, 24, 25, 26, 27, 28, 29, 30, 31},
     {{"NodeSentry", "0.884", "0.897", "0.891", "0.923", "27.21 min",
       "2.31 s"},
      {"Prodigy", "0.157", "0.271", "0.199", "0.622", "31.44 min", "6.28 s"},
      {"RUAD", "0.403", "0.284", "0.333", "0.659", "6.69 h", "8.46 s"},
      {"ExaMon", "0.407", "0.216", "0.282", "0.612", "3.35 h", "1.09 s"},
      {"ISC 20", "0.006", "0.103", "0.012", "0.500", "2.01 min", "8.81 s"}},
     "full 0.891, C1 0.359, C2 0.611, C3 0.780, C4 0.599, C5 0.504"}};

/// Table 5 rows: the bench config with adaptation off and one change. The
/// last four are the design choices DESIGN §5 flags.
struct Variant {
  const char* name;
  void (*tweak)(NodeSentryConfig&);
};

const Variant kVariants[] = {
    {kReference, [](NodeSentryConfig&) {}},
    {"C1 (single model)", [](NodeSentryConfig& c) { c.forced_k = 1; }},
    {"C2 (random assignment)",
     [](NodeSentryConfig& c) { c.random_cluster_assignment = true; }},
    {"C3 (fixed-length segments)",
     [](NodeSentryConfig& c) { c.fixed_length_segmentation = true; }},
    {"C4 (no segment encoding)",
     [](NodeSentryConfig& c) { c.model.use_segment_encoding = false; }},
    {"C5 (dense FFN, no MoE)",
     [](NodeSentryConfig& c) { c.model.use_moe = false; }},
    {"no trimmed standardization",
     [](NodeSentryConfig& c) { c.standardize_trim = 0.0; }},
    {"correlation threshold 0.95",
     [](NodeSentryConfig& c) { c.correlation_threshold = 0.95; }},
    {"average linkage",
     [](NodeSentryConfig& c) { c.linkage = Linkage::kAverage; }},
    {"no PCA", [](NodeSentryConfig& c) { c.pca_components = 0; }},
};

struct SeedRow {
  std::string dataset;
  std::string method;
  std::uint64_t seed = 0;
  double precision = 0.0, recall = 0.0, f1 = 0.0, auc = 0.0;
  double event_recall = 0.0;
  double clean_flagged_pct = 0.0;  ///< flagged % of clean nodes' test points
  double clean_runs_per_hour = 0.0;  ///< their alarm runs per node-hour
  std::size_t matched = 0, unmatched = 0, finetunes = 0;  ///< 0 for baselines
  double offline_s = 0.0;  ///< fit, or the shared preprocessing + training
  double online_s = 0.0;   ///< detect seconds per node
};

/// A column of the tables, the JSON and --compare, named by its JSON key.
struct Metric {
  const char* key;
  double SeedRow::*field;
  bool timing;  ///< one timing on this host: medians and no verdict
};
constexpr Metric kMetrics[] = {
    {"precision", &SeedRow::precision, false},
    {"recall", &SeedRow::recall, false},
    {"f1", &SeedRow::f1, false},
    {"auc", &SeedRow::auc, false},
    {"event_recall", &SeedRow::event_recall, false},
    {"clean_flagged_pct", &SeedRow::clean_flagged_pct, false},
    {"clean_runs_per_hour", &SeedRow::clean_runs_per_hour, false},
    {"offline_s", &SeedRow::offline_s, true},
    {"online_s", &SeedRow::online_s, true}};

SeedRow score(const SimDataset& sim, std::uint64_t seed, std::string method,
              const std::vector<NodeDetection>& detections) {
  const auto masks = masks_for(sim);
  const DetectionMetrics m = evaluate(sim, detections);
  const CleanNodeAlarms clean = clean_node_alarms(
      detections, sim.data.labels, masks, sim.data.interval_seconds);
  SeedRow row;
  row.dataset = sim.config.name;
  row.method = std::move(method);
  row.seed = seed;
  row.precision = m.precision;
  row.recall = m.recall;
  row.f1 = m.f1;
  row.auc = m.auc;
  row.event_recall = event_recall(detections, sim.data.labels, masks).recall();
  row.clean_flagged_pct = 100.0 * clean.flagged_share;
  row.clean_runs_per_hour = clean.runs_per_node_hour;
  return row;
}

SeedRow run_nodesentry(const SimDataset& sim, std::uint64_t seed,
                       const char* method, const NodeSentryConfig& config) {
  NodeSentry sentry(config);
  const NodeSentry::FitReport fit = sentry.fit(sim.data, sim.train_end);
  const NodeSentry::DetectReport det = sentry.detect();
  SeedRow row = score(sim, seed, method, det.detections);
  row.matched = det.segments_matched;
  row.unmatched = det.segments_unmatched;
  row.finetunes = det.incremental_finetunes;
  row.offline_s = fit.total_seconds;
  row.online_s = det.total_seconds / sim.data.num_nodes();
  return row;
}

/// Appends one dataset seed's rows: NodeSentry with adaptation on, the four
/// baselines, then the Table 5 rows.
void run_seed(const SimDataset& sim, std::uint64_t seed,
              double training_subsample, std::vector<SeedRow>& rows) {
  NodeSentryConfig config = bench_nodesentry_config();
  config.training_subsample = training_subsample;
  rows.push_back(run_nodesentry(sim, seed, kNodeSentry, config));

  // Preprocessing is identical work for every baseline, so each is
  // charged its time once.
  Stopwatch pre_sw;
  const PreprocessOutput pre = preprocess(sim.data, sim.train_end);
  const double pre_seconds = pre_sw.elapsed_s();
  std::unique_ptr<Detector> baselines[] = {
      std::make_unique<Prodigy>(), std::make_unique<Ruad>(),
      std::make_unique<Examon>(), std::make_unique<Isc20>()};
  for (const auto& detector : baselines) {
    const DetectorReport report = detector->run(pre.dataset, sim.train_end);
    SeedRow row = score(sim, seed, detector->name(), report.detections);
    row.offline_s = pre_seconds + report.train_seconds;
    row.online_s = report.detect_seconds / sim.data.num_nodes();
    rows.push_back(std::move(row));
  }

  // The ablations isolate the offline components: online fine-tuning
  // (§3.5) would retune shared models on the test windows they misfit and
  // mask a broken variant (notably C2).
  config.incremental_updates = false;
  for (const Variant& variant : kVariants) {
    NodeSentryConfig tweaked = config;
    variant.tweak(tweaked);
    rows.push_back(run_nodesentry(sim, seed, variant.name, tweaked));
  }
}

/// Two-sided 95 % Student-t critical value for `df` degrees of freedom.
double t95(std::size_t df) {
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  return df <= std::size(kTable) ? kTable[df - 1] : 1.960;
}

struct Interval {
  double mean = 0.0;
  double half_width = 0.0;  ///< 95 % t-interval: mean ± half_width
};

Interval t_interval(const std::vector<double>& xs) {
  Interval iv;
  if (xs.empty()) return iv;
  for (const double x : xs) iv.mean += x;
  iv.mean /= static_cast<double>(xs.size());
  if (xs.size() < 2) return iv;
  double ss = 0.0;
  for (const double x : xs) ss += (x - iv.mean) * (x - iv.mean);
  const double sd = std::sqrt(ss / static_cast<double>(xs.size() - 1));
  iv.half_width =
      t95(xs.size() - 1) * sd / std::sqrt(static_cast<double>(xs.size()));
  return iv;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

std::string format_interval(const Interval& iv, const char* fmt) {
  char mean[32], half[32];
  std::snprintf(mean, sizeof mean, fmt, iv.mean);
  std::snprintf(half, sizeof half, "%.3f", iv.half_width);
  return std::string(mean) + " ± " + half;
}

using RowSet = std::vector<const SeedRow*>;

/// One method's rows of one dataset.
RowSet select(const std::vector<SeedRow>& rows, const std::string& dataset,
              const std::string& method) {
  RowSet out;
  for (const SeedRow& row : rows)
    if (row.dataset == dataset && row.method == method) out.push_back(&row);
  return out;
}

std::vector<double> column(const RowSet& rows, double SeedRow::*field) {
  std::vector<double> xs;
  for (const SeedRow* row : rows) xs.push_back(row->*field);
  return xs;
}

/// Differences a − b of one field over the seeds both row sets hold.
struct Paired {
  Interval delta;
  std::size_t up = 0, down = 0, n = 0;
};

Paired paired(const RowSet& a, const RowSet& b, double SeedRow::*field) {
  std::vector<double> deltas;
  for (const SeedRow* x : a)
    for (const SeedRow* y : b)
      if (x->seed == y->seed) deltas.push_back(x->*field - y->*field);
  Paired out;
  for (const double d : deltas) {
    out.up += d > 0.0;
    out.down += d < 0.0;
  }
  out.n = deltas.size();
  out.delta = t_interval(deltas);
  return out;
}

std::string format_paired(const Paired& p) {
  return format_interval(p.delta, "%+.3f") + " (" + std::to_string(p.up) +
         " up / " + std::to_string(p.down) + " down / " +
         std::to_string(p.n - p.up - p.down) + " tie)";
}

void print_seed_rows(const std::vector<SeedRow>& rows,
                     const std::string& dataset) {
  std::printf("\n--- %s: every seed's row ---\n", dataset.c_str());
  std::vector<std::string> header = {"Method", "Seed"};
  for (const Metric& metric : kMetrics) header.push_back(metric.key);
  header.insert(header.end(), {"matched", "unmatched", "finetunes"});
  TablePrinter table(header);
  for (const SeedRow& row : rows) {
    if (row.dataset != dataset) continue;
    std::vector<std::string> cells = {row.method, std::to_string(row.seed)};
    for (const Metric& metric : kMetrics)
      cells.push_back(format_double(row.*metric.field, metric.timing ? 4 : 3));
    for (const std::size_t count : {row.matched, row.unmatched, row.finetunes})
      cells.push_back(std::to_string(count));
    table.add_row(cells);
  }
  std::printf("%s", table.render().c_str());
}

/// Each method's mean ± 95 % CI, median seconds and paired F1 and AUC
/// difference (base − method when `base_first`, else method − base), then
/// the paper's rows.
void print_section(const std::vector<SeedRow>& rows, const char* title,
                   const std::string& dataset,
                   const std::vector<std::string>& methods,
                   const std::string& base, bool base_first,
                   std::span<const char* const[7]> paper) {
  const RowSet base_rows = select(rows, dataset, base);
  const std::string d = base_first ? base + " − method" : "method − " + base;
  std::printf("\n=== %s · %s: mean ± 95 %% CI over %zu seeds; d = %s, paired "
              "over seeds; seconds are medians of this host's timing ===\n",
              title, dataset.c_str(), base_rows.size(), d.c_str());
  std::vector<std::string> header = {"Method"};
  for (const Metric& metric : kMetrics)
    if (!metric.timing) header.push_back(metric.key);
  header.insert(header.end(), {"Offline", "Online(/node)", "dF1", "dAUC"});
  TablePrinter table(header);
  for (const std::string& method : methods) {
    const RowSet set = select(rows, dataset, method);
    std::vector<std::string> cells = {method};
    for (const Metric& metric : kMetrics)
      if (!metric.timing)
        cells.push_back(
            format_interval(t_interval(column(set, metric.field)), "%.3f"));
    cells.push_back(format_seconds(median(column(set, &SeedRow::offline_s))));
    cells.push_back(format_seconds(median(column(set, &SeedRow::online_s))));
    for (double SeedRow::*field : {&SeedRow::f1, &SeedRow::auc})
      cells.push_back(method == base ? ""
                      : base_first
                          ? format_paired(paired(base_rows, set, field))
                          : format_paired(paired(set, base_rows, field)));
    table.add_row(cells);
  }
  for (const auto& row : paper)
    table.add_row({std::string("paper: ") + row[0], row[1], row[2], row[3],
                   row[4], "", "", "", row[5], row[6]});
  std::printf("%s", table.render().c_str());
}

bool write_json(const std::string& path, double training_subsample,
                const std::vector<SeedRow>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"training_subsample\": %.17g,\n", training_subsample);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  // One row per line: --compare reads the file back line by line. The
  // quality metrics keep every bit (%.17g), so a row whose detections did
  // not change pairs with a delta of exactly 0.
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SeedRow& r = rows[i];
    std::fprintf(f, "    {\"dataset\": \"%s\", \"method\": \"%s\", "
                 "\"seed\": %llu",
                 r.dataset.c_str(), r.method.c_str(),
                 static_cast<unsigned long long>(r.seed));
    for (const Metric& metric : kMetrics)
      std::fprintf(f, metric.timing ? ", \"%s\": %.6f" : ", \"%s\": %.17g",
                   metric.key, r.*metric.field);
    std::fprintf(f,
                 ", \"matched\": %zu, \"unmatched\": %zu, \"finetunes\": "
                 "%zu}%s\n",
                 r.matched, r.unmatched, r.finetunes,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

/// The number after `"key":` on `line`, or NaN when the key is absent.
double json_number(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

/// The string after `"key": "` on `line`, or `fallback` when absent.
std::string json_string(const std::string& line, const char* key,
                        const char* fallback) {
  const std::string needle = std::string("\"") + key + "\": \"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return fallback;
  const std::size_t begin = at + needle.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

/// Rows of a JSON file written by write_json() with the same training
/// subsample; exits when the file cannot be read or was run at another.
std::vector<SeedRow> read_rows(const std::string& path,
                               double training_subsample) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::vector<SeedRow> rows;
  for (std::string line; std::getline(in, line);) {
    const double subsample = json_number(line, "training_subsample");
    if (!std::isnan(subsample) &&
        std::abs(subsample - training_subsample) > 1e-9) {
      std::fprintf(stderr,
                   "%s was run at training subsample %.3f, this run at "
                   "%.3f\n",
                   path.c_str(), subsample, training_subsample);
      std::exit(2);
    }
    SeedRow row;
    row.dataset = json_string(line, "dataset", "");
    if (row.dataset.empty()) continue;
    row.method = json_string(line, "method", kNodeSentry);
    row.seed = static_cast<std::uint64_t>(json_number(line, "seed"));
    for (const Metric& metric : kMetrics)
      row.*metric.field = json_number(line, metric.key);
    rows.push_back(row);
  }
  return rows;
}

void print_comparison(const std::string& dataset, const std::string& method,
                      const RowSet& now, const RowSet& then) {
  if (paired(now, then, &SeedRow::f1).n == 0) return;  // not in `then`
  std::printf("\n--- %s · %s: this run − compared run ---\n",
              dataset.c_str(), method.c_str());
  for (const Metric& metric : kMetrics) {
    const Paired p = paired(now, then, metric.field);
    if (std::isnan(p.delta.mean)) continue;  // a column `then` lacks
    if (metric.timing) {
      // Timings taken at different times also differ by host load, so a
      // verdict on them would read load as a code change.
      std::printf("  %-19s %+.4f s mean delta (host timing, no verdict)\n",
                  metric.key, p.delta.mean);
      continue;
    }
    const char* verdict = p.delta.mean - p.delta.half_width > 0.0 ? "higher"
                          : p.delta.mean + p.delta.half_width < 0.0
                              ? "lower"
                              : "no change";
    std::printf("  %-19s %s  (95%%: %s)\n", metric.key,
                format_paired(p).c_str(), verdict);
  }
}

}  // namespace

int main(int argc, char** argv) {
  double training_subsample = 1.0;
  std::string json_path = "BENCH_quality.json";
  std::string compare_path;
  for (int i = 1; i < argc; ++i) {
    // Each option takes its value as the next argument or after '='.
    const auto value = [&](const char* option) -> const char* {
      const std::size_t len = std::strlen(option);
      if (std::strncmp(argv[i], option, len) != 0) return nullptr;
      if (argv[i][len] == '=') return argv[i] + len + 1;
      if (argv[i][len] == '\0' && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = value("--training-subsample")) {
      training_subsample = std::atof(v);
    } else if (const char* v = value("--json")) {
      json_path = v;
    } else if (const char* v = value("--compare")) {
      compare_path = v;
    } else {
      std::fprintf(stderr,
                   "usage: bench_quality [--training-subsample F] "
                   "[--json PATH] [--compare PATH]\n");
      return 2;
    }
  }
  if (!(training_subsample > 0.0 && training_subsample <= 1.0)) {
    std::fprintf(stderr, "--training-subsample must be in (0, 1]\n");
    return 2;
  }

  std::vector<SeedRow> base;
  if (!compare_path.empty()) base = read_rows(compare_path, training_subsample);

  std::printf("=== Quality sweep, Tables 4 and 5: bench config, training "
              "subsample %.2f ===\n",
              training_subsample);
  std::vector<SeedRow> rows;
  for (const Dataset& spec : kDatasets) {
    for (const std::uint64_t seed : spec.seeds)
      run_seed(spec.make(seed), seed, training_subsample, rows);
    const std::string dataset = rows.back().dataset;
    // Table 5 ends with NodeSentry, whose d there is adaptation on − off.
    std::vector<std::string> table4, table5;
    for (const auto& row : spec.table4) table4.push_back(row[0]);
    for (const Variant& variant : kVariants) table5.push_back(variant.name);
    table5.push_back(kNodeSentry);
    print_seed_rows(rows, dataset);
    print_section(rows, "Table 4", dataset, table4, kNodeSentry, true,
                  spec.table4);
    print_section(rows, "Table 5, adaptation off", dataset, table5,
                  kReference, false, {});
    std::printf("NodeSentry's d is adaptation on − off. Paper Table 5 F1 (its "
                "full pipeline is the reference): %s\n",
                spec.table5_f1);
    if (!compare_path.empty())
      for (const SeedRow& row : rows)  // each method once, in run order
        if (row.dataset == dataset && row.seed == spec.seeds[0])
          print_comparison(dataset, row.method,
                           select(rows, dataset, row.method),
                           select(base, dataset, row.method));
  }

  if (!write_json(json_path, training_subsample, rows)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
