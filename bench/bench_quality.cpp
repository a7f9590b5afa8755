// Seed sweep of NodeSentry's detection quality. fit() + detect() with
// bench_nodesentry_config() run on ten D1-sim and ten D2-sim datasets whose
// seeds are fixed below, so no table rests on one lucky seed. Prints every
// seed's point-adjusted precision / recall / F1 / AUC, matched and unmatched
// test segments, fine-tunes, library growth during detect() and detect
// seconds, then each dataset's mean ± 95 % t-interval.
//
//   bench_quality [--training-subsample F] [--json PATH] [--compare PATH]
//
// --json writes every seed's row (default BENCH_quality.json). --compare
// pairs each seed with the same dataset and seed of an earlier run's JSON,
// for instance one written by a build of another commit, and prints the
// paired deltas (this run − that run) with their 95 % t-intervals and the
// number of seeds that got better and worse.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"

namespace {

using namespace ns;
using namespace ns::bench;

constexpr std::uint64_t kD1Seeds[] = {11, 12, 13, 14, 15, 16, 17, 18, 19, 20};
constexpr std::uint64_t kD2Seeds[] = {22, 23, 24, 25, 26, 27, 28, 29, 30, 31};

struct SeedRow {
  std::string dataset;
  std::uint64_t seed = 0;
  double precision = 0.0, recall = 0.0, f1 = 0.0, auc = 0.0;
  std::size_t matched = 0, unmatched = 0, finetunes = 0;
  std::size_t grown = 0;  ///< clusters detect() added to the library
  double detect_s = 0.0;
};

SeedRow run_seed(const SimDataset& sim, std::uint64_t seed,
                 double training_subsample) {
  NodeSentryConfig config = bench_nodesentry_config();
  config.training_subsample = training_subsample;
  NodeSentry sentry(config);
  sentry.fit(sim.data, sim.train_end);
  const std::size_t fitted = sentry.library().size();
  const NodeSentry::DetectReport det = sentry.detect();
  const DetectionMetrics m = evaluate(sim, det.detections);
  SeedRow row;
  row.dataset = sim.config.name;
  row.seed = seed;
  row.precision = m.precision;
  row.recall = m.recall;
  row.f1 = m.f1;
  row.auc = m.auc;
  row.matched = det.segments_matched;
  row.unmatched = det.segments_unmatched;
  row.finetunes = det.incremental_finetunes;
  row.grown = sentry.library().size() - fitted;
  row.detect_s = det.total_seconds;
  return row;
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

std::string format_interval(const Interval& iv, const char* fmt) {
  char mean[32], half[32];
  std::snprintf(mean, sizeof mean, fmt, iv.mean);
  std::snprintf(half, sizeof half, "%.3f", iv.half_width);
  return std::string(mean) + " ± " + half;
}

struct Metric {
  const char* name;
  double SeedRow::*field;
};
constexpr Metric kMetrics[] = {{"precision", &SeedRow::precision},
                               {"recall", &SeedRow::recall},
                               {"f1", &SeedRow::f1},
                               {"auc", &SeedRow::auc},
                               {"detect_s", &SeedRow::detect_s}};

std::vector<double> column(const std::vector<const SeedRow*>& rows,
                           double SeedRow::*field) {
  std::vector<double> xs;
  for (const SeedRow* row : rows) xs.push_back(row->*field);
  return xs;
}

void print_dataset(const std::string& dataset,
                   const std::vector<const SeedRow*>& rows) {
  std::printf("\n--- %s: %zu seeds ---\n", dataset.c_str(), rows.size());
  TablePrinter table({"Seed", "Precision", "Recall", "F1", "AUC", "Matched",
                      "Unmatched", "Fine-tunes", "Grown", "Detect s"});
  for (const SeedRow* row : rows)
    table.add_row({std::to_string(row->seed), format_double(row->precision),
                   format_double(row->recall), format_double(row->f1),
                   format_double(row->auc), std::to_string(row->matched),
                   std::to_string(row->unmatched),
                   std::to_string(row->finetunes), std::to_string(row->grown),
                   format_double(row->detect_s, 2)});
  std::printf("%s", table.render().c_str());
  std::printf("mean ± 95%% CI:");
  for (const Metric& metric : kMetrics)
    std::printf(" %s %s", metric.name,
                format_interval(t_interval(column(rows, metric.field)), "%.3f")
                    .c_str());
  std::printf("\n");
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
  // metrics keep every bit (%.17g), so a seed whose detections did not
  // change pairs with a delta of exactly 0.
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SeedRow& r = rows[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"seed\": %llu, \"precision\": "
                 "%.17g, \"recall\": %.17g, \"f1\": %.17g, \"auc\": %.17g, "
                 "\"matched\": %zu, \"unmatched\": %zu, \"finetunes\": %zu, "
                 "\"grown\": %zu, \"detect_s\": %.4f}%s\n",
                 r.dataset.c_str(), static_cast<unsigned long long>(r.seed),
                 r.precision, r.recall, r.f1, r.auc, r.matched, r.unmatched,
                 r.finetunes, r.grown, r.detect_s,
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
    const std::size_t at = line.find("\"dataset\": \"");
    if (at == std::string::npos) continue;
    SeedRow row;
    const std::size_t begin = at + std::strlen("\"dataset\": \"");
    row.dataset = line.substr(begin, line.find('"', begin) - begin);
    row.seed = static_cast<std::uint64_t>(json_number(line, "seed"));
    row.precision = json_number(line, "precision");
    row.recall = json_number(line, "recall");
    row.f1 = json_number(line, "f1");
    row.auc = json_number(line, "auc");
    row.detect_s = json_number(line, "detect_s");
    rows.push_back(row);
  }
  return rows;
}

void print_comparison(const std::string& dataset,
                      const std::vector<const SeedRow*>& rows,
                      const std::vector<SeedRow>& base) {
  std::vector<std::pair<const SeedRow*, const SeedRow*>> pairs;
  for (const SeedRow* row : rows)
    for (const SeedRow& b : base)
      if (b.dataset == row->dataset && b.seed == row->seed)
        pairs.emplace_back(row, &b);
  std::printf("\n--- %s: this run − compared run, %zu paired seeds ---\n",
              dataset.c_str(), pairs.size());
  if (pairs.empty()) return;
  TablePrinter table({"Seed", "dPrecision", "dRecall", "dF1", "dAUC",
                      "dDetect s"});
  char cell[5][32];
  for (const auto& [now, then] : pairs) {
    for (std::size_t k = 0; k < std::size(kMetrics); ++k)
      std::snprintf(cell[k], sizeof cell[k], "%+.3f",
                    now->*kMetrics[k].field - then->*kMetrics[k].field);
    table.add_row({std::to_string(now->seed), cell[0], cell[1], cell[2],
                   cell[3], cell[4]});
  }
  std::printf("%s", table.render().c_str());
  for (const Metric& metric : kMetrics) {
    std::vector<double> deltas;
    std::size_t better = 0, worse = 0;
    for (const auto& [now, then] : pairs) {
      const double d = now->*metric.field - then->*metric.field;
      deltas.push_back(d);
      better += d > 0.0;
      worse += d < 0.0;
    }
    const Interval iv = t_interval(deltas);
    const char* verdict = iv.mean - iv.half_width > 0.0   ? "higher"
                          : iv.mean + iv.half_width < 0.0 ? "lower"
                                                          : "no change";
    std::printf("  %-9s %s  up on %zu, down on %zu of %zu  (95%%: %s)\n",
                metric.name, format_interval(iv, "%+.3f").c_str(), better,
                worse, pairs.size(), verdict);
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

  std::printf("=== NodeSentry quality sweep: bench config, training "
              "subsample %.2f ===\n",
              training_subsample);
  std::vector<SeedRow> rows;
  for (const std::uint64_t seed : kD1Seeds)
    rows.push_back(run_seed(make_d1(seed), seed, training_subsample));
  for (const std::uint64_t seed : kD2Seeds)
    rows.push_back(run_seed(make_d2(seed), seed, training_subsample));

  std::vector<std::string> datasets;
  for (const SeedRow& row : rows)
    if (datasets.empty() || datasets.back() != row.dataset)
      datasets.push_back(row.dataset);
  for (const std::string& dataset : datasets) {
    std::vector<const SeedRow*> subset;
    for (const SeedRow& row : rows)
      if (row.dataset == dataset) subset.push_back(&row);
    print_dataset(dataset, subset);
    if (!compare_path.empty()) print_comparison(dataset, subset, base);
  }

  if (!write_json(json_path, training_subsample, rows)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
