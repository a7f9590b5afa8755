#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "common/error.hpp"
#include "io/csv.hpp"
#include "io/dataset_io.hpp"
#include "sim/dataset_builder.hpp"

namespace ns {
namespace {

// Pid-qualified so parallel ctest invocations (each gtest suite is its own
// process) cannot stomp each other's fixture directories.
std::string temp_dir(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "_" + std::to_string(::getpid())))
      .string();
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(is),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(DatasetIo, RoundTripSimulatedDataset) {
  SimDatasetConfig config = d2_sim_config(0.25, 55);
  config.anomaly_ratio = 0.02;
  config.missing_rate = 0.005;
  const SimDataset sim = build_sim_dataset(config);
  const std::string dir = temp_dir("ns_dataset_io_rt");
  save_dataset(sim.data, dir);
  const MtsDataset loaded = load_dataset(dir);

  ASSERT_EQ(loaded.num_nodes(), sim.data.num_nodes());
  ASSERT_EQ(loaded.num_metrics(), sim.data.num_metrics());
  ASSERT_EQ(loaded.num_timestamps(), sim.data.num_timestamps());
  EXPECT_EQ(loaded.interval_seconds, sim.data.interval_seconds);

  // Node files are loaded in sorted name order; map back by name.
  for (std::size_t n = 0; n < loaded.num_nodes(); ++n) {
    std::size_t src = loaded.num_nodes();
    for (std::size_t k = 0; k < sim.data.num_nodes(); ++k)
      if (sim.data.nodes[k].node_name == loaded.nodes[n].node_name) src = k;
    ASSERT_LT(src, sim.data.num_nodes());
    for (std::size_t m = 0; m < loaded.num_metrics(); ++m)
      for (std::size_t t = 0; t < loaded.num_timestamps(); ++t) {
        const float a = sim.data.nodes[src].values[m][t];
        const float b = loaded.nodes[n].values[m][t];
        if (std::isnan(a)) {
          ASSERT_TRUE(std::isnan(b)) << n << ' ' << m << ' ' << t;
        } else {
          ASSERT_NEAR(a, b, 5e-6) << n << ' ' << m << ' ' << t;
        }
      }
    EXPECT_EQ(loaded.jobs[n].size(), sim.data.jobs[src].size());
    EXPECT_EQ(loaded.labels[n], sim.data.labels[src]);
  }
}

TEST(DatasetIo, MetricMetadataPreserved) {
  SimDatasetConfig config = d2_sim_config(0.25, 56);
  const SimDataset sim = build_sim_dataset(config);
  const std::string dir = temp_dir("ns_dataset_io_meta");
  save_dataset(sim.data, dir);
  const MtsDataset loaded = load_dataset(dir);
  for (std::size_t m = 0; m < loaded.num_metrics(); ++m) {
    EXPECT_EQ(loaded.metrics[m].name, sim.data.metrics[m].name);
    EXPECT_EQ(loaded.metrics[m].semantic_group,
              sim.data.metrics[m].semantic_group);
    EXPECT_EQ(loaded.metrics[m].category, sim.data.metrics[m].category);
    EXPECT_EQ(loaded.metrics[m].unit_id, sim.data.metrics[m].unit_id);
  }
  std::filesystem::remove_all(dir);
}

TEST(DatasetIo, MissingDirectoryThrows) {
  EXPECT_THROW(load_dataset("/nonexistent/ns_nowhere"), std::exception);
}

class DatasetCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = temp_dir("ns_dataset_io_corrupt");
    std::filesystem::remove_all(dir_);
    SimDatasetConfig config = d2_sim_config(0.25, 58);
    const SimDataset sim = build_sim_dataset(config);
    save_dataset(sim.data, dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& file) const {
    return (std::filesystem::path(dir_) / file).string();
  }
  std::string first_node_file() const {
    for (const auto& f :
         std::filesystem::directory_iterator(path("nodes")))
      if (f.path().extension() == ".csv")
        return "nodes/" + f.path().filename().string();
    ADD_FAILURE() << "no node files";
    return {};
  }

  std::string dir_;
};

TEST_F(DatasetCorruption, SaveWritesManifestAndVersion) {
  ASSERT_TRUE(std::filesystem::exists(path("checksums.csv")));
  const auto rows = read_csv(path("checksums.csv"));
  // Header + metrics/jobs/labels/meta + one file per node.
  ASSERT_GE(rows.size(), 6u);
  bool has_version = false;
  for (const auto& row : read_csv(path("meta.csv")))
    if (row.size() == 2 && row[0] == "format_version") has_version = true;
  EXPECT_TRUE(has_version);
}

TEST_F(DatasetCorruption, BitFlipAnywhereRejected) {
  for (const std::string& file :
       {std::string("metrics.csv"), std::string("jobs.csv"),
        std::string("labels.csv"), std::string("meta.csv"),
        first_node_file()}) {
    const std::vector<char> pristine = slurp(path(file));
    ASSERT_FALSE(pristine.empty()) << file;
    // Flip a byte in the middle of the data (past the header line).
    std::vector<char> bad = pristine;
    const std::size_t offset = bad.size() / 2;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x01);
    spit(path(file), bad);
    EXPECT_THROW(load_dataset(dir_), ParseError) << file;
    spit(path(file), pristine);
  }
  EXPECT_NO_THROW(load_dataset(dir_));  // pristine tree still loads
}

TEST_F(DatasetCorruption, TruncationRejected) {
  const std::string file = first_node_file();
  const std::vector<char> pristine = slurp(path(file));
  std::vector<char> cut(pristine.begin(),
                        pristine.begin() +
                            static_cast<std::ptrdiff_t>(pristine.size() / 2));
  spit(path(file), cut);
  EXPECT_THROW(load_dataset(dir_), ParseError);
}

TEST_F(DatasetCorruption, MissingListedFileRejected) {
  std::filesystem::remove(path("jobs.csv"));
  EXPECT_THROW(load_dataset(dir_), ParseError);
}

TEST_F(DatasetCorruption, LegacyTreeWithoutManifestStillLoads) {
  std::filesystem::remove(path("checksums.csv"));
  EXPECT_NO_THROW(load_dataset(dir_));
}

TEST(CsvHardening, ParseErrorsCarryLineAndColumn) {
  const std::string path = temp_dir("ns_csv_bad.csv");
  {
    std::ofstream os(path);
    os << "a,b\n1,ok\n2,st\"ray\n";
  }
  try {
    read_csv(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(":3:"), std::string::npos) << what;
    EXPECT_NE(what.find("quote"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(CsvHardening, InconsistentFieldCountRejected) {
  const std::string path = temp_dir("ns_csv_ragged.csv");
  {
    std::ofstream os(path);
    os << "a,b,c\n1,2,3\n4,5\n";
  }
  EXPECT_THROW(read_csv(path), ParseError);
  std::filesystem::remove(path);
}

TEST(CsvHardening, BlankLinesSkippedAndQuotingRoundTrips) {
  const std::string path = temp_dir("ns_csv_rt.csv");
  const std::vector<std::vector<std::string>> rows{
      {"plain", "has,comma", "has\"quote"},
      {"multi\nline", "", "crlf\r\nok"}};
  write_csv(path, {"x", "y", "z"}, rows);
  {
    std::ofstream os(path, std::ios::app);
    os << "\n\n";  // trailing blank lines must not become rows
  }
  const auto loaded = read_csv(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[1], rows[0]);
  EXPECT_EQ(loaded[2][0], "multi\nline");
  EXPECT_EQ(loaded[2][1], "");
  std::filesystem::remove(path);
}

TEST(CsvHardening, UnterminatedQuoteReportsOpeningPosition) {
  const std::string path = temp_dir("ns_csv_unterminated.csv");
  {
    std::ofstream os(path);
    os << "a,b\n1,\"never closed\n";
  }
  try {
    read_csv(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(":2:3"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(DatasetIo, LoadedDatasetDrivesPipeline) {
  // End-to-end: a loaded dataset must be usable downstream directly.
  SimDatasetConfig config = d2_sim_config(0.25, 57);
  const SimDataset sim = build_sim_dataset(config);
  const std::string dir = temp_dir("ns_dataset_io_pipeline");
  save_dataset(sim.data, dir);
  const MtsDataset loaded = load_dataset(dir);
  EXPECT_NO_THROW(loaded.validate());
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(temp_dir("ns_dataset_io_rt"));
}

}  // namespace
}  // namespace ns
