// Crash-safe checkpointing tests: round-trip fidelity, mid-fit checkpoint
// consistency (kill-and-restore), and rejection of corrupted or truncated
// checkpoint files.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fileio.hpp"
#include "core/nodesentry.hpp"
#include "sim/dataset_builder.hpp"

namespace ns {
namespace fs = std::filesystem;
namespace {

// Pid-qualified so parallel ctest invocations (each gtest suite is its own
// process) cannot stomp each other's fixture directories.
std::string temp_dir(const std::string& name) {
  return (fs::temp_directory_path() / (name + "_" + std::to_string(::getpid())))
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

void flip_byte(const std::string& path, std::size_t offset) {
  std::vector<char> bytes = slurp(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0xFF);
  spit(path, bytes);
}

// One fitted detector shared by every test in the suite (fitting is the
// expensive part); fit() runs with history checkpointing every 2 clusters.
class CheckpointFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ckpt_dir_ = temp_dir("ns_ckpt_fit");
    fs::remove_all(ckpt_dir_);
    SimDatasetConfig sim_config = d2_sim_config(0.35, 17);
    sim_config.anomaly_ratio = 0.01;
    sim_ = new SimDataset(build_sim_dataset(sim_config));
    NodeSentryConfig config = fast_config();
    config.checkpoint_dir = ckpt_dir_;
    config.checkpoint_every = 2;
    config.checkpoint_history = true;
    sentry_ = new NodeSentry(config);
    fit_report_ = sentry_->fit(sim_->data, sim_->train_end);
  }

  static void TearDownTestSuite() {
    delete sentry_;
    delete sim_;
    sentry_ = nullptr;
    sim_ = nullptr;
    fs::remove_all(ckpt_dir_);
  }

  /// Deterministic detection config: incremental updates off so detect()
  /// is a pure function of the library, comparable across restores.
  static NodeSentryConfig fast_config() {
    NodeSentryConfig config;
    config.model.d_model = 24;
    config.model.num_layers = 2;
    config.model.num_heads = 2;
    config.model.ffn_hidden = 32;
    config.train_epochs = 2;
    config.learning_rate = 3e-3f;
    config.max_tokens_per_segment = 96;
    config.train_window = 32;
    config.match_period = 60;
    config.threshold_window = 40;
    config.k_max = 6;
    config.seed = 99;
    config.incremental_updates = false;
    return config;
  }

  static std::string step_dir(std::size_t step) {
    return (fs::path(ckpt_dir_) / ("step_" + std::to_string(step))).string();
  }

  static std::string final_step_dir() {
    return step_dir(sentry_->library().size());
  }

  static std::string ckpt_dir_;
  static SimDataset* sim_;
  static NodeSentry* sentry_;
  static NodeSentry::FitReport fit_report_;
};

std::string CheckpointFixture::ckpt_dir_;
SimDataset* CheckpointFixture::sim_ = nullptr;
NodeSentry* CheckpointFixture::sentry_ = nullptr;
NodeSentry::FitReport CheckpointFixture::fit_report_;

TEST_F(CheckpointFixture, MidFitCheckpointsWritten) {
  ASSERT_GE(sentry_->library().size(), 2u);
  EXPECT_GE(fit_report_.checkpoints_written, 1u);
  // Every history snapshot is a complete library with a committed index.
  EXPECT_TRUE(fs::exists(fs::path(step_dir(2)) / "index.bin"));
  EXPECT_TRUE(fs::exists(fs::path(final_step_dir()) / "index.bin"));
}

TEST_F(CheckpointFixture, RestoreRoundTripsTheLibrary) {
  NodeSentry restored(fast_config());
  restored.restore(sim_->data, sim_->train_end, final_step_dir());
  const auto& a = sentry_->library().clusters();
  const auto& b = restored.library().clusters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].centroid, b[c].centroid) << c;
    EXPECT_DOUBLE_EQ(a[c].radius, b[c].radius) << c;
    EXPECT_DOUBLE_EQ(a[c].baseline_error, b[c].baseline_error) << c;
    ASSERT_EQ(a[c].member_features.size(), b[c].member_features.size());
    for (std::size_t i = 0; i < a[c].member_features.size(); ++i)
      EXPECT_EQ(a[c].member_features[i], b[c].member_features[i]);
    ASSERT_EQ(a[c].metric_weights.numel(), b[c].metric_weights.numel());
    for (std::size_t m = 0; m < a[c].metric_weights.numel(); ++m)
      EXPECT_EQ(a[c].metric_weights.flat()[m], b[c].metric_weights.flat()[m]);
  }
}

TEST_F(CheckpointFixture, KillAndRestoreMatchesUninterruptedRun) {
  // A mid-fit checkpoint (after 2 clusters) must behave exactly like the
  // first 2 clusters of the uninterrupted run: restore it, and compare
  // detection against the final library truncated to the same prefix.
  NodeSentry killed(fast_config());
  killed.restore(sim_->data, sim_->train_end, step_dir(2));
  ASSERT_EQ(killed.library().size(), 2u);

  NodeSentry full(fast_config());
  full.restore(sim_->data, sim_->train_end, final_step_dir());
  full.mutable_library().clusters().resize(2);

  const auto da = killed.detect();
  const auto db = full.detect();
  ASSERT_EQ(da.detections.size(), db.detections.size());
  for (std::size_t n = 0; n < da.detections.size(); ++n) {
    const auto& sa = da.detections[n].scores;
    const auto& sb = db.detections[n].scores;
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t t = 0; t < sa.size(); ++t)
      ASSERT_NEAR(sa[t], sb[t], 1e-5) << "node " << n << " t " << t;
  }
}

TEST_F(CheckpointFixture, RestoreFromMissingDirectoryThrows) {
  NodeSentry fresh(fast_config());
  EXPECT_THROW(
      fresh.restore(sim_->data, sim_->train_end, temp_dir("ns_ckpt_nowhere")),
      ParseError);
}

class CorruptionTest : public CheckpointFixture {
 protected:
  void SetUp() override {
    scratch_ = temp_dir("ns_ckpt_corrupt");
    fs::remove_all(scratch_);
    fs::copy(final_step_dir(), scratch_, fs::copy_options::recursive);
  }
  void TearDown() override { fs::remove_all(scratch_); }

  void expect_load_rejected(const std::string& detail) {
    NodeSentry fresh(fast_config());
    EXPECT_THROW(fresh.restore(sim_->data, sim_->train_end, scratch_),
                 ParseError)
        << detail;
  }

  std::string scratch_;
};

TEST_F(CorruptionTest, EveryHeaderBytePositionRejected) {
  // Flip each of the 20 header bytes in turn: magic, version, payload
  // size and CRC corruption must all be rejected, never parsed.
  for (const char* file : {"index.bin", "scaler.bin", "cluster_0.bin"}) {
    const std::string path = (fs::path(scratch_) / file).string();
    const std::vector<char> pristine = slurp(path);
    ASSERT_GE(pristine.size(), kFrameHeaderSize);
    for (std::size_t offset = 0; offset < kFrameHeaderSize; ++offset) {
      flip_byte(path, offset);
      expect_load_rejected(std::string(file) + " header byte " +
                           std::to_string(offset));
      spit(path, pristine);
    }
  }
}

TEST_F(CorruptionTest, PayloadBitFlipsRejectedByCrc) {
  const std::string path = (fs::path(scratch_) / "cluster_0.bin").string();
  const std::vector<char> pristine = slurp(path);
  const std::size_t payload = pristine.size() - kFrameHeaderSize;
  ASSERT_GT(payload, 0u);
  // First, middle and last payload bytes (model params live at the end).
  for (const std::size_t rel :
       {std::size_t{0}, payload / 4, payload / 2, 3 * payload / 4,
        payload - 1}) {
    flip_byte(path, kFrameHeaderSize + rel);
    expect_load_rejected("payload byte " + std::to_string(rel));
    spit(path, pristine);
  }
}

TEST_F(CorruptionTest, TruncationRejected) {
  const std::string path = (fs::path(scratch_) / "cluster_0.bin").string();
  const std::vector<char> pristine = slurp(path);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{kFrameHeaderSize},
        pristine.size() / 2, pristine.size() - 1}) {
    std::vector<char> cut(pristine.begin(),
                          pristine.begin() + static_cast<std::ptrdiff_t>(keep));
    spit(path, cut);
    expect_load_rejected("truncated to " + std::to_string(keep));
  }
  spit(path, pristine);
}

TEST_F(CorruptionTest, MissingClusterFileRejected) {
  fs::remove(fs::path(scratch_) / "cluster_0.bin");
  expect_load_rejected("missing cluster file");
}

TEST(FramedFile, RoundTripAndCorruptionPrimitives) {
  const std::string path = temp_dir("ns_framed_rt.bin");
  const std::string payload = "framed payload \x01\x02\x03 with bytes";
  write_framed_file(path, payload);
  EXPECT_EQ(read_framed_file(path), payload);
  // Every single-byte flip anywhere in the file must be rejected.
  const std::vector<char> pristine = slurp(path);
  for (std::size_t offset = 0; offset < pristine.size(); ++offset) {
    flip_byte(path, offset);
    EXPECT_THROW(read_framed_file(path), ParseError) << "byte " << offset;
    spit(path, pristine);
  }
  fs::remove(path);
}

TEST(FramedFile, MissingAndEmptyRejected) {
  EXPECT_THROW(read_framed_file(temp_dir("ns_framed_nowhere.bin")),
               ParseError);
  const std::string path = temp_dir("ns_framed_empty.bin");
  spit(path, {});
  EXPECT_THROW(read_framed_file(path), ParseError);
  fs::remove(path);
}

}  // namespace
}  // namespace ns
