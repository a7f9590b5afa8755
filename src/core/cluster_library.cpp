#include "core/cluster_library.hpp"

#include <filesystem>
#include <limits>
#include <sstream>

#include "cluster/distance.hpp"
#include "common/error.hpp"
#include "common/fileio.hpp"

namespace ns {

MatchResult ClusterLibrary::match(const std::vector<float>& features,
                                  double match_threshold_factor) const {
  NS_REQUIRE(!clusters_.empty(), "match on empty cluster library");
  MatchResult result;
  result.distance = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    const double d = euclidean(features, clusters_[c].centroid);
    if (d < result.distance) {
      result.distance = d;
      result.cluster = c;
    }
  }
  const double limit =
      match_threshold_factor * std::max(clusters_[result.cluster].radius, 1e-9);
  result.matched = result.distance <= limit;
  return result;
}

std::vector<float> ClusterLibrary::scale_masked(
    const std::vector<float>& raw_features,
    const std::vector<std::uint8_t>& raw_valid) const {
  if (raw_valid.empty()) return scale(raw_features);
  NS_REQUIRE(raw_valid.size() == raw_features.size(),
             "scale_masked: validity size mismatch");
  std::vector<float> out =
      scaler_.fitted() ? scaler_.transform(raw_features) : raw_features;
  for (std::size_t d = 0; d < out.size(); ++d)
    if (!raw_valid[d]) out[d] = 0.0f;  // z-scaled training mean
  if (pca_.fitted()) out = pca_.transform(out);
  return out;
}

std::size_t ClusterLibrary::nearest_member(
    std::size_t cluster, const std::vector<float>& features) const {
  NS_REQUIRE(cluster < clusters_.size(), "nearest_member: bad cluster index");
  const auto& member_features = clusters_[cluster].member_features;
  NS_REQUIRE(!member_features.empty(), "cluster has no member features");
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < member_features.size(); ++i) {
    const double d = euclidean(features, member_features[i]);
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return best;
}

namespace {

/// Context of every truncation error a library checkpoint raises.
constexpr const char* kErrorContext = "cluster library";

std::string cluster_file(std::size_t c) {
  return "cluster_" + std::to_string(c) + ".bin";
}

}  // namespace

void ClusterLibrary::save(const std::string& directory) const {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  {
    std::ostringstream os(std::ios::binary);
    write_floats(os, scaler_.means());
    write_floats(os, scaler_.stddevs());
    const std::uint32_t pca_rows = static_cast<std::uint32_t>(
        pca_.fitted() ? pca_.components().size() : 0);
    os.write(reinterpret_cast<const char*>(&pca_rows), sizeof(pca_rows));
    if (pca_rows > 0) {
      write_floats(os, pca_.mean());
      for (const auto& row : pca_.components()) write_floats(os, row);
    }
    write_framed_file((fs::path(directory) / "scaler.bin").string(),
                      std::move(os).str());
  }
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    const ClusterEntry& entry = clusters_[c];
    std::ostringstream os(std::ios::binary);
    write_floats(os, entry.centroid);
    const double radius = entry.radius;
    os.write(reinterpret_cast<const char*>(&radius), sizeof(radius));
    os.write(reinterpret_cast<const char*>(&entry.baseline_error),
             sizeof(entry.baseline_error));
    write_floats(os, entry.metric_weights.flat());
    write_floats(os, entry.residual_scale.flat());
    const std::uint32_t member_count =
        static_cast<std::uint32_t>(entry.member_features.size());
    os.write(reinterpret_cast<const char*>(&member_count),
             sizeof(member_count));
    for (const auto& mf : entry.member_features) write_floats(os, mf);
    NS_REQUIRE(entry.model != nullptr, "cluster " << c << " has no model");
    save_parameters(*entry.model, os);
    write_framed_file((fs::path(directory) / cluster_file(c)).string(),
                      std::move(os).str());
  }
  // The index commits the checkpoint: it is written last, so a crash at any
  // earlier point leaves the previously-indexed set fully loadable.
  std::ostringstream os(std::ios::binary);
  const std::uint32_t count = static_cast<std::uint32_t>(clusters_.size());
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  write_framed_file((fs::path(directory) / "index.bin").string(),
                    std::move(os).str());
}

void ClusterLibrary::load(const std::string& directory,
                          const TransformerConfig& model_config,
                          std::uint64_t seed) {
  namespace fs = std::filesystem;
  std::uint32_t count = 0;
  {
    std::istringstream is(
        read_framed_file((fs::path(directory) / "index.bin").string()),
        std::ios::binary);
    read_pod(is, count, kErrorContext, "index");
  }
  {
    std::istringstream is(
        read_framed_file((fs::path(directory) / "scaler.bin").string()),
        std::ios::binary);
    std::vector<float> means = read_floats(is, kErrorContext, "scaler means");
    std::vector<float> stds = read_floats(is, kErrorContext, "scaler stddevs");
    if (!means.empty()) scaler_.restore(std::move(means), std::move(stds));
    std::uint32_t pca_rows = 0;
    is.read(reinterpret_cast<char*>(&pca_rows), sizeof(pca_rows));
    if (is.good() && pca_rows > 0) {
      std::vector<float> pca_mean = read_floats(is, kErrorContext, "pca mean");
      std::vector<std::vector<float>> components(pca_rows);
      for (auto& row : components)
        row = read_floats(is, kErrorContext, "pca row");
      pca_.restore(std::move(pca_mean), std::move(components));
    }
  }
  clusters_.clear();
  clusters_.resize(count);
  Rng rng(seed);
  for (std::size_t c = 0; c < count; ++c) {
    std::istringstream is(
        read_framed_file((fs::path(directory) / cluster_file(c)).string()),
        std::ios::binary);
    ClusterEntry& entry = clusters_[c];
    entry.centroid = read_floats(is, kErrorContext, "centroid");
    read_pod(is, entry.radius, kErrorContext, "radius");
    read_pod(is, entry.baseline_error, kErrorContext, "baseline error");
    entry.metric_weights =
        Tensor::from_vector(read_floats(is, kErrorContext, "metric weights"));
    entry.residual_scale =
        Tensor::from_vector(read_floats(is, kErrorContext, "residual scale"));
    std::uint32_t member_count = 0;
    read_pod(is, member_count, kErrorContext, "member block");
    entry.member_features.resize(member_count);
    for (auto& mf : entry.member_features)
      mf = read_floats(is, kErrorContext, "member features");
    entry.model =
        std::make_shared<TransformerReconstructor>(model_config, rng);
    load_parameters(*entry.model, is);
  }
}

}  // namespace ns
