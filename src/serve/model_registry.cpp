#include "serve/model_registry.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/fileio.hpp"
#include "nn/module.hpp"

namespace ns {

namespace {

/// Context of every truncation error a registry checkpoint raises.
constexpr const char* kErrorContext = "generation registry";

std::string gens_file(std::size_t c) {
  return "gens_" + std::to_string(c) + ".bin";
}

/// Layout version of gens_index.bin and the gens_<c>.bin files it commits;
/// load() reads no other.
constexpr std::uint32_t kCheckpointVersion = 2;

}  // namespace

GenerationRegistry::GenerationRegistry(std::size_t num_clusters,
                                       std::size_t max_generations,
                                       obs::Registry* obs_registry,
                                       ScoringPath path)
    : max_generations_(max_generations), path_(path) {
  NS_REQUIRE(num_clusters > 0, "generation registry: no clusters");
  NS_REQUIRE(max_generations_ >= 1 && max_generations_ <= 8,
             "generation registry: max_generations " << max_generations_
                                                     << " out of [1,8]");
  slots_.reserve(num_clusters);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    slots_.push_back(std::make_unique<ClusterSlot>());
    slots_.back()->current = std::make_shared<const GenerationSet>();
  }
  obs_ = obs_registry ? obs_registry : &obs::Registry::global();
  active_gauges_.reserve(num_clusters);
  newest_gen_gauges_.reserve(num_clusters);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    const obs::LabelSet labels{{"cluster", std::to_string(c)}};
    active_gauges_.push_back(
        &obs_->gauge("ns_generations_active",
                     "Model generations in the set", labels));
    newest_gen_gauges_.push_back(&obs_->gauge(
        "ns_generation_newest_id",
        "gen_id of the newest published generation", labels));
  }
  published_counter_ = &obs_->counter("ns_generations_published_total",
                                      "Generations published (all clusters)");
  retired_counter_ = &obs_->counter(
      "ns_generations_retired_total",
      "Generations retired past the cap (grace-period protected)");
}

void GenerationRegistry::seed_from_library(const ClusterLibrary& library) {
  NS_REQUIRE(library.size() == slots_.size(),
             "generation registry: seeded with " << library.size()
                                                 << " clusters, expected "
                                                 << slots_.size());
  for (std::size_t c = 0; c < library.size(); ++c) {
    const ClusterEntry& entry = library.clusters()[c];
    NS_REQUIRE(entry.model != nullptr,
               "generation registry: cluster " << c << " has no model");
    ModelGeneration gen;
    gen.model = entry.model;
    gen.residual_scale = entry.residual_scale.clone();
    gen.baseline_error = entry.baseline_error;
    publish(c, std::move(gen));
  }
}

std::shared_ptr<const GenerationSet> GenerationRegistry::snapshot(
    std::size_t cluster) const {
  NS_REQUIRE(cluster < slots_.size(),
             "generation registry: cluster " << cluster << " out of range");
  const ClusterSlot& slot = *slots_[cluster];
  std::lock_guard<std::mutex> lock(slot.current_mutex);
  return slot.current;
}

void GenerationRegistry::swap_current(
    ClusterSlot& slot, std::shared_ptr<const GenerationSet> set) {
  {
    std::lock_guard<std::mutex> lock(slot.current_mutex);
    slot.current.swap(set);
  }
  // `set` now holds the previous set; dropping it here, outside the
  // pointer mutex, keeps a possibly-final release off the readers' path.
}

std::uint64_t GenerationRegistry::publish(std::size_t cluster,
                                          ModelGeneration gen) {
  NS_REQUIRE(cluster < slots_.size(),
             "generation registry: cluster " << cluster << " out of range");
  NS_REQUIRE(gen.model != nullptr, "generation registry: publish without model");
  gen.plan = compile(*gen.model);
  ClusterSlot& slot = *slots_[cluster];
  std::lock_guard<std::mutex> lock(slot.writer_mutex);
  gen.gen_id = slot.next_gen_id++;
  const std::uint64_t id = gen.gen_id;
  auto next = std::make_shared<GenerationSet>(*snapshot(cluster));
  next->generations.push_back(std::move(gen));
  std::size_t retired = 0;
  while (next->generations.size() > max_generations_) {
    // Retire the oldest. Readers still holding a snapshot that references
    // it keep the model alive via shared_ptr — the grace period ends when
    // the last in-flight forward drops its snapshot.
    next->generations.erase(next->generations.begin());
    ++retired;
  }
  update_gauges(cluster, *next);
  swap_current(slot, std::move(next));
  epoch_.fetch_add(1, std::memory_order_relaxed);
  published_counter_->inc();
  if (retired > 0) retired_counter_->inc(retired);
  return id;
}

std::shared_ptr<const ScoringPlan> GenerationRegistry::compile(
    const TransformerReconstructor& model) const {
  return std::make_shared<const ScoringPlan>(
      ScoringPlan::compile(model, path_));
}

void GenerationRegistry::update_gauges(std::size_t cluster,
                                       const GenerationSet& set) {
  std::uint64_t newest = 0;
  for (const ModelGeneration& gen : set.generations)
    newest = std::max(newest, gen.gen_id);
  active_gauges_[cluster]->set(static_cast<double>(set.generations.size()));
  newest_gen_gauges_[cluster]->set(static_cast<double>(newest));
}

void GenerationRegistry::save(const std::string& directory) const {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  for (std::size_t c = 0; c < slots_.size(); ++c) {
    const auto set = snapshot(c);
    std::ostringstream os(std::ios::binary);
    const std::uint32_t count =
        static_cast<std::uint32_t>(set->generations.size());
    os.write(reinterpret_cast<const char*>(&count), sizeof(count));
    for (const ModelGeneration& gen : set->generations) {
      os.write(reinterpret_cast<const char*>(&gen.gen_id),
               sizeof(gen.gen_id));
      os.write(reinterpret_cast<const char*>(&gen.trained_cycle),
               sizeof(gen.trained_cycle));
      os.write(reinterpret_cast<const char*>(&gen.baseline_error),
               sizeof(gen.baseline_error));
      write_floats(os, gen.residual_scale.flat());
      save_parameters(*gen.model, os);
    }
    write_framed_file((fs::path(directory) / gens_file(c)).string(),
                      std::move(os).str());
  }
  // The index commits the checkpoint (written last): a crash during any
  // per-cluster write leaves the previously-indexed checkpoint loadable.
  std::ostringstream os(std::ios::binary);
  const std::uint32_t clusters = static_cast<std::uint32_t>(slots_.size());
  const std::uint32_t cap = static_cast<std::uint32_t>(max_generations_);
  os.write(reinterpret_cast<const char*>(&kCheckpointVersion),
           sizeof(kCheckpointVersion));
  os.write(reinterpret_cast<const char*>(&clusters), sizeof(clusters));
  os.write(reinterpret_cast<const char*>(&cap), sizeof(cap));
  write_framed_file((fs::path(directory) / "gens_index.bin").string(),
                    std::move(os).str());
}

void GenerationRegistry::load(const std::string& directory,
                              const TransformerConfig& model_config,
                              std::uint64_t seed) {
  namespace fs = std::filesystem;
  std::uint32_t version = 0;
  std::uint32_t clusters = 0;
  std::uint32_t cap = 0;
  {
    std::istringstream is(
        read_framed_file((fs::path(directory) / "gens_index.bin").string()),
        std::ios::binary);
    read_pod(is, version, kErrorContext, "index version");
    if (version != kCheckpointVersion)
      throw ParseError("generation registry: checkpoint format version " +
                       std::to_string(version) + ", expected " +
                       std::to_string(kCheckpointVersion));
    read_pod(is, clusters, kErrorContext, "index");
    read_pod(is, cap, kErrorContext, "index cap");
  }
  if (clusters != slots_.size())
    throw ParseError("generation registry: checkpoint has " +
                     std::to_string(clusters) + " clusters, registry has " +
                     std::to_string(slots_.size()));
  Rng rng(seed);
  for (std::size_t c = 0; c < clusters; ++c) {
    std::istringstream is(
        read_framed_file((fs::path(directory) / gens_file(c)).string()),
        std::ios::binary);
    std::uint32_t count = 0;
    read_pod(is, count, kErrorContext, "generation count");
    if (count == 0)
      throw ParseError("generation registry: cluster " + std::to_string(c) +
                       " has no generations");
    auto set = std::make_shared<GenerationSet>();
    set->generations.reserve(count);
    std::uint64_t max_id = 0;
    for (std::uint32_t g = 0; g < count; ++g) {
      ModelGeneration gen;
      read_pod(is, gen.gen_id, kErrorContext, "gen id");
      read_pod(is, gen.trained_cycle, kErrorContext, "trained cycle");
      read_pod(is, gen.baseline_error, kErrorContext, "baseline error");
      gen.residual_scale =
          Tensor::from_vector(read_floats(is, kErrorContext, "residual scale"));
      gen.model =
          std::make_shared<TransformerReconstructor>(model_config, rng);
      load_parameters(*gen.model, is);
      gen.plan = compile(*gen.model);
      max_id = std::max(max_id, gen.gen_id);
      set->generations.push_back(std::move(gen));
    }
    ClusterSlot& slot = *slots_[c];
    std::lock_guard<std::mutex> lock(slot.writer_mutex);
    slot.next_gen_id = max_id + 1;
    update_gauges(c, *set);
    swap_current(slot, std::move(set));
  }
}

}  // namespace ns
