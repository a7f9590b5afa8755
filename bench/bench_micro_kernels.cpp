// Microbenchmarks for the numeric kernels underlying the pipeline: matmul,
// FFT, feature extraction, HAC, PCA's symmetric eigensolve, and the shared
// model's forward pass.
//
// Beyond the google-benchmark suite, `--kernels-json=PATH` runs a GEMM
// sweep comparing the tiled matmul_into kernel (at 1/2/4/N threads) against
// the historic scalar i-k-j baseline, then times the serve model's own gemm
// shapes canonical and under FastKernelScope, and writes GFLOP/s + speedup
// numbers to PATH (BENCH_kernels.json at the repo root via the `bench`
// target). The sweep also cross-checks that every thread count and every
// canonical model-shape gemm produces output bitwise identical to the
// scalar baseline, which is the kernel's documented contract.
//
// `--canonical-math-sweep` compares the canonical kernels' exp and tanh
// (canonical_exp / canonical_tanh) with std::exp / std::tanh on all 2^32
// float inputs, on every core, and exits nonzero on any mismatch.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/hac.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "features/extract.hpp"
#include "features/fft.hpp"
#include "features/pca.hpp"
#include "nn/scoring.hpp"
#include "nn/transformer.hpp"
#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"
#include "ts/preprocess.hpp"
#include "ts/quality.hpp"

namespace {

using namespace ns;

void BM_Matmul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

void BM_MatmulInto(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor out;
  for (auto _ : state) {
    matmul_into(out, a, b);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n);
}
BENCHMARK(BM_MatmulInto)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_Fft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<float> series(n);
  for (float& x : series) x = static_cast<float>(rng.gaussian());
  for (auto _ : state) {
    benchmark::DoNotOptimize(power_spectrum(series));
  }
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FeatureExtraction(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<float> series(len);
  for (float& x : series) x = static_cast<float>(rng.gaussian());
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_series_features(series));
  }
}
BENCHMARK(BM_FeatureExtraction)->Arg(64)->Arg(256)->Arg(1024);

// PCA's eigensolve on a dense PSD Gram matrix X X^T (X n x n, Gaussian).
// 440 is the D1-sim segment Gram, 640 the ISC'20 covariance (40 features x
// 16 metrics). The second argument is the eigenvector count: 16, as
// Pca::fit asks for its kept components, or n for the whole decomposition.
void BM_SymmetricEigen(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  Rng rng(6);
  std::vector<double> x(n * n);
  for (double& v : x) v = rng.gaussian();
  std::vector<double> gram(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      double dot = 0.0;
      for (std::size_t t = 0; t < n; ++t) dot += x[i * n + t] * x[j * n + t];
      gram[i * n + j] = dot;
      gram[j * n + i] = dot;
    }
  for (auto _ : state) {
    benchmark::DoNotOptimize(symmetric_eigen(gram, n, k));
  }
}
BENCHMARK(BM_SymmetricEigen)
    ->ArgNames({"n", "k"})
    ->Args({128, 16})
    ->Args({128, 128})
    ->Args({440, 16})
    ->Args({440, 440})
    ->Args({640, 16})
    ->Args({640, 640})
    ->Unit(benchmark::kMillisecond);

// The fit stages ahead of training, on D1-sim shapes. Series are offset
// sines plus noise; every tenth metric repeats the one before, so pruning
// drops some.
MtsDataset bench_dataset(std::size_t nodes, std::size_t metrics,
                         std::size_t timestamps) {
  Rng rng(9);
  MtsDataset ds;
  for (std::size_t m = 0; m < metrics; ++m) {
    MetricMeta meta;
    meta.name = "m" + std::to_string(m);
    ds.metrics.push_back(meta);
  }
  ds.nodes.resize(nodes);
  for (NodeSeries& node : ds.nodes) {
    node.values.assign(metrics, std::vector<float>(timestamps));
    for (std::size_t m = 0; m < metrics; ++m)
      for (std::size_t t = 0; t < timestamps; ++t) {
        const double phase = 0.01 * static_cast<double>(t * (m + 1));
        node.values[m][t] =
            m % 10 == 9 ? node.values[m - 1][t]
                        : static_cast<float>(10.0 * static_cast<double>(m) +
                                             std::sin(phase) +
                                             0.1 * rng.gaussian());
      }
  }
  return ds;
}

// The data-quality guard over 32 nodes x 65 raw metrics x 2880 ticks.
void BM_QualityGuard(benchmark::State& state) {
  const MtsDataset raw = bench_dataset(32, 65, 2880);
  for (auto _ : state) {
    state.PauseTiming();
    MtsDataset ds = raw;
    state.ResumeTiming();
    benchmark::DoNotOptimize(apply_quality_guard(ds));
  }
}
BENCHMARK(BM_QualityGuard)->Unit(benchmark::kMillisecond)->UseRealTime();

// Correlation pruning of 40 aggregated metrics (8 sampled nodes).
void BM_PruneCorrelated(benchmark::State& state) {
  const MtsDataset ds = bench_dataset(32, 40, 2880);
  for (auto _ : state) benchmark::DoNotOptimize(prune_correlated(ds, 0.99));
}
BENCHMARK(BM_PruneCorrelated)->Unit(benchmark::kMillisecond)->UseRealTime();

// Ward HAC on n points x 16 dims; 440 is D1-sim's training segment count.
void BM_HacWard(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<std::vector<float>> points(n, std::vector<float>(16));
  for (auto& p : points)
    for (float& x : p) x = static_cast<float>(rng.gaussian());
  for (auto _ : state) {
    Hac hac(points, Linkage::kWard);
    benchmark::DoNotOptimize(hac.cut(4));
  }
}
BENCHMARK(BM_HacWard)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(440)
    ->Unit(benchmark::kMillisecond);

void BM_TransformerForward(benchmark::State& state) {
  const std::size_t tokens = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  TransformerConfig config;
  config.input_dim = 16;
  TransformerReconstructor model(config, rng);
  const Tensor x = Tensor::randn(Shape{tokens, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(Var::constant(x), rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          tokens);
}
BENCHMARK(BM_TransformerForward)->Arg(32)->Arg(96);

// One scoring batch of 4 chunks of 96 rows. range(0) picks the plan: 0 is
// the canonical plan of the strict path, 1 the relaxed plan on the same
// weights. range(1) picks the model: 0 is the fleet benches' shape (d_model
// 24, 2 layers, 2 heads, ffn 32), 1 the default TransformerConfig that
// detect() and the offline pipeline train (d_model 36, 3 layers, 3 heads,
// ffn 64).
void BM_ScoringPlanForward(benchmark::State& state) {
  constexpr std::size_t kChunk = 96, kChunks = 4;
  Rng rng(7);
  TransformerConfig config;
  if (state.range(1) == 0) {
    config.d_model = 24;
    config.num_layers = 2;
    config.num_heads = 2;
    config.ffn_hidden = 32;
  }
  TransformerReconstructor model(config, rng);
  const ScoringPlan plan = state.range(0) == 0 ? ScoringPlan::canonical(model)
                                               : ScoringPlan(model);
  const Tensor x =
      Tensor::randn(Shape{kChunk * kChunks, config.input_dim}, rng);
  std::vector<std::size_t> offsets, segment_ids;
  for (std::size_t c = 0; c < kChunks; ++c)
    for (std::size_t t = 0; t < kChunk; ++t) {
      offsets.push_back(t);
      segment_ids.push_back(c);
    }
  const std::vector<std::size_t> block_lens(kChunks, kChunk);
  Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan.forward(x, offsets, segment_ids, block_lens, ws));
  }
  state.SetLabel(std::string(state.range(0) == 0 ? "canonical" : "relaxed") +
                 (state.range(1) == 0 ? "/fleet" : "/default"));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kChunk * kChunks);
}
BENCHMARK(BM_ScoringPlanForward)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

// Elementwise exp and tanh over 4096 values in the ranges the model feeds
// them (softmax: [-12, 0]; GELU's tanh: [-4, 4]). range(0): 0 is a scalar
// std::exp loop, 1 canonical_exp, 2 a scalar std::tanh loop, 3
// canonical_tanh. Items are elements.
void BM_CanonicalMath(benchmark::State& state) {
  constexpr std::size_t kN = 4096;
  const int variant = static_cast<int>(state.range(0));
  const bool is_exp = variant < 2;
  std::vector<float> in(kN), out(kN);
  Rng rng(9);
  for (float& v : in)
    v = static_cast<float>(is_exp ? rng.uniform(-12.0, 0.0)
                                  : rng.uniform(-4.0, 4.0));
  for (auto _ : state) {
    out = in;
    switch (variant) {
      case 0:
        for (float& v : out) v = std::exp(v);
        break;
      case 1:
        canonical_exp(out);
        break;
      case 2:
        for (float& v : out) v = std::tanh(v);
        break;
      default:
        canonical_tanh(out);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(variant % 2 == 0 ? "libm" : "canonical");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_CanonicalMath)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// --------------------------------------------------------- kernels JSON

// The matmul the repo shipped before the kernel layer: naive i-k-j with a
// data-dependent zero-skip branch. Kept here (only) as the scalar baseline
// the JSON report normalizes against.
void scalar_baseline_matmul(Tensor& out, const Tensor& a, const Tensor& b) {
  const std::size_t m = a.size(0), k = a.size(1), n = b.size(1);
  ensure_shape(out, Shape{m, n});
  out.fill(0.0f);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = pa[i * k + kk];
      if (aik == 0.0f) continue;
      for (std::size_t j = 0; j < n; ++j)
        po[i * n + j] += aik * pb[kk * n + j];
    }
}

template <typename Fn>
double best_seconds(Fn&& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

int run_kernels_json(const std::string& path) {
  const std::vector<std::size_t> sizes = {128, 256, 512};
  std::vector<std::size_t> thread_counts = {1, 2, 4};
  const std::size_t hw = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  if (hw > 4) thread_counts.push_back(hw);

  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << " for writing\n";
    return 1;
  }
  os << "{\n  \"benchmark\": \"gemm_f32\",\n  \"results\": [";
  bool first = true;
  bool all_bitwise = true;
  for (const std::size_t n : sizes) {
    Rng rng(42);
    const Tensor a = Tensor::randn(Shape{n, n}, rng);
    const Tensor b = Tensor::randn(Shape{n, n}, rng);
    const double flops = 2.0 * static_cast<double>(n) * n * n;
    const int reps = n >= 512 ? 3 : 5;

    Tensor ref;
    scalar_baseline_matmul(ref, a, b);  // warm
    const double base_s =
        best_seconds([&] { scalar_baseline_matmul(ref, a, b); }, reps);

    auto emit = [&](const char* variant, std::size_t threads, double secs) {
      if (!first) os << ",";
      first = false;
      os << "\n    {\"m\": " << n << ", \"n\": " << n << ", \"k\": " << n
         << ", \"variant\": \"" << variant << "\", \"threads\": " << threads
         << ", \"seconds\": " << secs << ", \"gflops\": " << flops / secs / 1e9
         << ", \"speedup_vs_scalar\": " << base_s / secs << "}";
    };
    emit("scalar_baseline", 1, base_s);

    for (const std::size_t threads : thread_counts) {
      ThreadPool pool(threads);
      Tensor out;
      matmul_into(out, a, b, &pool);  // warm
      // The tiled kernel matches the baseline bit-for-bit on finite data
      // because both accumulate ascending-k per element.
      if (!bitwise_equal(out, ref)) all_bitwise = false;
      const double secs =
          best_seconds([&] { matmul_into(out, a, b, &pool); }, reps);
      emit("tiled", threads, secs);
      std::cout << "gemm " << n << "x" << n << "x" << n << " threads="
                << threads << ": " << flops / secs / 1e9 << " GFLOP/s ("
                << base_s / secs << "x scalar)\n";
    }
  }
  os << "\n  ],\n  \"model_shapes\": [";
  // The serve model's gemms (m x k x n) at the fleet benches' shape:
  // input projection, packed qkv, out projection, and per 96-row block the
  // two attention gemms with dh = 12. Each timing is a loop of calls long
  // enough to dwarf the clock, best of 5.
  const std::size_t model_shapes[][3] = {
      {384, 16, 24}, {384, 24, 72}, {384, 24, 24}, {96, 12, 96}, {96, 96, 12}};
  first = true;
  for (const auto& [m, k, n] : model_shapes) {
    Rng rng(43);
    const Tensor a = Tensor::randn(Shape{m, k}, rng);
    const Tensor b = Tensor::randn(Shape{k, n}, rng);
    const double flops = 2.0 * static_cast<double>(m) * k * n;
    const int calls = static_cast<int>(std::max(1.0, 2e7 / flops));
    Tensor ref, out;
    scalar_baseline_matmul(ref, a, b);
    matmul_into(out, a, b);
    if (!bitwise_equal(out, ref)) all_bitwise = false;
    auto per_call = [&](auto&& fn) {
      return best_seconds([&] {
               for (int c = 0; c < calls; ++c) fn();
             }, 5) /
             calls;
    };
    const double base_s = per_call([&] { scalar_baseline_matmul(ref, a, b); });
    const double canonical_s = per_call([&] { matmul_into(out, a, b); });
    const double fast_s = per_call([&] {
      FastKernelScope fast;
      matmul_into(out, a, b);
    });
    for (const auto& [variant, secs] :
         {std::pair{"scalar_baseline", base_s},
          std::pair{"canonical", canonical_s}, std::pair{"fast", fast_s}}) {
      if (!first) os << ",";
      first = false;
      os << "\n    {\"m\": " << m << ", \"n\": " << n << ", \"k\": " << k
         << ", \"variant\": \"" << variant << "\", \"seconds\": " << secs
         << ", \"gflops\": " << flops / secs / 1e9 << "}";
    }
    std::cout << "gemm " << m << "x" << k << "x" << n << ": scalar "
              << base_s * 1e6 << " us, canonical " << canonical_s * 1e6
              << " us, fast " << fast_s * 1e6 << " us\n";
  }
  os << "\n  ],\n  \"bitwise_identical_across_thread_counts\": "
     << (all_bitwise ? "true" : "false") << "\n}\n";
  std::cout << "wrote " << path << "\n";
  return all_bitwise ? 0 : 2;
}

// --------------------------------------------------- canonical math sweep

// Runs canonical_exp and canonical_tanh over all 2^32 float bit patterns on
// every core and compares each result bit for bit with std::exp / std::tanh
// (so a NaN must match libm's NaN). Nonzero exit on any mismatch: the check
// to run on a new host or libm before trusting that strict bits equal the
// scalar libm loops.
int run_canonical_math_sweep() {
  constexpr std::uint64_t kTotal = std::uint64_t{1} << 32;
  constexpr std::size_t kBlock = 1 << 16;
  ThreadPool& pool = ThreadPool::global();
  bool all_equal = true;
  for (const bool is_exp : {true, false}) {
    const char* name = is_exp ? "exp" : "tanh";
    std::atomic<std::uint64_t> mismatches{0};
    const auto t0 = std::chrono::steady_clock::now();
    pool.parallel_for(0, kTotal / kBlock, 1, [&](std::size_t blk) {
      std::vector<float> in(kBlock);
      for (std::size_t i = 0; i < kBlock; ++i) {
        const auto bits = static_cast<std::uint32_t>(blk * kBlock + i);
        std::memcpy(&in[i], &bits, sizeof bits);
      }
      std::vector<float> out = in;
      if (is_exp) {
        canonical_exp(out);
      } else {
        canonical_tanh(out);
      }
      std::uint64_t bad = 0;
      for (std::size_t i = 0; i < kBlock; ++i) {
        const float ref = is_exp ? std::exp(in[i]) : std::tanh(in[i]);
        if (std::memcmp(&ref, &out[i], sizeof ref) != 0) ++bad;
      }
      mismatches += bad;
    });
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    std::cout << "canonical " << name << " vs std::" << name << ": "
              << mismatches.load() << " mismatches of " << kTotal
              << " inputs (" << pool.size() << " pool workers, " << secs
              << " s)\n";
    if (mismatches.load() != 0) all_equal = false;
  }
  std::cout << "kernel tier: " << kernel_tier_name(kernel_dispatch_tier())
            << "\n";
  return all_equal ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  bool json_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--kernels-json=", 15) == 0) {
      json_path = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--kernels-json-only") == 0) {
      json_only = true;
    } else if (std::strcmp(argv[i], "--canonical-math-sweep") == 0) {
      return run_canonical_math_sweep();
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int rc = 0;
  if (!json_path.empty()) rc = run_kernels_json(json_path);
  if (json_only || (!json_path.empty() && passthrough.size() == 1)) return rc;
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rc;
}
