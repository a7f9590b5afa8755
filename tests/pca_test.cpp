#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "features/extract.hpp"
#include "features/pca.hpp"

namespace ns {
namespace {

TEST(SymmetricEigen, DiagonalMatrix) {
  // diag(3, 1, 2) -> eigenvalues sorted descending.
  std::vector<double> m{3, 0, 0, 0, 1, 0, 0, 0, 2};
  const auto eig = symmetric_eigen(m, 3);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-10);
  EXPECT_NEAR(eig.values[2], 1.0, 1e-10);
}

TEST(SymmetricEigen, KnownSymmetricMatrix) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors (1,1), (1,-1).
  std::vector<double> m{2, 1, 1, 2};
  const auto eig = symmetric_eigen(m, 2);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-10);
  EXPECT_NEAR(std::abs(eig.vectors[0][0]), std::abs(eig.vectors[0][1]), 1e-8);
}

TEST(SymmetricEigen, EmptyAndMismatchedInput) {
  EXPECT_THROW(symmetric_eigen(std::vector<double>(5), 2), InvalidArgument);
  EXPECT_TRUE(symmetric_eigen({}, 0).values.empty());
}

enum class MatrixShape { kRandom, kRepeated, kZero, kGram };

struct EigenCase {
  MatrixShape shape = MatrixShape::kRandom;
  std::size_t n = 0;
};

// Row-major n*n symmetric test matrix of the given shape, seeded by n.
std::vector<double> make_matrix(const EigenCase& c) {
  const std::size_t n = c.n;
  Rng rng(n);
  std::vector<double> m(n * n, 0.0);
  switch (c.shape) {
    case MatrixShape::kRandom:
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j) {
          m[i * n + j] = rng.gaussian();
          m[j * n + i] = m[i * n + j];
        }
      break;
    case MatrixShape::kRepeated:
      // Eigenvalue 2 on three spread-out diagonal slots (every slot when
      // n <= 3); the other eigenvalues are distinct.
      for (std::size_t i = 0; i < n; ++i)
        m[i * n + i] = 3.0 + static_cast<double>(i);
      for (std::size_t i : {std::size_t{0}, n / 2, n - 1}) m[i * n + i] = 2.0;
      break;
    case MatrixShape::kZero:
      break;
    case MatrixShape::kGram: {
      // X X^T with X n x 3: rank 3, so n - 3 eigenvalues are zero.
      std::vector<double> x(n * 3);
      for (double& v : x) v = rng.gaussian();
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
          for (std::size_t k = 0; k < 3; ++k)
            m[i * n + j] += x[i * 3 + k] * x[j * 3 + k];
      break;
    }
  }
  return m;
}

// Names each case, e.g. "random_8", in test listings.
void PrintTo(const EigenCase& c, std::ostream* os) {
  static const char* const kNames[] = {"random", "repeated", "zero", "gram"};
  *os << kNames[static_cast<int>(c.shape)] << '_' << c.n;
}

class SymmetricEigen : public ::testing::TestWithParam<EigenCase> {};

TEST_P(SymmetricEigen, ReconstructsMatrix) {
  const std::size_t n = GetParam().n;
  const std::vector<double> a = make_matrix(GetParam());
  const auto eig = symmetric_eigen(a, n);
  ASSERT_EQ(eig.values.size(), n);
  ASSERT_EQ(eig.vectors.size(), n);

  double scale = 1.0;
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += a[i * n + i];
  for (double v : a) scale = std::max(scale, std::abs(v));
  double value_sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    ASSERT_EQ(eig.vectors[k].size(), n);
    value_sum += eig.values[k];
    if (k > 0) {
      EXPECT_LE(eig.values[k], eig.values[k - 1]) << "k=" << k;
    }
  }
  EXPECT_NEAR(value_sum, trace, 1e-9 * std::max(1.0, std::abs(trace)));

  // A = V^T diag(lambda) V and V V^T = I, with the eigenvectors as rows of V.
  double worst_reconstruction = 0.0;
  double worst_orthogonality = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      double dot = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        acc += eig.values[k] * eig.vectors[k][i] * eig.vectors[k][j];
        dot += eig.vectors[i][k] * eig.vectors[j][k];
      }
      worst_reconstruction =
          std::max(worst_reconstruction, std::abs(acc - a[i * n + j]));
      worst_orthogonality =
          std::max(worst_orthogonality, std::abs(dot - (i == j ? 1.0 : 0.0)));
    }
  EXPECT_LE(worst_reconstruction, 1e-9 * scale);
  EXPECT_LE(worst_orthogonality, 1e-10);
}

std::vector<EigenCase> eigen_cases() {
  std::vector<EigenCase> cases;
  for (std::size_t n : {1, 2, 3, 8, 64, 257})
    for (MatrixShape shape :
         {MatrixShape::kRandom, MatrixShape::kRepeated, MatrixShape::kZero})
      cases.push_back({shape, n});
  cases.push_back({MatrixShape::kGram, 12});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, SymmetricEigen,
                         ::testing::ValuesIn(eigen_cases()));

TEST(Pca, RecoversDominantDirection) {
  // Data varies strongly along (1, 1)/sqrt(2), weakly along (1, -1).
  Rng rng(2);
  std::vector<std::vector<float>> data;
  for (int i = 0; i < 200; ++i) {
    const double major = rng.gaussian(0, 5.0);
    const double minor = rng.gaussian(0, 0.2);
    data.push_back({static_cast<float>(major + minor),
                    static_cast<float>(major - minor)});
  }
  Pca pca;
  pca.fit(data, 1);
  ASSERT_EQ(pca.output_dim(), 1u);
  const auto& dir = pca.components()[0];
  EXPECT_NEAR(std::abs(dir[0]), std::abs(dir[1]), 0.05);
  EXPECT_GT(pca.explained_variance_ratio(), 0.95);
}

TEST(Pca, GramTrickWhenFewerSamplesThanDims) {
  // 5 samples in 40 dims: must use the Gram path and still give orthonormal
  // components.
  Rng rng(3);
  std::vector<std::vector<float>> data(5, std::vector<float>(40));
  for (auto& row : data)
    for (float& x : row) x = static_cast<float>(rng.gaussian());
  Pca pca;
  pca.fit(data, 4);
  ASSERT_LE(pca.output_dim(), 4u);
  ASSERT_GE(pca.output_dim(), 1u);
  for (std::size_t a = 0; a < pca.output_dim(); ++a) {
    double norm = 0.0;
    for (float x : pca.components()[a]) norm += static_cast<double>(x) * x;
    EXPECT_NEAR(norm, 1.0, 1e-3) << "component " << a << " not unit";
    for (std::size_t b = a + 1; b < pca.output_dim(); ++b) {
      double dot = 0.0;
      for (std::size_t d = 0; d < 40; ++d)
        dot += static_cast<double>(pca.components()[a][d]) *
               pca.components()[b][d];
      EXPECT_NEAR(dot, 0.0, 1e-3) << "components " << a << "," << b;
    }
  }
}

// ---- The Gram route of Pca::fit as it was before the Gram rows were built
// in parallel, verbatim but for returning its mean, components and
// explained variance ratio, kept as the reference.
struct ReferencePca {
  std::vector<float> mean_;
  std::vector<std::vector<float>> components_;
  double explained_ratio_ = 0.0;
};

ReferencePca reference_gram_pca(const std::vector<std::vector<float>>& matrix,
                                std::size_t components) {
  ReferencePca out;
  auto& mean_ = out.mean_;
  auto& components_ = out.components_;
  const std::size_t rows = matrix.size();
  const std::size_t dims = matrix.front().size();

  mean_.assign(dims, 0.0f);
  for (const auto& row : matrix) {
    for (std::size_t d = 0; d < dims; ++d) mean_[d] += row[d];
  }
  for (float& m : mean_) m /= static_cast<float>(rows);

  // Centered data X (rows x dims), kept as doubles for the decomposition.
  std::vector<std::vector<double>> centered(rows, std::vector<double>(dims));
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t d = 0; d < dims; ++d)
      centered[r][d] = static_cast<double>(matrix[r][d]) - mean_[d];

  const std::size_t keep =
      std::min({components, rows > 1 ? rows - 1 : 1, dims});

  double total_variance = 0.0;
  double kept_variance = 0.0;

  // Gram trick: eigen of G = X X^T (rows x rows); principal direction
  // w_i = X^T u_i / sqrt(lambda_i).
  std::vector<double> gram(rows * rows, 0.0);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = i; j < rows; ++j) {
      double dot = 0.0;
      for (std::size_t d = 0; d < dims; ++d)
        dot += centered[i][d] * centered[j][d];
      gram[i * rows + j] = dot;
      gram[j * rows + i] = dot;
    }
  const EigenDecomposition eig = symmetric_eigen(std::move(gram), rows);
  for (double l : eig.values) total_variance += std::max(0.0, l);
  for (std::size_t c = 0; c < keep; ++c) {
    const double lambda = eig.values[c];
    if (lambda <= 1e-12) break;
    kept_variance += lambda;
    std::vector<float> direction(dims, 0.0f);
    const double inv_sqrt = 1.0 / std::sqrt(lambda);
    for (std::size_t r = 0; r < rows; ++r) {
      const double coeff = eig.vectors[c][r] * inv_sqrt;
      for (std::size_t d = 0; d < dims; ++d)
        direction[d] += static_cast<float>(coeff * centered[r][d]);
    }
    components_.push_back(std::move(direction));
  }
  out.explained_ratio_ =
      total_variance > 0.0 ? kept_variance / total_variance : 1.0;
  return out;
}

void expect_floats_bitwise_equal(const std::vector<float>& a,
                                 const std::vector<float>& b,
                                 const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what << " differs bitwise";
}

// Called from the test thread, fit() builds the Gram rows on the whole
// pool; called from a pool worker, the nested parallel_for is a serial
// loop. Both must give the serial reference's bits.
TEST(Pca, GramBuildMatchesSerialReferenceOnAnyThread) {
  Rng rng(8);
  // 120 samples in 300 dims (the Gram route): five directions carry the
  // signal and the rest is faint noise, so the components past the fifth
  // sit on nearly equal eigenvalues and move, even in float, when a single
  // Gram entry changes in its last bit.
  std::vector<std::vector<double>> basis(5, std::vector<double>(300));
  for (auto& b : basis)
    for (double& x : b) x = rng.gaussian();
  std::vector<std::vector<float>> data(120, std::vector<float>(300));
  for (auto& row : data) {
    double weight[5];
    for (double& w : weight) w = rng.gaussian();
    for (std::size_t d = 0; d < row.size(); ++d) {
      double v = 1e-3 * rng.gaussian();
      for (std::size_t k = 0; k < 5; ++k) v += weight[k] * basis[k][d];
      row[d] = static_cast<float>(v);
    }
  }
  Pca here, there;
  here.fit(data, 16);
  ThreadPool::global().submit([&] { there.fit(data, 16); }).get();
  const ReferencePca want = reference_gram_pca(data, 16);
  for (const Pca* pca : {&here, &there}) {
    expect_floats_bitwise_equal(pca->mean(), want.mean_, "mean");
    ASSERT_EQ(pca->components().size(), want.components_.size());
    for (std::size_t c = 0; c < want.components_.size(); ++c)
      expect_floats_bitwise_equal(pca->components()[c], want.components_[c],
                                  "component");
  }
  EXPECT_EQ(here.explained_variance_ratio(), want.explained_ratio_);
  EXPECT_EQ(there.explained_variance_ratio(), want.explained_ratio_);
}

TEST(Pca, TransformPreservesPairwiseDistanceWithFullRank) {
  // With all components kept, PCA is a rotation: distances are preserved.
  Rng rng(4);
  std::vector<std::vector<float>> data(20, std::vector<float>(3));
  for (auto& row : data)
    for (float& x : row) x = static_cast<float>(rng.gaussian());
  Pca pca;
  pca.fit(data, 3);
  auto projected = data;
  pca.transform_in_place(projected);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = i + 1; j < 6; ++j) {
      double da = 0.0, db = 0.0;
      for (std::size_t d = 0; d < data[i].size(); ++d) {
        const double diff = data[i][d] - data[j][d];
        da += diff * diff;
      }
      for (std::size_t d = 0; d < projected[i].size(); ++d) {
        const double diff = projected[i][d] - projected[j][d];
        db += diff * diff;
      }
      EXPECT_NEAR(da, db, 1e-2 * std::max(1.0, da));
    }
}

TEST(Pca, DegenerateIdenticalRows) {
  std::vector<std::vector<float>> data(5, std::vector<float>{1.0f, 2.0f});
  Pca pca;
  pca.fit(data, 2);
  const auto out = pca.transform(data[0]);
  for (float x : out) EXPECT_NEAR(x, 0.0f, 1e-6);
}

TEST(Pca, RestoreRoundTrip) {
  Rng rng(5);
  std::vector<std::vector<float>> data(30, std::vector<float>(6));
  for (auto& row : data)
    for (float& x : row) x = static_cast<float>(rng.gaussian());
  Pca pca;
  pca.fit(data, 3);
  Pca restored;
  restored.restore(pca.mean(), pca.components());
  const auto a = pca.transform(data[0]);
  const auto b = restored.transform(data[0]);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Pca, ErrorsOnMisuse) {
  Pca pca;
  EXPECT_THROW(pca.transform({1.0f}), InvalidArgument);
  EXPECT_THROW(pca.fit({}, 2), InvalidArgument);
  std::vector<std::vector<float>> data{{1, 2}, {3, 4}};
  pca.fit(data, 1);
  EXPECT_THROW(pca.transform({1.0f, 2.0f, 3.0f}), InvalidArgument);
}

TEST(FeatureScaler, NormalizesColumns) {
  std::vector<std::vector<float>> data{{0, 100}, {2, 300}, {4, 500}};
  FeatureScaler scaler;
  scaler.fit(data);
  scaler.transform_in_place(data);
  for (std::size_t c = 0; c < 2; ++c) {
    double mu = 0.0;
    for (const auto& row : data) mu += row[c];
    EXPECT_NEAR(mu / 3.0, 0.0, 1e-5);
  }
}

TEST(FeatureScaler, ZeroVarianceColumnMapsToZero) {
  std::vector<std::vector<float>> data{{7, 1}, {7, 2}, {7, 3}};
  FeatureScaler scaler;
  scaler.fit(data);
  const auto out = scaler.transform({7, 2});
  EXPECT_EQ(out[0], 0.0f);
}

TEST(FeatureScaler, RestoreRoundTrip) {
  std::vector<std::vector<float>> data{{1, 2}, {3, 4}, {5, 6}};
  FeatureScaler scaler;
  scaler.fit(data);
  FeatureScaler restored;
  restored.restore(scaler.means(), scaler.stddevs());
  EXPECT_EQ(scaler.transform({2, 3}), restored.transform({2, 3}));
}

}  // namespace
}  // namespace ns
