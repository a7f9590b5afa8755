#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
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
  const auto eig = symmetric_eigen(m, 3, 3);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-10);
  EXPECT_NEAR(eig.values[2], 1.0, 1e-10);
}

TEST(SymmetricEigen, KnownSymmetricMatrix) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors (1,1), (1,-1).
  std::vector<double> m{2, 1, 1, 2};
  const auto eig = symmetric_eigen(m, 2, 2);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-10);
  EXPECT_NEAR(std::abs(eig.vectors[0][0]), std::abs(eig.vectors[0][1]), 1e-8);
}

TEST(SymmetricEigen, EmptyAndMismatchedInput) {
  EXPECT_THROW(symmetric_eigen(std::vector<double>(5), 2, 2),
               InvalidArgument);
  EXPECT_THROW(symmetric_eigen(std::vector<double>(4), 2, 3),
               InvalidArgument);
  EXPECT_TRUE(symmetric_eigen({}, 0, 0).values.empty());
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
  const auto eig = symmetric_eigen(a, n, n);
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

// ---- The full solver as it was before it computed only the leading
// eigenvectors (EISPACK tred2 + tql2 with every reflector accumulated and
// every rotation applied to every row), verbatim, kept as the reference.
// QL sweeps allowed per eigenvalue before symmetric_eigen gives up; implicit
// shifts converge cubically, so a handful is typical (EISPACK uses 30).
constexpr std::size_t kMaxQlIterations = 30;

// Householder reduction of the symmetric matrix in `w` (row-major n*n) to
// tridiagonal form, EISPACK's tred2 as laid out in JAMA. On return `d` holds
// the diagonal, e[1..n) the subdiagonal, and row k of `w` column k of the
// accumulated orthogonal transformation. The textbook algorithm walks
// columns; here every index pair is swapped (the input is symmetric, so it
// is its own transpose) and each O(n^3) loop runs along a row.
void tridiagonalize(std::vector<double>& w, std::size_t n,
                    std::vector<double>& d, std::vector<double>& e) {
  const auto row = [&](std::size_t r) { return w.data() + r * n; };
  for (std::size_t j = 0; j < n; ++j) d[j] = row(j)[n - 1];

  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::abs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = row(j)[i - 1];
        row(j)[i] = 0.0;
        row(i)[j] = 0.0;
      }
    } else {
      // Householder vector u (in d, scaled against under/overflow) that
      // zeroes row i left of the subdiagonal; it is kept in row i.
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = f > 0.0 ? -std::sqrt(h) : std::sqrt(h);
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      std::fill(e.begin(), e.begin() + static_cast<std::ptrdiff_t>(i), 0.0);
      // p = A u / h over the leading i x i block, read from its upper
      // triangle.
      for (std::size_t j = 0; j < i; ++j) {
        const double* wj = row(j);
        f = d[j];
        row(i)[j] = f;
        g = e[j] + wj[j] * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += wj[k] * d[k];
          e[k] += wj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      // A -= u q^T + q u^T with q = p - (u^T p / 2h) u.
      for (std::size_t j = 0; j < i; ++j) {
        double* wj = row(j);
        f = d[j];
        g = e[j];
        for (std::size_t k = j; k < i; ++k) wj[k] -= f * e[k] + g * d[k];
        d[j] = wj[i - 1];
        wj[i] = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the reflections into the transformation.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    double* wi = row(i);
    const double* u = row(i + 1);
    wi[n - 1] = wi[i];
    wi[i] = 1.0;
    const double h = d[i + 1];
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = u[k] / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double* wj = row(j);
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += u[k] * wj[k];
        for (std::size_t k = 0; k <= i; ++k) wj[k] -= g * d[k];
      }
    }
    std::fill(row(i + 1), row(i + 1) + i + 1, 0.0);
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = row(j)[n - 1];
    row(j)[n - 1] = 0.0;
  }
  row(n - 1)[n - 1] = 1.0;
  e[0] = 0.0;
}

// Implicit-shift QL on the tridiagonal (d, e) from tridiagonalize(),
// EISPACK's tql2 as laid out in JAMA. Leaves the eigenvalues in `d` and
// applies every Givens rotation to two rows of `w`, so row k ends as the
// eigenvector of d[k]. Throws ns::Error when an eigenvalue fails to
// converge within kMaxQlIterations sweeps.
void tridiagonal_ql(std::vector<double>& w, std::size_t n,
                    std::vector<double>& d, std::vector<double>& e) {
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  const double eps = std::ldexp(1.0, -52);
  double shift = 0.0;
  double tst1 = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    // Find a negligible subdiagonal element; e[n-1] == 0 stops the scan.
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    std::size_t m = l;
    while (std::abs(e[m]) > eps * tst1) ++m;

    for (std::size_t iter = 0; m > l && std::abs(e[l]) > eps * tst1;
         ++iter) {
      if (iter == kMaxQlIterations)
        throw Error("symmetric_eigen: QL iteration did not converge");
      // Implicit shift from the leading 2x2 block.
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      double r = std::hypot(p, 1.0);
      if (p < 0.0) r = -r;
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
      shift += h;

      // Chase the bulge from m back to l with Givens rotations.
      p = d[m];
      double c = 1.0, c2 = 1.0, c3 = 1.0;
      double s = 0.0, s2 = 0.0;
      const double el1 = e[l + 1];
      for (std::size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        r = std::hypot(p, e[i]);
        e[i + 1] = s * r;
        s = e[i] / r;
        c = p / r;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);
        double* lo = w.data() + i * n;
        double* hi = lo + n;
        for (std::size_t k = 0; k < n; ++k) {
          const double a = lo[k];
          const double b = hi[k];
          hi[k] = s * a + c * b;
          lo[k] = c * a - s * b;
        }
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += shift;
    e[l] = 0.0;
  }
}

// The old entry point: all n eigenpairs, sorted by descending eigenvalue.
EigenDecomposition reference_symmetric_eigen(std::vector<double> a,
                                             std::size_t n) {
  EigenDecomposition out;
  if (n == 0) return out;
  std::vector<double> d(n), e(n);
  tridiagonalize(a, n, d, e);
  tridiagonal_ql(a, n, d, e);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] > d[y]; });
  out.values.resize(n);
  out.vectors.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    out.values[r] = d[order[r]];
    const double* v = a.data() + order[r] * n;
    out.vectors[r].assign(v, v + n);
  }
  return out;
}

// A v - lambda v for the row-major n x n matrix `a`.
std::vector<double> eigen_residual(const std::vector<double>& a,
                                   std::size_t n, double lambda,
                                   const std::vector<double>& v) {
  std::vector<double> r(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += a[i * n + j] * v[j];
    r[i] = acc - lambda * v[i];
  }
  return r;
}

class SymmetricEigenTopK : public ::testing::TestWithParam<EigenCase> {};

// For k in {1, 16, n}: every eigenvalue bitwise equal to the full
// reference's, each of the k vectors the reference's up to sign, a
// residual and orthonormality within ReconstructsMatrix's bounds, and each
// vector's bits the same whatever k asked for it.
TEST_P(SymmetricEigenTopK, MatchesFullReference) {
  const std::size_t n = GetParam().n;
  const std::vector<double> a = make_matrix(GetParam());
  const EigenDecomposition want = reference_symmetric_eigen(a, n);
  double scale = 1.0;
  for (double v : a) scale = std::max(scale, std::abs(v));

  const EigenDecomposition widest = symmetric_eigen(a, n, n);
  for (std::size_t k : {std::size_t{1}, std::size_t{16}, n}) {
    k = std::min(k, n);
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    const EigenDecomposition eig = symmetric_eigen(a, n, k);
    ASSERT_EQ(eig.values.size(), n);
    ASSERT_EQ(eig.vectors.size(), k);
    EXPECT_EQ(0, std::memcmp(eig.values.data(), want.values.data(),
                             n * sizeof(double)))
        << "eigenvalues differ bitwise";

    double worst_match = 0.0;
    double worst_residual = 0.0;
    double worst_orthogonality = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(eig.vectors[i].size(), n);
      double dot = 0.0;
      for (std::size_t t = 0; t < n; ++t)
        dot += eig.vectors[i][t] * want.vectors[i][t];
      const double sign = dot < 0.0 ? -1.0 : 1.0;
      for (std::size_t t = 0; t < n; ++t)
        worst_match =
            std::max(worst_match, std::abs(eig.vectors[i][t] -
                                           sign * want.vectors[i][t]));
      for (double r :
           eigen_residual(a, n, eig.values[i], eig.vectors[i]))
        worst_residual = std::max(worst_residual, std::abs(r));
      for (std::size_t j = i; j < k; ++j) {
        double ij = 0.0;
        for (std::size_t t = 0; t < n; ++t)
          ij += eig.vectors[i][t] * eig.vectors[j][t];
        worst_orthogonality =
            std::max(worst_orthogonality, std::abs(ij - (i == j ? 1.0 : 0.0)));
      }
    }
    EXPECT_LE(worst_match, 1e-9);
    EXPECT_LE(worst_residual, 1e-9 * scale);
    EXPECT_LE(worst_orthogonality, 1e-10);

    for (std::size_t i = 0; i < k; ++i)
      EXPECT_EQ(0, std::memcmp(eig.vectors[i].data(),
                               widest.vectors[i].data(), n * sizeof(double)))
          << "vector " << i << " depends on k";
  }
}

std::vector<EigenCase> top_k_cases() {
  std::vector<EigenCase> cases;
  for (std::size_t n : {1, 3, 17, 128, 440})
    for (MatrixShape shape : {MatrixShape::kRandom, MatrixShape::kRepeated,
                              MatrixShape::kZero, MatrixShape::kGram})
      cases.push_back({shape, n});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, SymmetricEigenTopK,
                         ::testing::ValuesIn(top_k_cases()));

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
  const EigenDecomposition eig = symmetric_eigen(std::move(gram), rows, keep);
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

// ---- The covariance route of Pca::fit as it was before its covariance
// and directions were built on the pool (sample-major serial loops), with
// the solver asked for the kept vectors, kept as the reference.
ReferencePca reference_covariance_pca(
    const std::vector<std::vector<float>>& matrix, std::size_t components) {
  ReferencePca out;
  const std::size_t rows = matrix.size();
  const std::size_t dims = matrix.front().size();
  out.mean_.assign(dims, 0.0f);
  for (const auto& row : matrix)
    for (std::size_t d = 0; d < dims; ++d) out.mean_[d] += row[d];
  for (float& m : out.mean_) m /= static_cast<float>(rows);
  std::vector<std::vector<double>> centered(rows, std::vector<double>(dims));
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t d = 0; d < dims; ++d)
      centered[r][d] = static_cast<double>(matrix[r][d]) - out.mean_[d];
  const std::size_t keep =
      std::min({components, rows > 1 ? rows - 1 : 1, dims});

  std::vector<double> cov(dims * dims, 0.0);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t i = 0; i < dims; ++i)
      for (std::size_t j = i; j < dims; ++j)
        cov[i * dims + j] += centered[r][i] * centered[r][j];
  for (std::size_t i = 0; i < dims; ++i)
    for (std::size_t j = i; j < dims; ++j) cov[j * dims + i] = cov[i * dims + j];
  const EigenDecomposition eig = symmetric_eigen(std::move(cov), dims, keep);
  double total_variance = 0.0;
  double kept_variance = 0.0;
  for (double l : eig.values) total_variance += std::max(0.0, l);
  for (std::size_t c = 0; c < keep; ++c) {
    if (eig.values[c] <= 1e-12) break;
    kept_variance += eig.values[c];
    std::vector<float> direction(dims);
    for (std::size_t d = 0; d < dims; ++d)
      direction[d] = static_cast<float>(eig.vectors[c][d]);
    out.components_.push_back(std::move(direction));
  }
  out.explained_ratio_ =
      total_variance > 0.0 ? kept_variance / total_variance : 1.0;
  return out;
}

// More samples than dims: fit() takes the covariance route, whose
// covariance and directions are built on the pool from the test thread and
// serially from a pool worker. Both must give the serial reference's bits,
// and transform_in_place() must give transform()'s on every row.
TEST(Pca, CovarianceRouteMatchesSerialReferenceOnAnyThread) {
  Rng rng(9);
  const std::size_t dims = 70;  // more than one block of covariance rows
  std::vector<std::vector<double>> basis(4, std::vector<double>(dims));
  for (auto& b : basis)
    for (double& x : b) x = rng.gaussian();
  std::vector<std::vector<float>> data(300, std::vector<float>(dims));
  for (auto& row : data) {
    double weight[4];
    for (double& w : weight) w = rng.gaussian();
    for (std::size_t d = 0; d < dims; ++d) {
      double v = 1e-3 * rng.gaussian();
      for (std::size_t k = 0; k < 4; ++k) v += weight[k] * basis[k][d];
      row[d] = static_cast<float>(v);
    }
  }
  Pca here, there;
  here.fit(data, 16);
  ThreadPool::global().submit([&] { there.fit(data, 16); }).get();
  const ReferencePca want = reference_covariance_pca(data, 16);
  ASSERT_EQ(want.components_.size(), 16u);
  for (const Pca* pca : {&here, &there}) {
    expect_floats_bitwise_equal(pca->mean(), want.mean_, "mean");
    ASSERT_EQ(pca->components().size(), want.components_.size());
    for (std::size_t c = 0; c < want.components_.size(); ++c)
      expect_floats_bitwise_equal(pca->components()[c], want.components_[c],
                                  "component");
  }
  EXPECT_EQ(here.explained_variance_ratio(), want.explained_ratio_);
  EXPECT_EQ(there.explained_variance_ratio(), want.explained_ratio_);

  auto parallel = data;
  here.transform_in_place(parallel);
  auto nested = data;
  ThreadPool::global().submit([&] { here.transform_in_place(nested); }).get();
  for (std::size_t r = 0; r < data.size(); ++r) {
    const std::vector<float> one = here.transform(data[r]);
    expect_floats_bitwise_equal(parallel[r], one, "projected row");
    expect_floats_bitwise_equal(nested[r], one, "projected row");
  }
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
