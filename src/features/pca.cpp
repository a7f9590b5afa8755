#include "features/pca.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace ns {

namespace {

// QL sweeps allowed per eigenvalue before symmetric_eigen gives up; implicit
// shifts converge cubically, so a handful is typical (EISPACK uses 30).
constexpr std::size_t kMaxQlIterations = 30;

// Output rows per task of the covariance build: the block's rows stay in
// cache while every sample streams past once.
constexpr std::size_t kCovRowBlock = 16;

// Rows of tridiagonalize's p = A u pass that run side by side.
constexpr std::size_t kPassRows = 4;

// Rows [j, j + R) of tridiagonalize's p = A u pass over the leading i x i
// block: row r stores u_r into row i, sums its dot product g in its own
// column order, and adds its share to every e[k] right of it. Row r starts
// once the rows above it added theirs to e[j + r], and each e[k] takes
// the rows' shares in row order, so the bits are those of R passes one row
// at a time; the R dependent add chains overlap instead of queueing. The
// row loops unroll so each g[r] stays in a register (at -O2 GCC would
// otherwise keep g in memory, and the chains would not overlap).
template <std::size_t R>
void accumulate_rows(std::vector<double>& w, std::size_t n, std::size_t i,
                     std::size_t j, const std::vector<double>& d,
                     std::vector<double>& e) {
  const double* wr[R];
  double f[R];
  double g[R];
  for (std::size_t r = 0; r < R; ++r) {
    wr[r] = w.data() + (j + r) * n;
    f[r] = d[j + r];
    w[i * n + j + r] = f[r];
  }
  g[0] = e[j] + wr[0][j] * f[0];
  for (std::size_t s = 1; s < R; ++s) {
    const std::size_t k = j + s;
    double ek = e[k];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < s; ++r) {
      g[r] += wr[r][k] * d[k];
      ek += wr[r][k] * f[r];
    }
    g[s] = ek + wr[s][k] * f[s];
  }
  for (std::size_t k = j + R; k < i; ++k) {
    const double dk = d[k];
    double ek = e[k];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      g[r] += wr[r][k] * dk;
      ek += wr[r][k] * f[r];
    }
    e[k] = ek;
  }
  for (std::size_t r = 0; r < R; ++r) e[j + r] = g[r];
}

// Householder reduction of the symmetric matrix in `w` (row-major n*n) to
// tridiagonal form, the reduction half of EISPACK's tred2 as laid out in
// JAMA. On return `d` holds the diagonal and e[1..n) the subdiagonal. For
// i >= 1, row i of `w` keeps reflector i's vector u_i in its first i
// entries and reflector_h[i] its h: P_i = I - u_i u_i^T / h acts on
// coordinates [0, i) (h == 0: no reflection), and the matrix equals
// P_{n-1} ... P_1 T P_1 ... P_{n-1}. The textbook algorithm walks columns;
// here every index pair is swapped (the input is symmetric, so it is its
// own transpose) and each O(n^3) loop runs along a row.
void tridiagonalize(std::vector<double>& w, std::size_t n,
                    std::vector<double>& d, std::vector<double>& e,
                    std::vector<double>& reflector_h) {
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
      // triangle, kPassRows rows at a time.
      std::size_t j0 = 0;
      for (; j0 + kPassRows <= i; j0 += kPassRows)
        accumulate_rows<kPassRows>(w, n, i, j0, d, e);
      for (; j0 < i; ++j0) accumulate_rows<1>(w, n, i, j0, d, e);
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
    reflector_h[i] = h;
  }
  // The reduction leaves T's diagonal on w's.
  for (std::size_t j = 0; j < n; ++j) d[j] = row(j)[j];
  e[0] = 0.0;
}

// One Givens rotation of the QL sweep, on coordinates (i, i + 1).
struct Givens {
  std::size_t i = 0;
  double c = 1.0;
  double s = 0.0;
};

// Implicit-shift QL on the tridiagonal (d, e) from tridiagonalize(), the
// eigenvalue half of EISPACK's tql2 as laid out in JAMA. Leaves the
// eigenvalues in `d` and records every Givens rotation in `rotations` in
// the order applied, so that column j of G_1 G_2 ... G_m is the
// tridiagonal's eigenvector of d[j]. Throws ns::Error when an eigenvalue
// fails to converge within kMaxQlIterations sweeps.
void tridiagonal_ql(std::size_t n, std::vector<double>& d,
                    std::vector<double>& e, std::vector<Givens>& rotations) {
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
        rotations.push_back({i, c, s});
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += shift;
    e[l] = 0.0;
  }
}

// Eigenvectors of the original matrix for the tridiagonal eigenvalues
// d[cols[0..k)], returned as the columns of a row-major n x k matrix, so
// every update below runs along the k vectors at once. Starting from unit vectors, the
// recorded rotations are applied last to first (G_1 (G_2 (... G_m e_j))),
// then the reflectors P_1 first (P_{n-1} (... (P_1 z))). Each vector's
// arithmetic is independent of the others, so its bits do not depend on k.
std::vector<double> back_transform(const std::vector<double>& w,
                                   std::size_t n,
                                   const std::vector<double>& reflector_h,
                                   const std::vector<Givens>& rotations,
                                   const std::vector<std::size_t>& cols) {
  const std::size_t k = cols.size();
  std::vector<double> x(n * k, 0.0);
  for (std::size_t j = 0; j < k; ++j) x[cols[j] * k + j] = 1.0;
  for (auto it = rotations.rbegin(); it != rotations.rend(); ++it) {
    double* lo = x.data() + it->i * k;
    double* hi = lo + k;
    for (std::size_t j = 0; j < k; ++j) {
      const double a = lo[j];
      const double b = hi[j];
      lo[j] = it->c * a + it->s * b;
      hi[j] = it->c * b - it->s * a;
    }
  }
  std::vector<double> g(k);
  std::vector<double> scaled(n);
  for (std::size_t i = 1; i < n; ++i) {
    const double h = reflector_h[i];
    if (h == 0.0) continue;
    const double* u = w.data() + i * n;
    for (std::size_t t = 0; t < i; ++t) scaled[t] = u[t] / h;
    std::fill(g.begin(), g.end(), 0.0);
    for (std::size_t t = 0; t < i; ++t) {
      const double* xt = x.data() + t * k;
      for (std::size_t j = 0; j < k; ++j) g[j] += u[t] * xt[j];
    }
    for (std::size_t t = 0; t < i; ++t) {
      double* xt = x.data() + t * k;
      for (std::size_t j = 0; j < k; ++j) xt[j] -= g[j] * scaled[t];
    }
  }
  return x;
}

}  // namespace

EigenDecomposition symmetric_eigen(std::vector<double> a, std::size_t n,
                                   std::size_t k) {
  NS_REQUIRE(a.size() == n * n, "symmetric_eigen: matrix size mismatch");
  NS_REQUIRE(k <= n, "symmetric_eigen: " << k << " vectors of an " << n
                                         << " x " << n << " matrix");
  EigenDecomposition out;
  if (n == 0) return out;
  std::vector<double> d(n), e(n), reflector_h(n, 0.0);
  tridiagonalize(a, n, d, e, reflector_h);
  std::vector<Givens> rotations;
  tridiagonal_ql(n, d, e, rotations);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] > d[y]; });
  out.values.resize(n);
  for (std::size_t r = 0; r < n; ++r) out.values[r] = d[order[r]];

  order.resize(k);
  const std::vector<double> x =
      back_transform(a, n, reflector_h, rotations, order);
  out.vectors.assign(k, std::vector<double>(n));
  for (std::size_t t = 0; t < n; ++t)
    for (std::size_t j = 0; j < k; ++j) out.vectors[j][t] = x[t * k + j];
  return out;
}

void Pca::fit(const std::vector<std::vector<float>>& matrix,
              std::size_t components) {
  NS_REQUIRE(!matrix.empty(), "Pca::fit on empty matrix");
  const std::size_t rows = matrix.size();
  const std::size_t dims = matrix.front().size();
  NS_REQUIRE(components >= 1, "Pca::fit: need at least one component");

  mean_.assign(dims, 0.0f);
  for (const auto& row : matrix) {
    NS_REQUIRE(row.size() == dims, "Pca::fit: ragged matrix");
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
  components_.clear();

  EigenDecomposition eig;
  if (rows <= dims) {
    // Gram trick: eigen of G = X X^T (rows x rows); principal direction
    // w_i = X^T u_i / sqrt(lambda_i).
    // One task per row fills the row's upper part, each dot product in
    // ascending d; the lower triangle is mirrored afterwards, so no task
    // writes into other tasks' rows.
    std::vector<double> gram(rows * rows, 0.0);
    parallel_for(0, rows, [&](std::size_t i) {
      for (std::size_t j = i; j < rows; ++j) {
        double dot = 0.0;
        for (std::size_t d = 0; d < dims; ++d)
          dot += centered[i][d] * centered[j][d];
        gram[i * rows + j] = dot;
      }
    });
    for (std::size_t i = 1; i < rows; ++i)
      for (std::size_t j = 0; j < i; ++j)
        gram[i * rows + j] = gram[j * rows + i];
    eig = symmetric_eigen(std::move(gram), rows, keep);
  } else {
    // Covariance route (dims x dims). Each task owns a block of output
    // rows and sums every entry over the samples in ascending order, as a
    // serial sample-major loop would; the lower triangle is mirrored after.
    std::vector<double> cov(dims * dims, 0.0);
    const std::size_t blocks = (dims + kCovRowBlock - 1) / kCovRowBlock;
    parallel_for(0, blocks, [&](std::size_t b) {
      const std::size_t first = b * kCovRowBlock;
      const std::size_t last = std::min(dims, first + kCovRowBlock);
      for (std::size_t r = 0; r < rows; ++r) {
        const double* x = centered[r].data();
        for (std::size_t i = first; i < last; ++i) {
          double* out = cov.data() + i * dims;
          for (std::size_t j = i; j < dims; ++j) out[j] += x[i] * x[j];
        }
      }
    });
    for (std::size_t i = 0; i < dims; ++i)
      for (std::size_t j = i; j < dims; ++j) {
        cov[j * dims + i] = cov[i * dims + j];
      }
    eig = symmetric_eigen(std::move(cov), dims, keep);
  }
  double total_variance = 0.0;
  for (double l : eig.values) total_variance += std::max(0.0, l);
  // The leading eigenpairs with a non-negligible eigenvalue become the
  // components, one task per direction; values[] is descending, so they
  // are a prefix.
  double kept_variance = 0.0;
  std::size_t kept = 0;
  while (kept < keep && !(eig.values[kept] <= 1e-12))
    kept_variance += eig.values[kept++];
  components_.assign(kept, std::vector<float>(dims, 0.0f));
  parallel_for(0, kept, [&](std::size_t c) {
    std::vector<float>& direction = components_[c];
    if (rows <= dims) {
      const double inv_sqrt = 1.0 / std::sqrt(eig.values[c]);
      for (std::size_t r = 0; r < rows; ++r) {
        const double coeff = eig.vectors[c][r] * inv_sqrt;
        for (std::size_t d = 0; d < dims; ++d)
          direction[d] += static_cast<float>(coeff * centered[r][d]);
      }
    } else {
      for (std::size_t d = 0; d < dims; ++d)
        direction[d] = static_cast<float>(eig.vectors[c][d]);
    }
  });
  if (components_.empty()) {
    // Degenerate data (all rows identical): a single arbitrary direction so
    // transform() still produces a well-formed (all-zero) projection.
    components_.emplace_back(dims, 0.0f);
    components_[0][0] = 1.0f;
  }
  explained_ratio_ =
      total_variance > 0.0 ? kept_variance / total_variance : 1.0;
}

std::vector<float> Pca::transform(const std::vector<float>& features) const {
  NS_REQUIRE(fitted(), "Pca::transform before fit");
  NS_REQUIRE(features.size() == mean_.size(), "Pca::transform: dim mismatch");
  std::vector<float> out(components_.size(), 0.0f);
  for (std::size_t c = 0; c < components_.size(); ++c) {
    double acc = 0.0;
    for (std::size_t d = 0; d < features.size(); ++d)
      acc += (features[d] - mean_[d]) * components_[c][d];
    out[c] = static_cast<float>(acc);
  }
  return out;
}

void Pca::transform_in_place(std::vector<std::vector<float>>& matrix) const {
  parallel_for(0, matrix.size(),
               [&](std::size_t r) { matrix[r] = transform(matrix[r]); });
}

void Pca::restore(std::vector<float> mean,
                  std::vector<std::vector<float>> components) {
  NS_REQUIRE(!components.empty(), "Pca::restore: no components");
  for (const auto& c : components)
    NS_REQUIRE(c.size() == mean.size(), "Pca::restore: dim mismatch");
  mean_ = std::move(mean);
  components_ = std::move(components);
}

}  // namespace ns
