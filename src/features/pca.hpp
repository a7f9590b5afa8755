// Principal component analysis for feature-space dimensionality reduction
// (paper §2.1, Challenge 1: "Dimensionality reduction methods help mitigate
// the curse of dimensionality by transforming the data into a
// lower-dimensional space while preserving important information").
//
// Fitting uses the Gram-matrix trick when there are fewer samples than
// feature columns (the usual case: hundreds of segments x thousands of
// features), so the eigen-decomposition runs on an n x n matrix. Its rows
// are built in parallel, each dot product summed in one fixed order, so the
// bits do not depend on the thread count; so are the covariance of the
// other route, the kept directions and transform_in_place(). The symmetric
// eigensolver is Householder tridiagonalization followed by implicit-shift
// QL (EISPACK tred2/tql2), on one thread: O(n^3) for the reduction and
// O(n^2) for the eigenvalues, plus O(n^2) per eigenvector asked for, so the
// k kept directions cost O(k n^2) where the full set costs O(n^3).
#pragma once

#include <cstddef>
#include <vector>

namespace ns {

/// All eigenvalues in descending order and the unit eigenvectors of the
/// leading ones.
struct EigenDecomposition {
  std::vector<double> values;                // all n
  std::vector<std::vector<double>> vectors;  // vectors[i] pairs values[i]
};

/// Eigenvalues of a dense symmetric matrix (row-major n*n) and the
/// eigenvectors of its k largest (k <= n; k = n gives the whole
/// decomposition), by Householder tridiagonalization and implicit-shift QL.
/// The QL rotations are recorded and replayed onto k unit vectors, which
/// then go back through the reflectors, so each vector is the one the full
/// decomposition computes (up to rounding) and its bits do not depend on k.
/// Single-threaded and deterministic; eigenvector signs are arbitrary.
/// Throws ns::Error if an eigenvalue needs more than 30 QL sweeps.
EigenDecomposition symmetric_eigen(std::vector<double> matrix, std::size_t n,
                                   std::size_t k);

class Pca {
 public:
  /// Fits up to `components` principal directions on the row-major sample
  /// matrix (rows = samples). The effective component count is capped by
  /// min(samples, dims).
  void fit(const std::vector<std::vector<float>>& matrix,
           std::size_t components);

  bool fitted() const { return !components_.empty(); }
  std::size_t input_dim() const { return mean_.size(); }
  std::size_t output_dim() const { return components_.size(); }

  /// Projects one feature vector onto the principal components.
  std::vector<float> transform(const std::vector<float>& features) const;
  void transform_in_place(std::vector<std::vector<float>>& matrix) const;

  /// Fraction of total variance captured by the kept components.
  double explained_variance_ratio() const { return explained_ratio_; }

  // Persistence accessors.
  const std::vector<float>& mean() const { return mean_; }
  const std::vector<std::vector<float>>& components() const {
    return components_;
  }
  void restore(std::vector<float> mean,
               std::vector<std::vector<float>> components);

 private:
  std::vector<float> mean_;
  std::vector<std::vector<float>> components_;  // each row: unit direction
  double explained_ratio_ = 0.0;
};

}  // namespace ns
