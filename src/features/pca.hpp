// Principal component analysis for feature-space dimensionality reduction
// (paper §2.1, Challenge 1: "Dimensionality reduction methods help mitigate
// the curse of dimensionality by transforming the data into a
// lower-dimensional space while preserving important information").
//
// Fitting uses the Gram-matrix trick when there are fewer samples than
// feature columns (the usual case: hundreds of segments x thousands of
// features), so the eigen-decomposition runs on an n x n matrix. Its rows
// are built in parallel, each dot product summed in one fixed order, so the
// bits do not depend on the thread count. The symmetric eigensolver is
// Householder tridiagonalization followed by implicit-shift QL (EISPACK
// tred2/tql2), O(n^3) with no sweep count, on one thread.
#pragma once

#include <cstddef>
#include <vector>

namespace ns {

/// Eigenvalues in descending order and the matching unit eigenvectors.
struct EigenDecomposition {
  std::vector<double> values;
  std::vector<std::vector<double>> vectors;  // vectors[i] pairs values[i]
};

/// Eigen-decomposition of a dense symmetric matrix (row-major n*n) by
/// Householder tridiagonalization and implicit-shift QL. Single-threaded
/// and deterministic; eigenvector signs are arbitrary. Throws ns::Error if
/// an eigenvalue needs more than 30 QL sweeps.
EigenDecomposition symmetric_eigen(std::vector<double> matrix, std::size_t n);

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
