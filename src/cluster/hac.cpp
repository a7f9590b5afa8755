#include "cluster/hac.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/error.hpp"

namespace ns {
namespace {

// Lance–Williams coefficients: d(k, i∪j) = ai*d(ki) + aj*d(kj) + b*d(ij)
// + g*|d(ki) - d(kj)|. Ward operates on squared Euclidean distances.
struct LwCoeffs {
  double ai, aj, b, g;
};

LwCoeffs lw_coeffs(Linkage linkage, double ni, double nj, double nk) {
  switch (linkage) {
    case Linkage::kSingle: return {0.5, 0.5, 0.0, -0.5};
    case Linkage::kComplete: return {0.5, 0.5, 0.0, 0.5};
    case Linkage::kAverage:
      return {ni / (ni + nj), nj / (ni + nj), 0.0, 0.0};
    case Linkage::kWard: {
      const double denom = ni + nj + nk;
      return {(ni + nk) / denom, (nj + nk) / denom, -nk / denom, 0.0};
    }
  }
  return {0.5, 0.5, 0.0, 0.0};
}

}  // namespace

Hac::Hac(const std::vector<std::vector<float>>& points, Linkage linkage)
    : Hac(DistanceMatrix::build(points, linkage == Linkage::kWard), linkage) {}

Hac::Hac(DistanceMatrix dist, Linkage linkage) : n_(dist.size()) {
  NS_REQUIRE(n_ >= 1, "HAC needs at least one point");
  const bool squared = (linkage == Linkage::kWard);

  // Slot i holds cluster cluster_id[i] while alive[i]; a merge keeps the
  // lower slot and reuses its distance matrix row.
  std::vector<bool> alive(n_, true);
  std::vector<double> size(n_, 1.0);
  std::vector<std::size_t> cluster_id(n_);
  std::iota(cluster_id.begin(), cluster_id.end(), 0);

  // Nearest-partner cache: for each live slot i, the first live j > i at
  // the row's smallest distance (n_ when there is none), as a scan of the
  // row in ascending j with a strict < finds it.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> partner(n_, n_);
  std::vector<double> nearest(n_, kInf);
  const auto rescan = [&](std::size_t i) {
    nearest[i] = kInf;
    partner[i] = n_;
    for (std::size_t j = i + 1; j < n_; ++j)
      if (alive[j] && dist.at(i, j) < nearest[i]) {
        nearest[i] = dist.at(i, j);
        partner[i] = j;
      }
  };
  for (std::size_t i = 0; i < n_; ++i) rescan(i);

  merges_.reserve(n_ > 0 ? n_ - 1 : 0);
  heights_.reserve(n_ > 0 ? n_ - 1 : 0);

  for (std::size_t step = 0; step + 1 < n_; ++step) {
    // The closest live pair: the first row holding the smallest cached
    // distance, with its cached partner. This is the pair (and tie-break)
    // of a full scan over every live i < j in row-major order.
    double best = kInf;
    std::size_t bi = 0, bj = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (alive[i] && nearest[i] < best) {
        best = nearest[i];
        bi = i;
        bj = partner[i];
      }
    }
    merges_.push_back({cluster_id[bi], cluster_id[bj]});
    heights_.push_back(squared ? std::sqrt(std::max(0.0, best)) : best);

    // Merge bj into bi; update distances via Lance–Williams.
    const double ni = size[bi], nj = size[bj];
    for (std::size_t k = 0; k < n_; ++k) {
      if (!alive[k] || k == bi || k == bj) continue;
      const LwCoeffs c = lw_coeffs(linkage, ni, nj, size[k]);
      const double dki = dist.at(k, bi);
      const double dkj = dist.at(k, bj);
      const double dij = dist.at(bi, bj);
      dist.set(k, bi,
               c.ai * dki + c.aj * dkj + c.b * dij + c.g * std::abs(dki - dkj));
    }
    alive[bj] = false;
    size[bi] = ni + nj;
    cluster_id[bi] = n_ + step;  // dendrogram node id

    // Row bi changed throughout. Any other row whose partner was bi or bj
    // is rescanned; a row left of bi otherwise changed in one entry only,
    // its distance to bi, which takes over when it is smaller or an equal
    // distance at an earlier column.
    rescan(bi);
    for (std::size_t k = 0; k < n_; ++k) {
      if (!alive[k] || k == bi) continue;
      if (partner[k] == bi || partner[k] == bj) {
        rescan(k);
      } else if (k < bi) {
        const double d = dist.at(k, bi);
        if (d < nearest[k] || (d == nearest[k] && bi < partner[k])) {
          nearest[k] = d;
          partner[k] = bi;
        }
      }
    }
  }
}

std::vector<std::size_t> Hac::cut(std::size_t k) const {
  NS_REQUIRE(k >= 1 && k <= n_, "cut: k " << k << " out of [1," << n_ << "]");
  // Replay the first n_-k merges through a union-find.
  std::vector<std::size_t> parent(2 * n_);
  std::iota(parent.begin(), parent.end(), 0);
  const std::function<std::size_t(std::size_t)> find =
      [&](std::size_t x) -> std::size_t {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t step = 0; step < n_ - k; ++step) {
    const std::size_t node = n_ + step;
    parent[find(merges_[step].a)] = node;
    parent[find(merges_[step].b)] = node;
  }
  // Compact labels in first-appearance order. A hash map keeps the
  // compaction O(n); a linear scan over the seen roots would make cut()
  // O(n*k), which the silhouette sweep calls k_max times.
  std::vector<std::size_t> labels(n_);
  std::unordered_map<std::size_t, std::size_t> root_label;
  root_label.reserve(k);
  for (std::size_t i = 0; i < n_; ++i) {
    const auto [it, inserted] =
        root_label.try_emplace(find(i), root_label.size());
    labels[i] = it->second;
  }
  NS_CHECK(root_label.size() == k,
           "cut produced " << root_label.size() << " clusters, expected "
                           << k);
  return labels;
}

double silhouette_score(const DistanceMatrix& distances,
                        const std::vector<std::size_t>& labels) {
  const std::size_t n = distances.size();
  NS_REQUIRE(labels.size() == n, "silhouette: label count mismatch");
  if (n == 0) return 0.0;
  const std::size_t k =
      labels.empty() ? 0 : *std::max_element(labels.begin(), labels.end()) + 1;
  if (k < 2) return 0.0;
  std::vector<std::size_t> cluster_size(k, 0);
  for (std::size_t l : labels) cluster_size[l]++;

  double total = 0.0;
  std::vector<double> mean_dist(k);
  for (std::size_t i = 0; i < n; ++i) {
    if (cluster_size[labels[i]] <= 1) continue;  // singleton -> s = 0
    std::fill(mean_dist.begin(), mean_dist.end(), 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      mean_dist[labels[j]] += distances.at(i, j);
    }
    double a = 0.0;
    double b = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < k; ++c) {
      if (cluster_size[c] == 0) continue;
      if (c == labels[i]) {
        a = mean_dist[c] / static_cast<double>(cluster_size[c] - 1);
      } else {
        b = std::min(b, mean_dist[c] / static_cast<double>(cluster_size[c]));
      }
    }
    const double denom = std::max(a, b);
    if (denom > 0.0) total += (b - a) / denom;
  }
  return total / static_cast<double>(n);
}

AutoKResult choose_k_by_silhouette(const Hac& hac,
                                   const DistanceMatrix& distances,
                                   std::size_t k_min, std::size_t k_max) {
  NS_REQUIRE(k_min >= 2, "silhouette needs k >= 2");
  k_max = std::min(k_max, hac.num_points());
  NS_REQUIRE(k_min <= k_max, "choose_k: empty k range");
  AutoKResult best;
  best.silhouette = -2.0;
  for (std::size_t k = k_min; k <= k_max; ++k) {
    std::vector<std::size_t> labels = hac.cut(k);
    const double score = silhouette_score(distances, labels);
    if (score > best.silhouette) {
      best.k = k;
      best.silhouette = score;
      best.labels = std::move(labels);
    }
  }
  return best;
}

}  // namespace ns
