// Finite-difference gradient checks for every differentiable op.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "tensor/autograd.hpp"
#include "tensor/tensor.hpp"

namespace ns {
namespace {

// Checks d(loss)/d(leaf) against central finite differences for every
// element of every leaf. `build` must construct a scalar Var from the leaves.
void check_gradients(std::vector<Var>& leaves,
                     const std::function<Var(std::vector<Var>&)>& build,
                     float tol = 2e-2f, float eps = 1e-3f) {
  for (Var& leaf : leaves) leaf.zero_grad();
  Var loss = build(leaves);
  ASSERT_EQ(loss.value().numel(), 1u);
  loss.backward();

  for (std::size_t l = 0; l < leaves.size(); ++l) {
    Var& leaf = leaves[l];
    if (!leaf.requires_grad()) continue;
    const Tensor analytic = leaf.grad().clone();
    for (std::size_t i = 0; i < leaf.value().numel(); ++i) {
      const float saved = leaf.mutable_value().at(i);
      leaf.mutable_value().at(i) = saved + eps;
      const float up = build(leaves).value().at(0);
      leaf.mutable_value().at(i) = saved - eps;
      const float down = build(leaves).value().at(0);
      leaf.mutable_value().at(i) = saved;
      const float numeric = (up - down) / (2.0f * eps);
      const float a = analytic.at(i);
      const float denom = std::max({1.0f, std::abs(a), std::abs(numeric)});
      EXPECT_NEAR(a / denom, numeric / denom, tol)
          << "leaf " << l << " element " << i;
    }
  }
}

std::vector<Var> make_leaves(std::vector<Shape> shapes, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Var> leaves;
  for (auto& s : shapes)
    leaves.push_back(Var::leaf(Tensor::randn(std::move(s), rng), true));
  return leaves;
}

TEST(Autograd, AddGrad) {
  auto leaves = make_leaves({{3, 2}, {3, 2}}, 1);
  check_gradients(leaves, [](std::vector<Var>& v) {
    return vmean(vadd(v[0], v[1]));
  });
}

TEST(Autograd, SubGrad) {
  auto leaves = make_leaves({{2, 3}, {2, 3}}, 2);
  check_gradients(leaves, [](std::vector<Var>& v) {
    return vmean(vmul(vsub(v[0], v[1]), vsub(v[0], v[1])));
  });
}

TEST(Autograd, MulGrad) {
  auto leaves = make_leaves({{4}, {4}}, 3);
  check_gradients(leaves, [](std::vector<Var>& v) {
    return vsum(vmul(v[0], v[1]));
  });
}

TEST(Autograd, ScaleAndAddScalarGrad) {
  auto leaves = make_leaves({{3, 3}}, 4);
  check_gradients(leaves, [](std::vector<Var>& v) {
    return vmean(vadd_scalar(vscale(v[0], 2.5f), 1.0f));
  });
}

TEST(Autograd, MatmulGrad) {
  auto leaves = make_leaves({{3, 4}, {4, 2}}, 5);
  check_gradients(leaves, [](std::vector<Var>& v) {
    return vmean(vmatmul(v[0], v[1]));
  });
}

TEST(Autograd, MatmulChainGrad) {
  auto leaves = make_leaves({{2, 3}, {3, 3}, {3, 2}}, 6);
  check_gradients(leaves, [](std::vector<Var>& v) {
    return vmean(vmatmul(vmatmul(v[0], v[1]), v[2]));
  });
}

TEST(Autograd, TransposeGrad) {
  auto leaves = make_leaves({{2, 5}}, 7);
  check_gradients(leaves, [](std::vector<Var>& v) {
    return vmean(vmatmul(v[0], vtranspose(v[0])));
  });
}

TEST(Autograd, AddRowvecGrad) {
  auto leaves = make_leaves({{4, 3}, {3}}, 8);
  check_gradients(leaves, [](std::vector<Var>& v) {
    Var y = vadd_rowvec(v[0], v[1]);
    return vmean(vmul(y, y));
  });
}

TEST(Autograd, ColwiseScaleGrad) {
  auto leaves = make_leaves({{4, 3}, {4}}, 9);
  check_gradients(leaves, [](std::vector<Var>& v) {
    Var y = vcolwise_scale(v[0], v[1]);
    return vmean(vmul(y, y));
  });
}

TEST(Autograd, SoftmaxGrad) {
  auto leaves = make_leaves({{3, 5}}, 10);
  check_gradients(leaves, [](std::vector<Var>& v) {
    Var y = vsoftmax_rows(v[0]);
    return vmean(vmul(y, y));
  });
}

TEST(Autograd, LayerNormGrad) {
  auto leaves = make_leaves({{4, 6}, {6}, {6}}, 11);
  check_gradients(
      leaves,
      [](std::vector<Var>& v) {
        Var y = vlayernorm_rows(v[0], v[1], v[2]);
        return vmean(vmul(y, y));
      },
      3e-2f);
}

TEST(Autograd, ReluGrad) {
  auto leaves = make_leaves({{5, 5}}, 12);
  // Shift away from 0 to avoid kinks at the finite-difference points.
  for (float& x : leaves[0].mutable_value().flat())
    if (std::abs(x) < 0.05f) x += 0.2f;
  check_gradients(leaves, [](std::vector<Var>& v) {
    return vmean(vrelu(v[0]));
  });
}

TEST(Autograd, GeluGrad) {
  auto leaves = make_leaves({{4, 4}}, 13);
  check_gradients(leaves, [](std::vector<Var>& v) {
    return vmean(vgelu(v[0]));
  });
}

TEST(Autograd, TanhSigmoidExpGrad) {
  auto leaves = make_leaves({{3, 3}}, 14);
  check_gradients(leaves, [](std::vector<Var>& v) {
    return vmean(vtanh(vsigmoid(vexp(vscale(v[0], 0.3f)))));
  });
}

TEST(Autograd, SliceColsGrad) {
  auto leaves = make_leaves({{3, 6}}, 15);
  check_gradients(leaves, [](std::vector<Var>& v) {
    Var y = vslice_cols(v[0], 1, 4);
    return vmean(vmul(y, y));
  });
}

TEST(Autograd, SliceRowsGrad) {
  auto leaves = make_leaves({{6, 3}}, 16);
  check_gradients(leaves, [](std::vector<Var>& v) {
    Var y = vslice_rows(v[0], 2, 5);
    return vmean(vmul(y, y));
  });
}

TEST(Autograd, ConcatColsGrad) {
  auto leaves = make_leaves({{3, 2}, {3, 4}}, 17);
  check_gradients(leaves, [](std::vector<Var>& v) {
    const std::vector<Var> parts{v[0], v[1]};
    Var y = vconcat_cols(parts);
    return vmean(vmul(y, y));
  });
}

TEST(Autograd, ConcatRowsGrad) {
  auto leaves = make_leaves({{2, 3}, {4, 3}}, 18);
  check_gradients(leaves, [](std::vector<Var>& v) {
    const std::vector<Var> parts{v[0], v[1]};
    Var y = vconcat_rows(parts);
    return vmean(vmul(y, y));
  });
}

TEST(Autograd, MaskGrad) {
  auto leaves = make_leaves({{3, 3}}, 19);
  Tensor mask(Shape{3, 3}, {1, 0, 1, 0, 1, 0, 1, 1, 0});
  check_gradients(leaves, [mask](std::vector<Var>& v) {
    return vmean(vmask(v[0], mask));
  });
}

TEST(Autograd, MseLossGrad) {
  auto leaves = make_leaves({{4, 3}}, 20);
  Rng rng(21);
  const Tensor target = Tensor::randn(Shape{4, 3}, rng);
  check_gradients(leaves, [target](std::vector<Var>& v) {
    return vmse_loss(v[0], target);
  });
}

TEST(Autograd, WmseLossGrad) {
  auto leaves = make_leaves({{4, 3}}, 22);
  Rng rng(23);
  const Tensor target = Tensor::randn(Shape{4, 3}, rng);
  Tensor weights(Shape{3}, {0.5f, 2.0f, 1.5f});
  check_gradients(leaves, [target, weights](std::vector<Var>& v) {
    return vwmse_loss(v[0], target, weights);
  });
}

TEST(Autograd, WmseMatchesPaperFormula) {
  // Hand-computed: T=1, M=2, W=(2, 3), pred=(1,1), target=(0,3).
  Var pred = Var::leaf(Tensor(Shape{1, 2}, {1, 1}), true);
  Tensor target(Shape{1, 2}, {0, 3});
  Tensor w(Shape{2}, {2, 3});
  Var loss = vwmse_loss(pred, target, w);
  // (2*1 + 3*4) / 2 = 7
  EXPECT_NEAR(loss.value().at(0), 7.0f, 1e-5);
}

TEST(Autograd, DiamondGraphAccumulatesBothPaths) {
  // loss = mean(x*x + x*x) must give grad 4x/n, not 2x/n.
  Var x = Var::leaf(Tensor(Shape{2}, {1.0f, 2.0f}), true);
  Var a = vmul(x, x);
  Var loss = vmean(vadd(a, a));
  loss.backward();
  EXPECT_NEAR(x.grad().at(0), 4.0f * 1.0f / 2.0f, 1e-5);
  EXPECT_NEAR(x.grad().at(1), 4.0f * 2.0f / 2.0f, 1e-5);
}

TEST(Autograd, GradAccumulatesAcrossBackwardCalls) {
  Var x = Var::leaf(Tensor(Shape{1}, {3.0f}), true);
  for (int i = 0; i < 2; ++i) {
    Var loss = vmul(x, x);
    loss.backward();
  }
  EXPECT_NEAR(x.grad().at(0), 2 * 2.0f * 3.0f, 1e-4);
  x.zero_grad();
  EXPECT_EQ(x.grad().at(0), 0.0f);
}

TEST(Autograd, ConstantsReceiveNoGradient) {
  Var x = Var::leaf(Tensor(Shape{2}, {1, 2}), true);
  Var c = Var::constant(Tensor(Shape{2}, {5, 5}));
  Var loss = vsum(vmul(x, c));
  loss.backward();
  EXPECT_FALSE(c.requires_grad());
  EXPECT_NEAR(x.grad().at(0), 5.0f, 1e-5);
}

}  // namespace
}  // namespace ns
