#include "tensor/autograd.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_set>

#include "common/thread_pool.hpp"
#include "tensor/kernels.hpp"
#include "tensor/shape_check.hpp"

namespace ns {

using autograd_detail::Node;

namespace {

std::shared_ptr<Node> make_node(Tensor value,
                                std::vector<std::shared_ptr<Node>> parents,
                                std::function<void(Node&)> backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  bool any_grad = false;
  for (const auto& p : parents) any_grad = any_grad || p->requires_grad;
  node->requires_grad = any_grad;
  if (any_grad) {
    node->parents = std::move(parents);
    node->backward = std::move(backward);
  }
  return node;
}

void accumulate(Node& parent, const Tensor& delta) {
  if (!parent.requires_grad) return;
  Tensor& g = parent.ensure_grad();
  NS_CHECK(g.numel() == delta.numel(), "gradient shape mismatch");
  float* pg = g.data();
  const float* pd = delta.data();
  for (std::size_t i = 0; i < g.numel(); ++i) pg[i] += pd[i];
}

/// Scratch buffers for backward-pass temporaries. backward() runs on the
/// thread that calls it (training tasks each own a thread), so a
/// thread-local arena recycles the per-step gradient temporaries without
/// any locking: after the first training step, steady-state backward passes
/// stop allocating.
Workspace& backward_workspace() {
  static thread_local Workspace workspace;
  return workspace;
}

/// accumulate() then return the temporary to the workspace.
void accumulate_scratch(Node& parent, Tensor delta, Workspace& ws) {
  accumulate(parent, delta);
  ws.release(std::move(delta));
}

}  // namespace

Var Var::leaf(Tensor value, bool requires_grad) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return Var(std::move(node));
}

const Tensor& Var::grad() const {
  NS_REQUIRE(node_ && node_->requires_grad, "grad() on non-grad Var");
  node_->ensure_grad();
  return node_->grad;
}

void Var::zero_grad() {
  NS_REQUIRE(node_ != nullptr, "zero_grad on empty Var");
  node_->ensure_grad().fill(0.0f);
}

void Var::backward() const {
  NS_REQUIRE(node_ != nullptr, "backward on empty Var");
  // Iterative post-order DFS to get a topological order.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && !visited.count(child)) {
        visited.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // Seed and propagate in reverse topological order.
  node_->ensure_grad().fill(1.0f);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward && node->grad_alloc) node->backward(*node);
  }
}

// ------------------------------------------------------------------ ops

Var vadd(const Var& a, const Var& b) {
  Tensor value = add(a.value(), b.value());
  auto pa = a.node();
  auto pb = b.node();
  return Var(make_node(std::move(value), {pa, pb}, [pa, pb](Node& n) {
    accumulate(*pa, n.grad);
    accumulate(*pb, n.grad);
  }));
}

Var vsub(const Var& a, const Var& b) {
  Tensor value = sub(a.value(), b.value());
  auto pa = a.node();
  auto pb = b.node();
  return Var(make_node(std::move(value), {pa, pb}, [pa, pb](Node& n) {
    accumulate(*pa, n.grad);
    if (pb->requires_grad) {
      Workspace& ws = backward_workspace();
      Tensor neg = ws.acquire(n.grad.shape());
      scale_into(neg, n.grad, -1.0f);
      accumulate_scratch(*pb, std::move(neg), ws);
    }
  }));
}

Var vmul(const Var& a, const Var& b) {
  Tensor value = mul(a.value(), b.value());
  auto pa = a.node();
  auto pb = b.node();
  return Var(make_node(std::move(value), {pa, pb}, [pa, pb](Node& n) {
    Workspace& ws = backward_workspace();
    if (pa->requires_grad) {
      Tensor da = ws.acquire(n.grad.shape());
      mul_into(da, n.grad, pb->value);
      accumulate_scratch(*pa, std::move(da), ws);
    }
    if (pb->requires_grad) {
      Tensor db = ws.acquire(n.grad.shape());
      mul_into(db, n.grad, pa->value);
      accumulate_scratch(*pb, std::move(db), ws);
    }
  }));
}

Var vscale(const Var& a, float s) {
  auto pa = a.node();
  return Var(make_node(scale(a.value(), s), {pa}, [pa, s](Node& n) {
    if (!pa->requires_grad) return;
    Workspace& ws = backward_workspace();
    Tensor da = ws.acquire(n.grad.shape());
    scale_into(da, n.grad, s);
    accumulate_scratch(*pa, std::move(da), ws);
  }));
}

Var vadd_scalar(const Var& a, float s) {
  auto pa = a.node();
  return Var(make_node(add_scalar(a.value(), s), {pa}, [pa](Node& n) {
    accumulate(*pa, n.grad);
  }));
}

Var vmatmul(const Var& a, const Var& b) {
  Tensor value = matmul(a.value(), b.value());
  auto pa = a.node();
  auto pb = b.node();
  return Var(make_node(std::move(value), {pa, pb}, [pa, pb](Node& n) {
    Workspace& ws = backward_workspace();
    if (pa->requires_grad) {
      // dA = dY @ B^T
      Tensor bt = ws.acquire(Shape{pb->value.size(1), pb->value.size(0)});
      transpose2d_into(bt, pb->value);
      Tensor da = ws.acquire(pa->value.shape());
      matmul_into(da, n.grad, bt);
      ws.release(std::move(bt));
      accumulate_scratch(*pa, std::move(da), ws);
    }
    if (pb->requires_grad) {
      // dB = A^T @ dY
      Tensor at = ws.acquire(Shape{pa->value.size(1), pa->value.size(0)});
      transpose2d_into(at, pa->value);
      Tensor db = ws.acquire(pb->value.shape());
      matmul_into(db, at, n.grad);
      ws.release(std::move(at));
      accumulate_scratch(*pb, std::move(db), ws);
    }
  }));
}

Var vtranspose(const Var& a) {
  auto pa = a.node();
  return Var(make_node(transpose2d(a.value()), {pa}, [pa](Node& n) {
    if (!pa->requires_grad) return;
    Workspace& ws = backward_workspace();
    Tensor da = ws.acquire(pa->value.shape());
    transpose2d_into(da, n.grad);
    accumulate_scratch(*pa, std::move(da), ws);
  }));
}

Var vadd_rowvec(const Var& x, const Var& b) {
  Tensor value = add_rowvec(x.value(), b.value());
  auto px = x.node();
  auto pb = b.node();
  return Var(make_node(std::move(value), {px, pb}, [px, pb](Node& n) {
    accumulate(*px, n.grad);
    if (pb->requires_grad) {
      const std::size_t rows = n.value.size(0), cols = n.value.size(1);
      Workspace& ws = backward_workspace();
      Tensor db = ws.acquire_zero(pb->value.shape());
      float* pdb = db.data();
      const float* pg = n.grad.data();
      for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j) pdb[j] += pg[i * cols + j];
      accumulate_scratch(*pb, std::move(db), ws);
    }
  }));
}

Var vcolwise_scale(const Var& x, const Var& s) {
  Tensor value = colwise_scale(x.value(), s.value());
  auto px = x.node();
  auto ps = s.node();
  return Var(make_node(std::move(value), {px, ps}, [px, ps](Node& n) {
    const std::size_t rows = n.value.size(0), cols = n.value.size(1);
    Workspace& ws = backward_workspace();
    if (px->requires_grad) {
      Tensor dx = ws.acquire(px->value.shape());
      colwise_scale_into(dx, n.grad, ps->value);
      accumulate_scratch(*px, std::move(dx), ws);
    }
    if (ps->requires_grad) {
      Tensor ds = ws.acquire(ps->value.shape());
      for (std::size_t i = 0; i < rows; ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < cols; ++j)
          sum += static_cast<double>(n.grad.data()[i * cols + j]) *
                 px->value.data()[i * cols + j];
        ds.data()[i] = static_cast<float>(sum);
      }
      accumulate_scratch(*ps, std::move(ds), ws);
    }
  }));
}

Var vsoftmax_rows(const Var& x) {
  Tensor value = softmax_rows(x.value());
  auto px = x.node();
  return Var(make_node(std::move(value), {px}, [px](Node& n) {
    if (!px->requires_grad) return;
    const std::size_t rows = n.value.size(0), cols = n.value.size(1);
    Workspace& ws = backward_workspace();
    Tensor dx = ws.acquire(n.value.shape());
    for (std::size_t i = 0; i < rows; ++i) {
      const float* y = n.value.data() + i * cols;
      const float* dy = n.grad.data() + i * cols;
      double dot = 0.0;
      for (std::size_t j = 0; j < cols; ++j)
        dot += static_cast<double>(dy[j]) * y[j];
      float* out = dx.data() + i * cols;
      for (std::size_t j = 0; j < cols; ++j)
        out[j] = y[j] * (dy[j] - static_cast<float>(dot));
    }
    accumulate_scratch(*px, std::move(dx), ws);
  }));
}

Var vblock_attention(const Var& q, const Var& k, const Var& v,
                     std::span<const std::size_t> block_lens, float scale) {
  const Tensor& qv = q.value();
  const Tensor& kv = k.value();
  const Tensor& vv = v.value();
  NS_REQUIRE(qv.rank() == 2 && kv.rank() == 2 && vv.rank() == 2,
             "vblock_attention expects rank-2 q/k/v");
  NS_REQUIRE(qv.shape() == kv.shape() && qv.shape() == vv.shape(),
             "vblock_attention q/k/v shapes differ");
  const std::size_t T = qv.size(0);
  const std::size_t dh = qv.size(1);
  std::size_t total = 0;
  for (std::size_t len : block_lens) {
    NS_REQUIRE(len > 0, "vblock_attention block of zero rows");
    total += len;
  }
  NS_REQUIRE(total == T, "vblock_attention block lengths sum to "
                             << total << " but q has " << T << " rows");

  // Forward: per block, the exact kernel sequence of the composed op chain
  // (matmul / scale / softmax_rows / matmul on row-slices), so the output
  // is bitwise identical to it. Per-block attention weights are kept for
  // the backward pass; every other temporary comes from the thread-local
  // arena. Blocks are independent — disjoint output rows, one owned attn
  // slot each, per-worker scratch arenas — and each block's arithmetic
  // never depends on the partition, so fanning the loop out across the
  // pool above kBlockAttentionParallelFlops stays bitwise identical to the
  // sequential order. This is what lets a single cluster's B-chunk forward
  // shard across workers even though every per-block matmul is far below
  // the matmul parallel threshold.
  Tensor out(Shape{T, dh});
  std::vector<Tensor> attn_cache(block_lens.size());
  std::vector<std::size_t> bases(block_lens.size());
  std::size_t score_flops = 0;
  {
    std::size_t base = 0;
    for (std::size_t b = 0; b < block_lens.size(); ++b) {
      bases[b] = base;
      base += block_lens[b];
      score_flops += 4 * dh * block_lens[b] * block_lens[b];
    }
  }
  // Sampled on the calling thread: the fast-kernel opt-in is thread-local,
  // so it must be re-entered on whichever worker runs a block — otherwise
  // the kernel variant would depend on the partition and the output would
  // no longer be deterministic.
  const bool caller_fast = fast_kernels_enabled();
  const auto run_block = [&](std::size_t b) {
    std::optional<FastKernelScope> fast;
    if (caller_fast) fast.emplace();
    Workspace& ws = backward_workspace();  // thread-local: one per worker
    const std::size_t len = block_lens[b];
    const std::size_t base = bases[b];
    Tensor qb = ws.acquire(Shape{len, dh});
    Tensor kb = ws.acquire(Shape{len, dh});
    Tensor vb = ws.acquire(Shape{len, dh});
    std::copy_n(qv.data() + base * dh, len * dh, qb.data());
    std::copy_n(kv.data() + base * dh, len * dh, kb.data());
    std::copy_n(vv.data() + base * dh, len * dh, vb.data());
    Tensor kt = ws.acquire(Shape{dh, len});
    transpose2d_into(kt, kb);
    Tensor raw = ws.acquire(Shape{len, len});
    matmul_into(raw, qb, kt);
    scale_into(raw, raw, scale);
    Tensor attn(Shape{len, len});  // owned: cached for backward
    softmax_rows_into(attn, raw);
    Tensor ob = ws.acquire(Shape{len, dh});
    matmul_into(ob, attn, vb);
    std::copy_n(ob.data(), len * dh, out.data() + base * dh);
    attn_cache[b] = std::move(attn);
    ws.release(std::move(qb));
    ws.release(std::move(kb));
    ws.release(std::move(vb));
    ws.release(std::move(kt));
    ws.release(std::move(raw));
    ws.release(std::move(ob));
  };
  if (block_lens.size() > 1 &&
      score_flops >= kBlockAttentionParallelFlops) {
    ThreadPool::global().parallel_for(0, block_lens.size(), 1, run_block);
  } else {
    for (std::size_t b = 0; b < block_lens.size(); ++b) run_block(b);
  }

  auto pq = q.node();
  auto pk = k.node();
  auto pv = v.node();
  std::vector<std::size_t> lens(block_lens.begin(), block_lens.end());
  // Backward: per block, dAttn = dY_b @ v_b^T and dv_b = attn^T @ dY_b
  // (the vmatmul rules), the vsoftmax_rows row loop, the scale, then
  // dq_b = dS @ k_b and dk_b = dS^T @ q_b. These reproduce the composed
  // chain bit for bit: dq_b matches dS @ (k_b^T)^T with (k_b^T)^T == k_b
  // exactly, and dS^T @ q_b equals the chain's (q_b^T @ dS)^T because both
  // sum the same factor pairs in the same ascending-t order (float multiply
  // is commutative bitwise). Each row belongs to exactly one block, so
  // per-block accumulation into the zeroed full-size grads is a plain copy.
  return Var(make_node(
      std::move(out), {pq, pk, pv},
      [pq, pk, pv, lens = std::move(lens), scale,
       attn_cache = std::move(attn_cache)](Node& n) {
        const std::size_t dh = pq->value.size(1);
        const bool need_q = pq->requires_grad;
        const bool need_k = pk->requires_grad;
        const bool need_v = pv->requires_grad;
        Workspace& ws = backward_workspace();
        Tensor dq, dk, dv;
        if (need_q) dq = ws.acquire_zero(pq->value.shape());
        if (need_k) dk = ws.acquire_zero(pk->value.shape());
        if (need_v) dv = ws.acquire_zero(pv->value.shape());
        std::size_t base = 0;
        for (std::size_t b = 0; b < lens.size(); ++b) {
          const std::size_t len = lens[b];
          const Tensor& attn = attn_cache[b];
          Tensor dy = ws.acquire(Shape{len, dh});
          std::copy_n(n.grad.data() + base * dh, len * dh, dy.data());
          // dAttn = dY_b @ v_b^T
          Tensor vb = ws.acquire(Shape{len, dh});
          std::copy_n(pv->value.data() + base * dh, len * dh, vb.data());
          Tensor vbt = ws.acquire(Shape{dh, len});
          transpose2d_into(vbt, vb);
          Tensor dattn = ws.acquire(Shape{len, len});
          matmul_into(dattn, dy, vbt);
          ws.release(std::move(vb));
          ws.release(std::move(vbt));
          if (need_v) {
            // dv_b = attn^T @ dY_b
            Tensor attnt = ws.acquire(Shape{len, len});
            transpose2d_into(attnt, attn);
            Tensor dvb = ws.acquire(Shape{len, dh});
            matmul_into(dvb, attnt, dy);
            float* dst = dv.data() + base * dh;
            const float* src = dvb.data();
            for (std::size_t i = 0; i < len * dh; ++i) dst[i] += src[i];
            ws.release(std::move(attnt));
            ws.release(std::move(dvb));
          }
          ws.release(std::move(dy));
          if (need_q || need_k) {
            // Softmax backward (in place on dAttn), then the scale.
            for (std::size_t i = 0; i < len; ++i) {
              const float* y = attn.data() + i * len;
              float* g = dattn.data() + i * len;
              double dot = 0.0;
              for (std::size_t j = 0; j < len; ++j)
                dot += static_cast<double>(g[j]) * y[j];
              for (std::size_t j = 0; j < len; ++j)
                g[j] = y[j] * (g[j] - static_cast<float>(dot));
            }
            scale_into(dattn, dattn, scale);
            if (need_q) {
              // dq_b = dS @ k_b
              Tensor kb = ws.acquire(Shape{len, dh});
              std::copy_n(pk->value.data() + base * dh, len * dh, kb.data());
              Tensor dqb = ws.acquire(Shape{len, dh});
              matmul_into(dqb, dattn, kb);
              float* dst = dq.data() + base * dh;
              const float* src = dqb.data();
              for (std::size_t i = 0; i < len * dh; ++i) dst[i] += src[i];
              ws.release(std::move(kb));
              ws.release(std::move(dqb));
            }
            if (need_k) {
              // dk_b = dS^T @ q_b
              Tensor qb = ws.acquire(Shape{len, dh});
              std::copy_n(pq->value.data() + base * dh, len * dh, qb.data());
              Tensor dst_t = ws.acquire(Shape{len, len});
              transpose2d_into(dst_t, dattn);
              Tensor dkb = ws.acquire(Shape{len, dh});
              matmul_into(dkb, dst_t, qb);
              float* dst = dk.data() + base * dh;
              const float* src = dkb.data();
              for (std::size_t i = 0; i < len * dh; ++i) dst[i] += src[i];
              ws.release(std::move(qb));
              ws.release(std::move(dst_t));
              ws.release(std::move(dkb));
            }
          }
          ws.release(std::move(dattn));
          base += len;
        }
        if (need_q) accumulate_scratch(*pq, std::move(dq), ws);
        if (need_k) accumulate_scratch(*pk, std::move(dk), ws);
        if (need_v) accumulate_scratch(*pv, std::move(dv), ws);
      }));
}

Var vlayernorm_rows(const Var& x, const Var& gain, const Var& bias,
                    float eps) {
  const Tensor& xv = x.value();
  const std::size_t rows = xv.size(0), cols = xv.size(1);
  // Cache xhat and inv_std for the backward pass.
  auto xhat = std::make_shared<Tensor>();
  auto inv_std = std::make_shared<Tensor>();
  Tensor value;
  layernorm_rows_into(value, xv, gain.value(), bias.value(), eps, xhat.get(),
                      inv_std.get());
  auto px = x.node();
  auto pg = gain.node();
  auto pb = bias.node();
  return Var(make_node(
      std::move(value), {px, pg, pb},
      [px, pg, pb, xhat, inv_std, rows, cols](Node& n) {
        Workspace& ws = backward_workspace();
        Tensor dgain = ws.acquire_zero(pg->value.shape());
        Tensor dbias = ws.acquire_zero(pb->value.shape());
        Tensor dx = ws.acquire(px->value.shape());
        for (std::size_t i = 0; i < rows; ++i) {
          const float* dy = n.grad.data() + i * cols;
          const float* xh = xhat->data() + i * cols;
          const float istd = inv_std->data()[i];
          double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
          for (std::size_t j = 0; j < cols; ++j) {
            const float dxh = dy[j] * pg->value.data()[j];
            sum_dxhat += dxh;
            sum_dxhat_xhat += static_cast<double>(dxh) * xh[j];
            dgain.data()[j] += dy[j] * xh[j];
            dbias.data()[j] += dy[j];
          }
          const double inv_cols = 1.0 / static_cast<double>(cols);
          for (std::size_t j = 0; j < cols; ++j) {
            const double dxh = static_cast<double>(dy[j]) * pg->value.data()[j];
            dx.data()[i * cols + j] = static_cast<float>(
                istd * (dxh - sum_dxhat * inv_cols -
                        xh[j] * sum_dxhat_xhat * inv_cols));
          }
        }
        accumulate_scratch(*px, std::move(dx), ws);
        accumulate_scratch(*pg, std::move(dgain), ws);
        accumulate_scratch(*pb, std::move(dbias), ws);
      }));
}

Var vrelu(const Var& a) {
  Tensor value(a.value().shape());
  for (std::size_t i = 0; i < value.numel(); ++i)
    value.data()[i] = std::max(0.0f, a.value().data()[i]);
  auto pa = a.node();
  return Var(make_node(std::move(value), {pa}, [pa](Node& n) {
    if (!pa->requires_grad) return;
    Workspace& ws = backward_workspace();
    Tensor dx = ws.acquire(n.value.shape());
    for (std::size_t i = 0; i < dx.numel(); ++i)
      dx.data()[i] = pa->value.data()[i] > 0.0f ? n.grad.data()[i] : 0.0f;
    accumulate_scratch(*pa, std::move(dx), ws);
  }));
}

namespace {
}  // namespace

Var vgelu(const Var& a) {
  // tanh approximation of GELU; derivative computed analytically. Both
  // directions live in the kernel layer (canonical scalar loop, or the
  // vectorized variant inside a FastKernelScope).
  Tensor value(a.value().shape());
  gelu_into(value, a.value());
  auto pa = a.node();
  return Var(make_node(std::move(value), {pa}, [pa](Node& n) {
    if (!pa->requires_grad) return;
    Workspace& ws = backward_workspace();
    Tensor dx = ws.acquire(n.value.shape());
    gelu_backward_into(dx, pa->value, n.grad);
    accumulate_scratch(*pa, std::move(dx), ws);
  }));
}

Var vtanh(const Var& a) {
  Tensor value(a.value().shape());
  for (std::size_t i = 0; i < value.numel(); ++i)
    value.data()[i] = std::tanh(a.value().data()[i]);
  auto pa = a.node();
  return Var(make_node(std::move(value), {pa}, [pa](Node& n) {
    if (!pa->requires_grad) return;
    Workspace& ws = backward_workspace();
    Tensor dx = ws.acquire(n.value.shape());
    for (std::size_t i = 0; i < dx.numel(); ++i) {
      const float y = n.value.data()[i];
      dx.data()[i] = n.grad.data()[i] * (1.0f - y * y);
    }
    accumulate_scratch(*pa, std::move(dx), ws);
  }));
}

Var vsigmoid(const Var& a) {
  Tensor value(a.value().shape());
  for (std::size_t i = 0; i < value.numel(); ++i) {
    const float x = a.value().data()[i];
    value.data()[i] = 1.0f / (1.0f + std::exp(-x));
  }
  auto pa = a.node();
  return Var(make_node(std::move(value), {pa}, [pa](Node& n) {
    if (!pa->requires_grad) return;
    Workspace& ws = backward_workspace();
    Tensor dx = ws.acquire(n.value.shape());
    for (std::size_t i = 0; i < dx.numel(); ++i) {
      const float y = n.value.data()[i];
      dx.data()[i] = n.grad.data()[i] * y * (1.0f - y);
    }
    accumulate_scratch(*pa, std::move(dx), ws);
  }));
}

Var vexp(const Var& a) {
  Tensor value(a.value().shape());
  for (std::size_t i = 0; i < value.numel(); ++i)
    value.data()[i] = std::exp(a.value().data()[i]);
  auto pa = a.node();
  return Var(make_node(std::move(value), {pa}, [pa](Node& n) {
    if (!pa->requires_grad) return;
    Workspace& ws = backward_workspace();
    Tensor dx = ws.acquire(n.grad.shape());
    mul_into(dx, n.grad, n.value);
    accumulate_scratch(*pa, std::move(dx), ws);
  }));
}

Var vsum(const Var& a) {
  Tensor value(Shape{1});
  value.data()[0] = static_cast<float>(sum_all(a.value()));
  auto pa = a.node();
  return Var(make_node(std::move(value), {pa}, [pa](Node& n) {
    if (!pa->requires_grad) return;
    Workspace& ws = backward_workspace();
    Tensor da = ws.acquire(pa->value.shape());
    da.fill(n.grad.data()[0]);
    accumulate_scratch(*pa, std::move(da), ws);
  }));
}

Var vmean(const Var& a) {
  const float inv = 1.0f / static_cast<float>(a.value().numel());
  Tensor value(Shape{1});
  value.data()[0] = static_cast<float>(mean_all(a.value()));
  auto pa = a.node();
  return Var(make_node(std::move(value), {pa}, [pa, inv](Node& n) {
    if (!pa->requires_grad) return;
    Workspace& ws = backward_workspace();
    Tensor da = ws.acquire(pa->value.shape());
    da.fill(n.grad.data()[0] * inv);
    accumulate_scratch(*pa, std::move(da), ws);
  }));
}

Var vslice_cols(const Var& x, std::size_t c0, std::size_t c1) {
  Tensor value = slice_cols(x.value(), c0, c1);
  auto px = x.node();
  return Var(make_node(std::move(value), {px}, [px, c0, c1](Node& n) {
    if (!px->requires_grad) return;
    const std::size_t rows = px->value.size(0), cols = px->value.size(1);
    const std::size_t w = c1 - c0;
    Workspace& ws = backward_workspace();
    Tensor dx = ws.acquire_zero(px->value.shape());
    for (std::size_t i = 0; i < rows; ++i)
      std::copy_n(n.grad.data() + i * w, w, dx.data() + i * cols + c0);
    accumulate_scratch(*px, std::move(dx), ws);
  }));
}

Var vslice_rows(const Var& x, std::size_t r0, std::size_t r1) {
  Tensor value = slice_rows(x.value(), r0, r1);
  auto px = x.node();
  return Var(make_node(std::move(value), {px}, [px, r0, r1](Node& n) {
    if (!px->requires_grad) return;
    const std::size_t cols = px->value.size(1);
    Workspace& ws = backward_workspace();
    Tensor dx = ws.acquire_zero(px->value.shape());
    std::copy_n(n.grad.data(), (r1 - r0) * cols, dx.data() + r0 * cols);
    accumulate_scratch(*px, std::move(dx), ws);
  }));
}

Var vgather_rows(const Var& x, std::span<const std::size_t> rows) {
  const Tensor& xv = x.value();
  NS_REQUIRE(xv.rank() == 2, "vgather_rows expects a rank-2 input");
  const std::size_t T = xv.size(0);
  const std::size_t cols = xv.size(1);
  Tensor value(Shape{rows.size(), cols});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    NS_REQUIRE(rows[r] < T,
               "vgather_rows index " << rows[r] << " out of " << T << " rows");
    std::copy_n(xv.data() + rows[r] * cols, cols, value.data() + r * cols);
  }
  auto px = x.node();
  std::vector<std::size_t> idx(rows.begin(), rows.end());
  return Var(make_node(
      std::move(value), {px}, [px, idx = std::move(idx)](Node& n) {
        if (!px->requires_grad) return;
        const std::size_t cols = px->value.size(1);
        Workspace& ws = backward_workspace();
        Tensor dx = ws.acquire_zero(px->value.shape());
        for (std::size_t r = 0; r < idx.size(); ++r) {
          float* dst = dx.data() + idx[r] * cols;
          const float* src = n.grad.data() + r * cols;
          for (std::size_t j = 0; j < cols; ++j) dst[j] += src[j];
        }
        accumulate_scratch(*px, std::move(dx), ws);
      }));
}

Var vscatter_rows(const Var& x, std::span<const std::size_t> rows,
                  std::size_t total_rows) {
  const Tensor& xv = x.value();
  NS_REQUIRE(xv.rank() == 2, "vscatter_rows expects a rank-2 input");
  NS_REQUIRE(xv.size(0) == rows.size(),
             "vscatter_rows got " << rows.size() << " indices for "
                                  << xv.size(0) << " rows");
  const std::size_t cols = xv.size(1);
  Tensor value = Tensor::zeros(Shape{total_rows, cols});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    NS_REQUIRE(rows[r] < total_rows, "vscatter_rows index "
                                         << rows[r] << " out of "
                                         << total_rows << " rows");
    float* dst = value.data() + rows[r] * cols;
    const float* src = xv.data() + r * cols;
    for (std::size_t j = 0; j < cols; ++j) dst[j] += src[j];
  }
  auto px = x.node();
  std::vector<std::size_t> idx(rows.begin(), rows.end());
  return Var(make_node(
      std::move(value), {px}, [px, idx = std::move(idx)](Node& n) {
        if (!px->requires_grad) return;
        const std::size_t cols = px->value.size(1);
        Workspace& ws = backward_workspace();
        Tensor dx = ws.acquire(px->value.shape());
        for (std::size_t r = 0; r < idx.size(); ++r)
          std::copy_n(n.grad.data() + idx[r] * cols, cols,
                      dx.data() + r * cols);
        accumulate_scratch(*px, std::move(dx), ws);
      }));
}

Var vconcat_cols(std::span<const Var> parts) {
  NS_REQUIRE(!parts.empty(), "vconcat_cols of zero Vars");
  std::vector<Tensor> values;
  std::vector<std::shared_ptr<Node>> parents;
  std::vector<std::size_t> widths;
  values.reserve(parts.size());
  for (const Var& p : parts) {
    values.push_back(p.value());
    parents.push_back(p.node());
    widths.push_back(p.value().size(1));
  }
  Tensor value = concat_cols(values);
  auto parent_list = parents;  // keep a copy for the lambda
  return Var(make_node(
      std::move(value), std::move(parents),
      [parent_list, widths](Node& n) {
        const std::size_t rows = n.value.size(0);
        const std::size_t total = n.value.size(1);
        Workspace& ws = backward_workspace();
        std::size_t offset = 0;
        for (std::size_t p = 0; p < parent_list.size(); ++p) {
          const std::size_t w = widths[p];
          if (parent_list[p]->requires_grad) {
            Tensor dpart = ws.acquire(Shape{rows, w});
            for (std::size_t i = 0; i < rows; ++i)
              std::copy_n(n.grad.data() + i * total + offset, w,
                          dpart.data() + i * w);
            accumulate_scratch(*parent_list[p], std::move(dpart), ws);
          }
          offset += w;
        }
      }));
}

Var vconcat_rows(std::span<const Var> parts) {
  NS_REQUIRE(!parts.empty(), "vconcat_rows of zero Vars");
  std::vector<Tensor> values;
  std::vector<std::shared_ptr<Node>> parents;
  std::vector<std::size_t> heights;
  for (const Var& p : parts) {
    values.push_back(p.value());
    parents.push_back(p.node());
    heights.push_back(p.value().size(0));
  }
  Tensor value = concat_rows(values);
  auto parent_list = parents;
  return Var(make_node(
      std::move(value), std::move(parents),
      [parent_list, heights](Node& n) {
        const std::size_t cols = n.value.size(1);
        Workspace& ws = backward_workspace();
        std::size_t offset = 0;
        for (std::size_t p = 0; p < parent_list.size(); ++p) {
          const std::size_t h = heights[p];
          if (parent_list[p]->requires_grad) {
            Tensor dpart = ws.acquire(Shape{h, cols});
            std::copy_n(n.grad.data() + offset, h * cols, dpart.data());
            accumulate_scratch(*parent_list[p], std::move(dpart), ws);
          }
          offset += h * cols;
        }
      }));
}

Var vmask(const Var& x, const Tensor& mask) {
  Tensor value = mul(x.value(), mask);
  auto px = x.node();
  auto mask_copy = std::make_shared<Tensor>(mask.clone());
  return Var(make_node(std::move(value), {px}, [px, mask_copy](Node& n) {
    if (!px->requires_grad) return;
    Workspace& ws = backward_workspace();
    Tensor dx = ws.acquire(n.grad.shape());
    mul_into(dx, n.grad, *mask_copy);
    accumulate_scratch(*px, std::move(dx), ws);
  }));
}

Var vmse_loss(const Var& pred, const Tensor& target) {
  check_same_shape(pred.value(), target, "mse_loss");
  const std::size_t n = target.numel();
  Tensor value(Shape{1});
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = pred.value().data()[i] - target.data()[i];
    acc += d * d;
  }
  value.data()[0] = static_cast<float>(acc / static_cast<double>(n));
  auto pp = pred.node();
  auto target_copy = std::make_shared<Tensor>(target.clone());
  return Var(make_node(std::move(value), {pp}, [pp, target_copy, n](Node& nd) {
    if (!pp->requires_grad) return;
    const float g = nd.grad.data()[0] * 2.0f / static_cast<float>(n);
    Workspace& ws = backward_workspace();
    Tensor dx = ws.acquire(pp->value.shape());
    for (std::size_t i = 0; i < n; ++i)
      dx.data()[i] = g * (pp->value.data()[i] - target_copy->data()[i]);
    accumulate_scratch(*pp, std::move(dx), ws);
  }));
}

Var vwmse_loss(const Var& pred, const Tensor& target, const Tensor& weights) {
  check_same_shape(pred.value(), target, "wmse_loss");
  check_rank2(pred.value(), "wmse_loss");
  check_rowvec(pred.value(), weights, "wmse_loss weights");
  const std::size_t rows = target.size(0), cols = target.size(1);
  Tensor value(Shape{1});
  double acc = 0.0;
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      const double d =
          pred.value().data()[i * cols + j] - target.data()[i * cols + j];
      acc += weights.data()[j] * d * d;
    }
  const double denom = static_cast<double>(rows) * cols;
  value.data()[0] = static_cast<float>(acc / denom);
  auto pp = pred.node();
  auto tgt = std::make_shared<Tensor>(target.clone());
  auto w = std::make_shared<Tensor>(weights.clone());
  return Var(make_node(
      std::move(value), {pp}, [pp, tgt, w, rows, cols, denom](Node& nd) {
        if (!pp->requires_grad) return;
        const float g = nd.grad.data()[0] * 2.0f / static_cast<float>(denom);
        Workspace& ws = backward_workspace();
        Tensor dx = ws.acquire(pp->value.shape());
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t j = 0; j < cols; ++j)
            dx.data()[i * cols + j] =
                g * w->data()[j] *
                (pp->value.data()[i * cols + j] - tgt->data()[i * cols + j]);
        accumulate_scratch(*pp, std::move(dx), ws);
      }));
}

}  // namespace ns
