// Base class for trainable components.
//
// A Module owns leaf Vars (parameters) and child modules; parameters() walks
// the tree in registration order, which also defines the serialization
// order used by save_parameters / load_parameters.
#pragma once

#include <cstddef>
#include <istream>
#include <ostream>
#include <vector>

#include "common/rng.hpp"
#include "tensor/autograd.hpp"
#include "tensor/kernels.hpp"

namespace ns {

class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module and its children, in a stable
  /// registration order.
  std::vector<Var> parameters() const {
    std::vector<Var> out;
    collect_parameters(out);
    return out;
  }

  std::size_t parameter_count() const {
    std::size_t n = 0;
    for (const Var& p : parameters()) n += p.value().numel();
    return n;
  }

  /// Training-mode flag; propagates to children. No layer reads it (the
  /// models have no dropout), so it changes nothing; it stays for
  /// perfbench's layer pass, which still calls it.
  void set_training(bool training) {
    training_ = training;
    for (Module* child : children_) child->set_training(training);
  }
  bool training() const { return training_; }

 protected:
  /// Registers a leaf parameter initialized with `init`.
  Var add_parameter(Tensor init) {
    Var p = Var::leaf(std::move(init), /*requires_grad=*/true);
    params_.push_back(p);
    return p;
  }

  /// Registers a child module (must outlive this module; typically a member).
  void register_child(Module* child) { children_.push_back(child); }

  /// Per-module scratch arena: forward passes acquire temporary buffers
  /// (masks, per-expert columns, ...) here instead of allocating each step.
  /// Mutable because forward() is const; modules are not shared across
  /// threads (each training task owns its model), so no locking is needed.
  Workspace& workspace() const { return workspace_; }

 private:
  void collect_parameters(std::vector<Var>& out) const {
    out.insert(out.end(), params_.begin(), params_.end());
    for (const Module* child : children_) child->collect_parameters(out);
  }

  std::vector<Var> params_;
  std::vector<Module*> children_;
  mutable Workspace workspace_;
  bool training_ = true;
};

/// Xavier/Glorot normal initialization for a [fan_in, fan_out] matrix.
inline Tensor xavier_init(std::size_t fan_in, std::size_t fan_out, Rng& rng) {
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(fan_in + fan_out));
  return Tensor::randn(Shape{fan_in, fan_out}, rng, stddev);
}

/// Writes all parameters (shapes + data) to a binary stream.
void save_parameters(const Module& module, std::ostream& os);
/// Restores parameters written by save_parameters; shapes must match.
void load_parameters(Module& module, std::istream& is);

}  // namespace ns
