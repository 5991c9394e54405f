// Neural-network module interface with explicit manual backpropagation.
//
// Dataset condensation needs three gradient flavors from one machinery:
//   * parameter gradients  (for g_real / g_syn in gradient matching),
//   * input gradients      (to update the synthetic images themselves),
//   * the ability to perturb all parameters by a structured direction
//     (the θ± = θ ± ε·∇D finite-difference trick of Eq. 7).
// A general autograd tape is unnecessary for a fixed feed-forward topology, so
// each layer implements forward(x) (caching what backward needs) and
// backward(dL/dy) → dL/dx while accumulating dL/dparam into its grad buffers.
// No caller needs both flavors from every pass, so backward() takes a `Grads`
// need: gradient matching's g_real/g_syn passes ask for kParams only, its θ±
// passes and every encoder-only backprop for kInput only, and the work behind
// the unrequested half (its GEMMs, bias sums and γ/β folds) is skipped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deco/tensor/rng.h"
#include "deco/tensor/tensor.h"

namespace deco::nn {

/// Non-owning handle to one learnable parameter tensor and its gradient
/// accumulator. `value` and `grad` always have identical shapes.
struct ParamRef {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Which gradients a backward pass must produce (a bitmask).
///   kParams: accumulate dL/dparam into every grad buffer;
///   kInput:  return dL/dx.
/// Without kParams a layer accumulates nothing; without kInput it may return
/// an empty tensor (every layer in nn does). Containers ask every layer but
/// the first for kInput, since the layer below consumes it.
enum class Grads : uint8_t { kParams = 1, kInput = 2, kAll = 3 };

constexpr Grads operator|(Grads a, Grads b) {
  return static_cast<Grads>(static_cast<uint8_t>(a) | static_cast<uint8_t>(b));
}

/// True when `want` includes every bit of `g`.
constexpr bool wants(Grads want, Grads g) {
  return (static_cast<uint8_t>(want) & static_cast<uint8_t>(g)) ==
         static_cast<uint8_t>(g);
}

class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Computes the layer output, caching activations needed by backward().
  virtual Tensor forward(const Tensor& input) = 0;

  /// Propagates `grad_output` (dL/dy) to dL/dx, accumulating parameter
  /// gradients along the way; `want` names the half the caller consumes (see
  /// Grads). Must be called after a matching forward().
  Tensor backward(const Tensor& grad_output, Grads want = Grads::kAll) {
    return backward_impl(grad_output, want);
  }

  /// Appends this module's parameters (if any) to `out`.
  virtual void collect_params(std::vector<ParamRef>& out) { (void)out; }

  /// Re-draws all parameters from the module's initialization distribution.
  /// Used by condensation to sample the fresh random model θ̃ each iteration.
  virtual void reinitialize(Rng& rng) { (void)rng; }

  /// Human-readable layer name for diagnostics.
  virtual std::string name() const = 0;

  /// Convenience: all parameters of this module (and children).
  std::vector<ParamRef> parameters();

  /// Zeroes every gradient accumulator.
  void zero_grad();

  /// Total number of learnable scalars.
  int64_t num_params();

 protected:
  /// The layer's backward pass; honours the contract documented on Grads.
  virtual Tensor backward_impl(const Tensor& grad_output, Grads want) = 0;
};

/// Deep-copies parameter values from `src` to `dst`; both must expose
/// structurally identical parameter lists.
void copy_params(Module& src, Module& dst);

}  // namespace deco::nn
