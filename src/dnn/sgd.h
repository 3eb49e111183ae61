#pragma once
// Stochastic gradient descent with optional momentum.

#include <vector>

#include "src/dnn/layer.h"

namespace swdnn::dnn {

class Sgd {
 public:
  explicit Sgd(double learning_rate, double momentum = 0.0);

  /// Applies one update: v = mu*v - lr*g; p += v (plain p -= lr*g when
  /// momentum is zero). Velocity buffers are keyed by parameter pointer
  /// and created lazily.
  void step(const std::vector<ParamGrad>& params);

  /// The velocity buffer of `param`; nullptr before its first momentum
  /// step.
  const tensor::Tensor* velocity(const tensor::Tensor* param) const;

  double learning_rate() const { return learning_rate_; }
  void set_learning_rate(double lr) { learning_rate_ = lr; }

  /// Copies velocity buffers from another optimizer, mapping parameters
  /// by position (`params` and `other_params` must describe identically
  /// structured networks). A revived data-parallel replica uses this to
  /// rejoin the ring in exact lockstep even with momentum enabled.
  void copy_state_from(const Sgd& other,
                       const std::vector<ParamGrad>& params,
                       const std::vector<ParamGrad>& other_params);

 private:
  double learning_rate_;
  double momentum_;
  std::vector<std::pair<tensor::Tensor*, tensor::Tensor>> velocity_;

  tensor::Tensor& velocity_for(tensor::Tensor* param);
};

}  // namespace swdnn::dnn
