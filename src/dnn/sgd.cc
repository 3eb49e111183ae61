#include "src/dnn/sgd.h"

namespace swdnn::dnn {

Sgd::Sgd(double learning_rate, double momentum)
    : learning_rate_(learning_rate), momentum_(momentum) {}

tensor::Tensor& Sgd::velocity_for(tensor::Tensor* param) {
  for (auto& [key, vel] : velocity_) {
    if (key == param) return vel;
  }
  velocity_.emplace_back(param, tensor::Tensor(param->dims()));
  return velocity_.back().second;
}

const tensor::Tensor* Sgd::velocity(const tensor::Tensor* param) const {
  for (const auto& [key, vel] : velocity_) {
    if (key == param) return &vel;
  }
  return nullptr;
}

void Sgd::step(const std::vector<ParamGrad>& params) {
  for (const auto& pg : params) {
    auto p = pg.param->data();
    auto g = pg.grad->data();
    if (momentum_ == 0.0) {
      for (std::size_t i = 0; i < p.size(); ++i) {
        p[i] -= learning_rate_ * g[i];
      }
    } else {
      auto v = velocity_for(pg.param).data();
      for (std::size_t i = 0; i < p.size(); ++i) {
        v[i] = momentum_ * v[i] - learning_rate_ * g[i];
        p[i] += v[i];
      }
    }
  }
}

void Sgd::copy_state_from(const Sgd& other,
                          const std::vector<ParamGrad>& params,
                          const std::vector<ParamGrad>& other_params) {
  velocity_.clear();
  for (std::size_t i = 0; i < params.size() && i < other_params.size();
       ++i) {
    for (const auto& [key, vel] : other.velocity_) {
      if (key == other_params[i].param) {
        velocity_.emplace_back(params[i].param, vel);
        break;
      }
    }
  }
}

}  // namespace swdnn::dnn
