#pragma once
// Inverted dropout with an explicit, owned RNG so training runs are
// reproducible. In train mode each element is zeroed with probability p
// and survivors are scaled by 1/(1-p); in eval mode it is the identity.

#include "src/dnn/layer.h"
#include "src/util/rng.h"

namespace swdnn::dnn {

class Dropout : public Layer {
 public:
  Dropout(double drop_probability, std::uint64_t seed);

  std::string name() const override { return "dropout"; }

  void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }
  void set_mode(bool training) override { training_ = training; }

  // The mask is presized at plan() time. The RNG is consumed one draw
  // per element in train mode, on the eager and compiled paths alike,
  // so runs from equal seeds see the same random stream.
  void plan(const std::vector<std::int64_t>& input_dims) override;
  void forward_view(const tensor::TensorView& input,
                    tensor::TensorView& output) override;
  void backward_view(const tensor::TensorView& d_output,
                     tensor::TensorView& d_input) override;

 private:
  double drop_probability_;
  bool training_ = true;
  util::Rng rng_;
  tensor::Tensor mask_;  ///< 0 or 1/(1-p) per element of the last forward
};

}  // namespace swdnn::dnn
