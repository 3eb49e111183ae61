// Steady-state zero-allocation contract: after the first compiled step
// primes the backend's tensor pools, every subsequent forward/backward
// step mints ZERO tensors — the arena serves activations and gradients,
// the pools recycle API staging buffers, and the presized result
// members absorb the returns. tensor::allocation_count() charges every
// Tensor construction and copy (moves are free), so a flat counter
// across steps is the proof.

#include <gtest/gtest.h>

#include <memory>

#include "src/dnn/activations.h"
#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/network.h"
#include "src/dnn/padding.h"
#include "src/dnn/pooling.h"
#include "src/dnn/relu.h"
#include "src/dnn/softmax.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace swdnn::dnn {
namespace {

/// pad -> conv(+bias)+relu (fused) -> pool -> fc+tanh (fused) ->
/// softmax: every node kind the graph compiler emits, in one network.
std::unique_ptr<Network> make_cnn() {
  auto net = std::make_unique<Network>();
  util::Rng rng(71);
  conv::ConvShape shape;
  shape.batch = 4;
  shape.ni = 2;
  shape.no = 4;
  shape.ri = 10;
  shape.ci = 10;
  shape.kr = 3;
  shape.kc = 3;
  net->emplace<ZeroPad2d>(1);  // 8x8 -> 10x10
  net->emplace<Convolution>(shape, rng, ConvBackend::kHostIm2col,
                            /*with_bias=*/true);
  net->emplace<Relu>();
  net->emplace<MaxPooling>(2);  // 8x8x4 -> 4x4x4
  net->emplace<FullyConnected>(64, 10, rng);
  net->emplace<Tanh>();
  net->emplace<Softmax>();
  return net;
}

TEST(DnnZeroAlloc, SteadyStateCompiledStepMintsZeroTensors) {
  auto net = make_cnn();
  const CompiledStats& stats = net->compile({8, 8, 2, 4});
  // The graph really exercises the interesting node kinds.
  ASSERT_EQ(stats.elided_pads, 1u);
  ASSERT_EQ(stats.fused_conv_act, 1u);
  ASSERT_EQ(stats.fused_fc_act, 1u);

  tensor::Tensor input({8, 8, 2, 4});
  tensor::Tensor d_out({10, 4});
  util::Rng rng(72);
  rng.fill_uniform(input.data(), -1, 1);
  rng.fill_uniform(d_out.data(), -1, 1);

  // References, not copies: a copy would charge the counter for the
  // test's own bookkeeping.
  auto step = [&] {
    const tensor::Tensor& y = net->forward(input);
    (void)y;
    const tensor::Tensor& dx = net->backward(d_out);
    (void)dx;
  };

  step();  // first step: pools fill, staging buffers are minted once
  const std::uint64_t before = tensor::allocation_count();
  for (int i = 0; i < 3; ++i) step();
  EXPECT_EQ(tensor::allocation_count() - before, 0u)
      << "a steady-state compiled step allocated tensors";
}

TEST(DnnZeroAlloc, UnfusedCompiledStepMintsZeroTensors) {
  // Fusion is a schedule only: with the passes off every layer is its
  // own node running the same view kernels, and the steady state is
  // allocation-free all the same.
  auto net = make_cnn();
  CompileOptions options;
  options.fuse = false;
  const CompiledStats& stats = net->compile({8, 8, 2, 4}, options);
  ASSERT_EQ(stats.graph_nodes, net->num_layers());
  ASSERT_EQ(stats.fused_conv_act, 0u);

  tensor::Tensor input({8, 8, 2, 4});
  tensor::Tensor d_out({10, 4});
  util::Rng rng(75);
  rng.fill_uniform(input.data(), -1, 1);
  rng.fill_uniform(d_out.data(), -1, 1);

  auto step = [&] {
    const tensor::Tensor& y = net->forward(input);
    (void)y;
    const tensor::Tensor& dx = net->backward(d_out);
    (void)dx;
  };

  step();  // first step: pools fill, staging buffers are minted once
  const std::uint64_t before = tensor::allocation_count();
  for (int i = 0; i < 3; ++i) step();
  EXPECT_EQ(tensor::allocation_count() - before, 0u)
      << "a steady-state unfused compiled step allocated tensors";
}

TEST(DnnZeroAlloc, EagerStepsKeepAllocatingForContrast) {
  // The same network through the eager escape hatch mints tensors every
  // step — the contract above is a property of the compiled path, not
  // of the counter standing still.
  auto net = make_cnn();
  net->compile({8, 8, 2, 4});
  net->set_run_eager(true);

  tensor::Tensor input({8, 8, 2, 4});
  tensor::Tensor d_out({10, 4});
  util::Rng rng(73);
  rng.fill_uniform(input.data(), -1, 1);
  rng.fill_uniform(d_out.data(), -1, 1);

  net->forward(input);
  net->backward(d_out);
  const std::uint64_t before = tensor::allocation_count();
  net->forward(input);
  net->backward(d_out);
  EXPECT_GT(tensor::allocation_count() - before, 0u);
}

TEST(DnnZeroAlloc, RecompileKeepsTheContract) {
  // Re-compiling (new shape) re-plans the arena; the steady state after
  // the new first step is allocation-free again.
  auto net = make_cnn();
  net->compile({8, 8, 2, 4});
  tensor::Tensor input({8, 8, 2, 4});
  util::Rng rng(74);
  rng.fill_uniform(input.data(), -1, 1);
  net->forward(input);

  net->compile({8, 8, 2, 4});  // same dims; arena buffer is retained
  net->forward(input);
  const std::uint64_t before = tensor::allocation_count();
  net->forward(input);
  net->forward(input);
  EXPECT_EQ(tensor::allocation_count() - before, 0u);
}

}  // namespace
}  // namespace swdnn::dnn
