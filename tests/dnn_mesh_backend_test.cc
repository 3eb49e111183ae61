// End-to-end training through the SIMULATED machine: conv forward AND
// backward on the mesh, FC on the distributed GEMM — the full "swDNN
// accelerates training" story, cross-checked against the host backends.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "src/conv/reference.h"
#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/network.h"
#include "src/util/rng.h"

namespace swdnn::dnn {
namespace {

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) ==
             0;
}

TEST(MeshBackend, ConvBackwardMatchesHostBackend) {
  // Same weights, same input, same upstream gradient: the two backends
  // must produce identical parameter and input gradients.
  const conv::ConvShape shape =
      conv::ConvShape::from_output(8, 8, 8, 2, 2, 2, 2);
  util::Rng rng_a(91), rng_b(91), rng_data(92);
  Convolution host(shape, rng_a, ConvBackend::kHostIm2col);
  Convolution mesh(shape, rng_b, ConvBackend::kSimulatedMesh);

  tensor::Tensor x = conv::make_input(shape);
  rng_data.fill_uniform(x.data(), -1, 1);
  tensor::Tensor g = conv::make_output(shape);
  rng_data.fill_uniform(g.data(), -1, 1);

  host.forward(x);
  mesh.forward(x);
  const tensor::Tensor dx_host = host.backward(g);
  const tensor::Tensor dx_mesh = mesh.backward(g);
  EXPECT_LE(dx_host.max_abs_diff(dx_mesh), 1e-10);

  const auto ph = host.params();
  const auto pm = mesh.params();
  ASSERT_EQ(ph.size(), 1u);
  ASSERT_EQ(pm.size(), 1u);
  EXPECT_LE(ph[0].grad->max_abs_diff(*pm[0].grad), 1e-10);
}

TEST(MeshBackend, FcForwardMatchesHostBackend) {
  util::Rng rng_a(93), rng_b(93), rng_data(94);
  FullyConnected host(12, 5, rng_a, FcBackend::kHostGemm);
  FullyConnected mesh(12, 5, rng_b, FcBackend::kSimulatedMesh);
  tensor::Tensor x({12, 7});
  rng_data.fill_uniform(x.data(), -1, 1);
  const tensor::Tensor yh = host.forward(x);
  const tensor::Tensor ym = mesh.forward(x);
  EXPECT_LE(yh.max_abs_diff(ym), 1e-10);
}

TEST(MeshBackend, FcMeshTrainsALinearFit) {
  // The mesh FC must be usable in a real optimization loop.
  util::Rng rng(95);
  FullyConnected fc(1, 1, rng, FcBackend::kSimulatedMesh);
  tensor::Tensor x({1, 8}), y({1, 8});
  for (std::int64_t b = 0; b < 8; ++b) {
    x.at(0, b) = static_cast<double>(b) / 8.0;
    y.at(0, b) = -1.5 * x.at(0, b);
  }
  for (int step = 0; step < 150; ++step) {
    const tensor::Tensor pred = fc.forward(x);
    tensor::Tensor g({1, 8});
    for (std::int64_t b = 0; b < 8; ++b) {
      g.at(0, b) = 2.0 * (pred.at(0, b) - y.at(0, b)) / 8.0;
    }
    fc.backward(g);
    for (auto& p : fc.params()) {
      for (std::int64_t i = 0; i < p.param->size(); ++i) {
        p.param->data()[i] -= 0.5 * p.grad->data()[i];
      }
    }
  }
  EXPECT_NEAR(fc.weights().at(0, 0), -1.5, 0.1);
}

TEST(MeshBackend, EagerLayersOutliveTheirInput) {
  // The eager wrapper keeps its own copy of the input for backward, so
  // an unbound mesh layer whose caller dropped the input still produces
  // the gradients of the same layer compiled into a network.
  const auto check = [](const std::function<LayerPtr(util::Rng&)>& make,
                        const std::vector<std::int64_t>& in_dims) {
    util::Rng rng_eager(71), rng_compiled(71), data_rng(72);
    const LayerPtr eager = make(rng_eager);
    Network net;
    net.add(make(rng_compiled));
    net.compile(in_dims);

    tensor::Tensor x(in_dims);
    data_rng.fill_uniform(x.data(), -1, 1);
    auto dropped = std::make_unique<tensor::Tensor>(x);
    const tensor::Tensor y = eager->forward(*dropped);
    dropped.reset();
    tensor::Tensor dy(y.dims());
    data_rng.fill_uniform(dy.data(), -1, 1);
    const tensor::Tensor dx = eager->backward(dy);

    net.forward(x);
    EXPECT_TRUE(bitwise_equal(dx, net.backward(dy))) << eager->name();
    const auto pe = eager->params();
    const auto pc = net.params();
    ASSERT_EQ(pe.size(), pc.size());
    for (std::size_t i = 0; i < pe.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(*pe[i].grad, *pc[i].grad))
          << eager->name() << " param " << i;
    }
  };
  const conv::ConvShape shape =
      conv::ConvShape::from_output(8, 8, 8, 2, 2, 2, 2);
  check(
      [&](util::Rng& rng) {
        return std::make_unique<Convolution>(shape, rng,
                                             ConvBackend::kSimulatedMesh);
      },
      {shape.ri, shape.ci, shape.ni, shape.batch});
  check(
      [](util::Rng& rng) {
        return std::make_unique<FullyConnected>(12, 5, rng,
                                                FcBackend::kSimulatedMesh);
      },
      {12, 8});
}

TEST(MeshBackend, ConvTrainingStepReducesLoss) {
  // One full SGD step through the mesh-backend conv must reduce the
  // quadratic loss toward a fixed target, proving the gradients point
  // the right way.
  const conv::ConvShape shape =
      conv::ConvShape::from_output(8, 8, 8, 2, 2, 2, 2);
  util::Rng rng(96);
  Convolution layer(shape, rng, ConvBackend::kSimulatedMesh);
  tensor::Tensor x = conv::make_input(shape);
  rng.fill_uniform(x.data(), -1, 1);
  tensor::Tensor target = conv::make_output(shape);
  rng.fill_uniform(target.data(), -1, 1);

  auto loss_of = [&](const tensor::Tensor& pred) {
    double loss = 0;
    for (std::int64_t i = 0; i < pred.size(); ++i) {
      const double d = pred.data()[i] - target.data()[i];
      loss += d * d;
    }
    return loss;
  };
  const tensor::Tensor y0 = layer.forward(x);
  const double before = loss_of(y0);
  tensor::Tensor g(y0.dims());
  for (std::int64_t i = 0; i < g.size(); ++i) {
    g.data()[i] = 2.0 * (y0.data()[i] - target.data()[i]);
  }
  layer.backward(g);
  for (auto& p : layer.params()) {
    for (std::int64_t i = 0; i < p.param->size(); ++i) {
      p.param->data()[i] -= 0.01 * p.grad->data()[i];
    }
  }
  const double after = loss_of(layer.forward(x));
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace swdnn::dnn
