// Fusion-correctness differential suite: every fusible pattern the
// graph passes collapse (conv+bias+ReLU, FC+activation, elided pads)
// must produce output bitwise-identical to the eager path, patterns the
// passes cannot prove safe (strided conv) must be left unfused and
// still agree, and the passes must announce themselves through the
// tracer with JSON-safe names.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/dnn/activations.h"
#include "src/dnn/backend_context.h"
#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/network.h"
#include "src/dnn/padding.h"
#include "src/dnn/pooling.h"
#include "src/dnn/relu.h"
#include "src/dnn/softmax.h"
#include "src/sim/trace.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace swdnn::dnn {
namespace {

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (a.dims() != b.dims()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) == 0;
}

tensor::Tensor random_tensor(const std::vector<std::int64_t>& dims,
                             std::uint64_t seed) {
  tensor::Tensor t(dims);
  util::Rng rng(seed);
  rng.fill_uniform(t.data(), -1, 1);
  return t;
}

/// Runs `steps` forward+backward rounds on a compiled net and an
/// identically-seeded eager twin, asserting bitwise identity of
/// outputs, input gradients, and every parameter gradient each round.
void expect_bitwise_differential(Network& compiled, Network& eager,
                                 const std::vector<std::int64_t>& in_dims,
                                 const std::vector<std::int64_t>& out_dims,
                                 int steps = 2) {
  for (int s = 0; s < steps; ++s) {
    const tensor::Tensor input =
        random_tensor(in_dims, 100 + static_cast<std::uint64_t>(s));
    const tensor::Tensor y_c = compiled.forward(input);
    const tensor::Tensor y_e = eager.forward(input);
    EXPECT_TRUE(bitwise_equal(y_c, y_e)) << "forward, step " << s;

    const tensor::Tensor d_out =
        random_tensor(out_dims, 500 + static_cast<std::uint64_t>(s));
    const tensor::Tensor dx_c = compiled.backward(d_out);
    const tensor::Tensor dx_e = eager.backward(d_out);
    EXPECT_TRUE(bitwise_equal(dx_c, dx_e)) << "backward, step " << s;

    const auto params_c = compiled.params();
    const auto params_e = eager.params();
    ASSERT_EQ(params_c.size(), params_e.size());
    for (std::size_t p = 0; p < params_c.size(); ++p) {
      EXPECT_TRUE(bitwise_equal(*params_c[p].grad, *params_e[p].grad))
          << "param " << p << ", step " << s;
    }
  }
}

conv::ConvShape small_conv_shape() {
  conv::ConvShape shape;
  shape.batch = 4;
  shape.ni = 3;
  shape.no = 5;
  shape.ri = 10;
  shape.ci = 10;
  shape.kr = 3;
  shape.kc = 3;
  return shape;
}

TEST(DnnFusion, ConvBiasReluFusesAndMatchesEagerBitwise) {
  auto make = [] {
    auto net = std::make_unique<Network>();
    util::Rng rng(41);
    net->emplace<Convolution>(small_conv_shape(), rng,
                              ConvBackend::kHostIm2col, /*with_bias=*/true);
    net->emplace<Relu>();
    return net;
  };
  auto compiled = make();
  auto eager = make();
  const CompiledStats& stats = compiled->compile({10, 10, 3, 4});
  EXPECT_EQ(stats.fused_conv_act, 1u);
  EXPECT_EQ(stats.graph_nodes, 1u);  // two layers, one node
  expect_bitwise_differential(*compiled, *eager, {10, 10, 3, 4},
                              {8, 8, 5, 4});
}

TEST(DnnFusion, FcActivationPairsFuseAndMatchEagerBitwise) {
  // Each fusible FC epilogue: ReLU (mask epilogue inside the backend
  // call), tanh and sigmoid (in-place epilogue after the dispatch).
  auto run = [](auto add_act) {
    auto make = [&] {
      auto net = std::make_unique<Network>();
      util::Rng rng(43);
      net->emplace<FullyConnected>(24, 6, rng);
      add_act(*net);
      return net;
    };
    auto compiled = make();
    auto eager = make();
    const CompiledStats& stats = compiled->compile({24, 5});
    EXPECT_EQ(stats.fused_fc_act, 1u);
    EXPECT_EQ(stats.graph_nodes, 1u);
    expect_bitwise_differential(*compiled, *eager, {24, 5}, {6, 5});
  };
  run([](Network& n) { n.emplace<Relu>(); });
  run([](Network& n) { n.emplace<Tanh>(); });
  run([](Network& n) { n.emplace<Sigmoid>(); });
}

TEST(DnnFusion, ElidedPadMatchesEagerAcrossSteps) {
  // zeropad -> conv(+bias) -> relu: the pad's output slot is pinned and
  // its borders zeroed once at compile; several steps with different
  // inputs must stay bitwise-equal to eager (stale or scribbled borders
  // would diverge immediately).
  auto make = [] {
    auto net = std::make_unique<Network>();
    util::Rng rng(47);
    conv::ConvShape shape;
    shape.batch = 3;
    shape.ni = 2;
    shape.no = 4;
    shape.ri = 10;
    shape.ci = 10;
    shape.kr = 3;
    shape.kc = 3;
    net->emplace<ZeroPad2d>(1);  // 8x8 -> 10x10: 'same' for the 3x3
    net->emplace<Convolution>(shape, rng, ConvBackend::kHostIm2col,
                              /*with_bias=*/true);
    net->emplace<Relu>();
    return net;
  };
  auto compiled = make();
  auto eager = make();
  const CompiledStats& stats = compiled->compile({8, 8, 2, 3});
  EXPECT_EQ(stats.elided_pads, 1u);
  EXPECT_EQ(stats.fused_conv_act, 1u);
  EXPECT_EQ(stats.graph_nodes, 2u);  // pad node + fused conv+relu node
  expect_bitwise_differential(*compiled, *eager, {8, 8, 2, 3}, {8, 8, 4, 3},
                              /*steps=*/3);
}

TEST(DnnFusion, StridedConvMustNotFuseAndStillMatches) {
  // Stride-2 conv sits outside the API boundary, so the fusion pass has
  // nothing safe to collapse: the pair must stay two nodes and the
  // (eager-kernel-backed) compiled path must still agree bitwise.
  auto make = [] {
    auto net = std::make_unique<Network>();
    util::Rng rng(53);
    conv::ConvShape shape;
    shape.batch = 3;
    shape.ni = 2;
    shape.no = 4;
    shape.ri = 9;
    shape.ci = 9;
    shape.kr = 3;
    shape.kc = 3;
    shape.stride_r = 2;
    shape.stride_c = 2;
    net->emplace<Convolution>(shape, rng, ConvBackend::kHostIm2col,
                              /*with_bias=*/true);
    net->emplace<Relu>();
    return net;
  };
  auto compiled = make();
  auto eager = make();
  const CompiledStats& stats = compiled->compile({9, 9, 2, 3});
  EXPECT_EQ(stats.fused_conv_act, 0u);
  EXPECT_EQ(stats.graph_nodes, 2u);
  expect_bitwise_differential(*compiled, *eager, {9, 9, 2, 3}, {4, 4, 4, 3});
}

TEST(DnnFusion, RaggedChainFusesOnlyTheLegalPairs) {
  // conv+relu fuse; pooling breaks the chain; fc+tanh fuse; softmax is
  // not a fusible epilogue and stays single.
  Network net;
  util::Rng rng(59);
  conv::ConvShape shape = small_conv_shape();
  net.emplace<Convolution>(shape, rng, ConvBackend::kHostIm2col,
                           /*with_bias=*/true);
  net.emplace<Relu>();
  net.emplace<MaxPooling>(2);  // 8x8x5 -> 4x4x5
  net.emplace<FullyConnected>(80, 10, rng);
  net.emplace<Tanh>();
  net.emplace<Softmax>();
  const CompiledStats& stats = net.compile({10, 10, 3, 4});
  EXPECT_EQ(stats.fused_conv_act, 1u);
  EXPECT_EQ(stats.fused_fc_act, 1u);
  EXPECT_EQ(stats.graph_nodes, 4u);  // 6 layers - 2 fusions
  EXPECT_EQ(stats.arena_slots, 2 * (stats.graph_nodes + 1));
}

TEST(DnnFusion, FuseOptionOffKeepsOneNodePerLayerAndStillMatches) {
  auto make = [] {
    auto net = std::make_unique<Network>();
    util::Rng rng(61);
    net->emplace<Convolution>(small_conv_shape(), rng,
                              ConvBackend::kHostIm2col, /*with_bias=*/true);
    net->emplace<Relu>();
    return net;
  };
  auto compiled = make();
  auto eager = make();
  CompileOptions options;
  options.fuse = false;
  const CompiledStats& stats = compiled->compile({10, 10, 3, 4}, options);
  EXPECT_EQ(stats.fused_conv_act, 0u);
  EXPECT_EQ(stats.elided_pads, 0u);
  EXPECT_EQ(stats.graph_nodes, 2u);
  expect_bitwise_differential(*compiled, *eager, {10, 10, 3, 4},
                              {8, 8, 5, 4});
}

TEST(DnnFusion, PassesEmitFusionAndAutotuneTraceInstants) {
  Network net;
  util::Rng rng(67);
  net.emplace<ZeroPad2d>(1);
  conv::ConvShape shape;
  shape.batch = 3;
  shape.ni = 2;
  shape.no = 4;
  shape.ri = 10;
  shape.ci = 10;
  shape.kr = 3;
  shape.kc = 3;
  net.emplace<Convolution>(shape, rng, ConvBackend::kHostIm2col,
                           /*with_bias=*/true);
  net.emplace<Relu>();

  sim::EventTracer tracer;
  CompileOptions options;
  options.tracer = &tracer;
  net.compile({8, 8, 2, 3}, options);

  bool saw_fuse = false, saw_elide = false, saw_plan = false;
  for (const sim::TraceEvent& event : tracer.events()) {
    if (event.category == "fusion") {
      if (event.name.find("fuse conv#1+relu#2") != std::string::npos) {
        saw_fuse = true;
      }
      if (event.name.find("elide zeropad#0") != std::string::npos) {
        saw_elide = true;
      }
    }
    // The tuning context's warm-up names each key's dispatched plan.
    if (event.category == "plan" &&
        event.name.find(" plan=") != std::string::npos) {
      saw_plan = true;
    }
  }
  EXPECT_TRUE(saw_fuse);
  EXPECT_TRUE(saw_elide);
  EXPECT_TRUE(saw_plan);
}

TEST(DnnFusion, TraceJsonEscapesPassAndNodeNames) {
  // Regression: pass/node names flow into the Chrome-trace JSON export
  // verbatim. Names with quotes, backslashes, and control characters
  // must come out escaped — a raw quote would corrupt the document.
  sim::EventTracer tracer;
  tracer.record_instant(0, "fusion", "fuse conv\"quoted\"#0+relu\\bs#1");
  tracer.record_instant(0, "plan", "Conv(B=4\tNi=2)\nplan=host");
  const std::string json = tracer.to_chrome_json(1.5);
  EXPECT_NE(json.find("fuse conv\\\"quoted\\\"#0+relu\\\\bs#1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("Conv(B=4\\tNi=2)\\nplan=host"), std::string::npos)
      << json;
  // No raw (unescaped) tab/newline survives inside the document.
  EXPECT_EQ(json.find('\t'), std::string::npos);
  for (const char c : json) EXPECT_NE(c, '\r');
}

}  // namespace
}  // namespace swdnn::dnn
