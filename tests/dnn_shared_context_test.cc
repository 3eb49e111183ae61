// Concurrent Network::compile and compiled stepping across multiple
// networks sharing ONE BackendContext — the serving runtime's replica
// shape (and HierarchicalTrainer's). A single compiled Network instance
// is not a concurrent object (its arena views are shared state), so the
// supported concurrency unit is one network per thread over a shared
// handle: one plan cache, one fault ladder, hammered from all sides.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/dnn/backend_context.h"
#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/network.h"
#include "src/dnn/relu.h"
#include "src/dnn/softmax.h"
#include "src/util/rng.h"

namespace swdnn::dnn {
namespace {

arch::Sw26010Spec mesh_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

constexpr std::int64_t kBatch = 2;
const std::vector<std::int64_t> kInputDims = {8, 8, 3, kBatch};

/// Host-routed CNN, identically seeded on every call so all replicas
/// (and the serial reference) share weights bitwise.
std::unique_ptr<Network> make_host_net() {
  auto net = std::make_unique<Network>();
  util::Rng rng(321);
  conv::ConvShape c;
  c.batch = kBatch;
  c.ni = 3;
  c.no = 5;
  c.ri = 8;
  c.ci = 8;
  c.kr = 3;
  c.kc = 3;
  net->emplace<Convolution>(c, rng, ConvBackend::kHostIm2col,
                            /*with_bias=*/true);
  net->emplace<Relu>();
  net->emplace<FullyConnected>(6 * 6 * 5, 10, rng);
  net->emplace<Softmax>();
  return net;
}

/// Mesh-routed single conv on the 2x2 test mesh: every forward goes
/// through the shared handle's plan cache and simulator.
std::unique_ptr<Network> make_mesh_net() {
  auto net = std::make_unique<Network>();
  util::Rng rng(654);
  net->emplace<Convolution>(conv::ConvShape::from_output(kBatch, 2, 2, 3, 4,
                                                         2, 2),
                            rng, ConvBackend::kSimulatedMesh);
  return net;
}

const std::vector<std::int64_t> kMeshInputDims = {4, 5, 2, kBatch};

tensor::Tensor make_input(const std::vector<std::int64_t>& dims,
                          std::uint64_t seed) {
  tensor::Tensor t(dims);
  util::Rng rng(seed);
  rng.fill_uniform(t.data(), -1.0, 1.0);
  return t;
}

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     sizeof(double) * static_cast<std::size_t>(a.size())) == 0;
}

TEST(SharedContext, ConcurrentCompileAndSteppingMatchesSerialBitwise) {
  constexpr int kNets = 4;
  constexpr int kSteps = 5;

  // Serial reference: a private network, compiled alone.
  std::vector<tensor::Tensor> inputs;
  for (int s = 0; s < kSteps; ++s) {
    inputs.push_back(make_input(kInputDims, 9000 + s));
  }
  auto reference = make_host_net();
  reference->compile(kInputDims);
  reference->set_training(false);
  std::vector<tensor::Tensor> golden;
  for (const tensor::Tensor& input : inputs) {
    golden.push_back(reference->forward(input));
  }

  // kNets threads: each COMPILES its own network against the shared
  // context concurrently with the others, then steps it. compile()
  // warm-up and stepping both dispatch through the one handle.
  BackendContext context;
  std::vector<std::vector<tensor::Tensor>> outputs(kNets);
  std::vector<std::thread> threads;
  for (int n = 0; n < kNets; ++n) {
    threads.emplace_back([&context, &inputs, &outputs, n] {
      auto net = make_host_net();
      CompileOptions options;
      options.context = &context;
      net->compile(kInputDims, options);
      net->set_training(false);
      for (const tensor::Tensor& input : inputs) {
        outputs[static_cast<std::size_t>(n)].push_back(net->forward(input));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int n = 0; n < kNets; ++n) {
    ASSERT_EQ(outputs[static_cast<std::size_t>(n)].size(), golden.size());
    for (int s = 0; s < kSteps; ++s) {
      EXPECT_TRUE(bitwise_equal(
          outputs[static_cast<std::size_t>(n)][static_cast<std::size_t>(s)],
          golden[static_cast<std::size_t>(s)]))
          << "net " << n << " step " << s;
    }
  }
}

TEST(SharedContext, ConcurrentMeshNetworksShareOnePlanCache) {
  constexpr int kNets = 4;
  const arch::Sw26010Spec spec = mesh_spec(2);

  auto reference = make_mesh_net();
  CompileOptions ref_options;
  ref_options.spec = &spec;
  reference->compile(kMeshInputDims, ref_options);
  reference->set_training(false);
  const tensor::Tensor input = make_input(kMeshInputDims, 12345);
  const tensor::Tensor golden = reference->forward(input);

  BackendContext context(&spec);
  std::vector<tensor::Tensor> outputs(kNets);
  std::vector<std::thread> threads;
  for (int n = 0; n < kNets; ++n) {
    threads.emplace_back([&context, &input, &outputs, n] {
      auto net = make_mesh_net();
      CompileOptions options;
      options.context = &context;
      net->compile(kMeshInputDims, options);
      net->set_training(false);
      // Two steps: the first races the other threads' compile warm-ups
      // on the plan cache, the second hits the cached winner.
      outputs[static_cast<std::size_t>(n)] = net->forward(input);
      outputs[static_cast<std::size_t>(n)] = net->forward(input);
    });
  }
  for (std::thread& t : threads) t.join();

  // One shape, one cached winner plan: every replica's mesh result is
  // bitwise identical to the serial run.
  for (int n = 0; n < kNets; ++n) {
    EXPECT_TRUE(bitwise_equal(outputs[static_cast<std::size_t>(n)], golden))
        << "net " << n;
  }
}

}  // namespace
}  // namespace swdnn::dnn
