// The handle/descriptor API — how a framework integration (a Caffe or
// TensorFlow backend, as the paper envisions) consumes swDNN: opaque
// handle, plain descriptors, raw buffers, status codes. Runs a forward
// convolution and both gradients through the API, verifies against the
// reference kernels, and shows the planning query and the execution
// routing.
//
// Usage: api_demo [--mesh=2|4|8]

#include <cstdio>
#include <exception>
#include <vector>

#include "src/api/swdnn_api.h"
#include "src/conv/reference.h"
#include "src/util/cli.h"
#include "src/util/rng.h"

namespace api = swdnn::api;

#define CHECK_STATUS(call)                                              \
  do {                                                                  \
    const api::Status status_ = (call);                                 \
    if (status_ != api::Status::kSuccess) {                             \
      std::fprintf(stderr, "%s failed: %s\n", #call,                    \
                   api::status_string(status_));                        \
      return 1;                                                         \
    }                                                                   \
  } while (0)

int main(int argc, char** argv) try {
  swdnn::util::CliArgs args(argc, argv);
  swdnn::arch::Sw26010Spec spec = swdnn::arch::default_spec();
  spec.mesh_rows = spec.mesh_cols = static_cast<int>(args.get_int("mesh", 4));

  api::Handle* handle = nullptr;
  CHECK_STATUS(api::create(&handle, &spec));
  std::printf("swDNN handle created (simulated %dx%d CPE mesh)\n",
              spec.mesh_rows, spec.mesh_cols);

  // Describe a layer: 8x8 input, 4->8 channels, 3x3 filter, batch 8.
  api::TensorDescriptor x_desc, y_desc;
  api::FilterDescriptor w_desc;
  CHECK_STATUS(api::set_tensor4d_descriptor(x_desc, 8, 8, 4, 8));
  CHECK_STATUS(api::set_filter_descriptor(w_desc, 3, 3, 4, 8));
  CHECK_STATUS(api::get_convolution_output_descriptor(x_desc, w_desc,
                                                      y_desc));
  std::printf("conv: in %lldx%lldx%lld (B=%lld) -> out %lldx%lldx%lld\n",
              static_cast<long long>(x_desc.rows),
              static_cast<long long>(x_desc.cols),
              static_cast<long long>(x_desc.channels),
              static_cast<long long>(x_desc.batch),
              static_cast<long long>(y_desc.rows),
              static_cast<long long>(y_desc.cols),
              static_cast<long long>(y_desc.channels));

  // Buffers, filled with random data.
  swdnn::util::Rng rng(7);
  std::vector<double> x(static_cast<std::size_t>(
      x_desc.rows * x_desc.cols * x_desc.channels * x_desc.batch));
  std::vector<double> w(static_cast<std::size_t>(w_desc.kr * w_desc.kc *
                                                 w_desc.ni * w_desc.no));
  std::vector<double> y(static_cast<std::size_t>(
      y_desc.rows * y_desc.cols * y_desc.channels * y_desc.batch));
  rng.fill_uniform(x, -1, 1);
  rng.fill_uniform(w, -1, 1);

  CHECK_STATUS(api::convolution_forward(handle, x_desc, x.data(), w_desc,
                                        w.data(), y_desc, y.data()));
  std::printf("forward executed via %s\n",
              api::last_execution_route(handle) ==
                      api::ExecutionRoute::kSimulatedMesh
                  ? "the simulated mesh"
                  : "the host GEMM fallback");

  // Cross-check against the reference kernel.
  const auto shape = swdnn::conv::ConvShape::from_output(
      x_desc.batch, w_desc.ni, w_desc.no, y_desc.rows, y_desc.cols,
      w_desc.kr, w_desc.kc);
  auto in_t = swdnn::conv::make_input(shape);
  auto w_t = swdnn::conv::make_filter(shape);
  std::copy(x.begin(), x.end(), in_t.data().begin());
  std::copy(w.begin(), w.end(), w_t.data().begin());
  auto expected = swdnn::conv::make_output(shape);
  swdnn::conv::reference_forward(in_t, w_t, expected, shape);
  double worst = 0;
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    worst = std::max(worst, std::abs(expected.data()[i] -
                                     y[static_cast<std::size_t>(i)]));
  }
  std::printf("max |diff| vs reference: %.2e\n", worst);

  // Gradients through the API.
  std::vector<double> dy(y.size());
  rng.fill_uniform(dy, -1, 1);
  std::vector<double> dx(x.size()), dw(w.size());
  CHECK_STATUS(api::convolution_backward_data(handle, w_desc, w.data(),
                                              y_desc, dy.data(), x_desc,
                                              dx.data()));
  CHECK_STATUS(api::convolution_backward_filter(handle, x_desc, x.data(),
                                                y_desc, dy.data(), w_desc,
                                                dw.data()));
  std::printf("backward data + filter executed\n");

  // The planning query at paper scale.
  api::TensorDescriptor big_x;
  api::FilterDescriptor big_w;
  api::set_tensor4d_descriptor(big_x, 66, 66, 256, 128);
  api::set_filter_descriptor(big_w, 3, 3, 256, 256);
  double gflops = 0;
  api::Handle* paper_handle = nullptr;
  CHECK_STATUS(api::create(&paper_handle));
  CHECK_STATUS(api::get_convolution_estimate(paper_handle, big_x, big_w,
                                             &gflops));
  std::printf("planning query: 256->256 channel 3x3 layer -> %.0f Gflops "
              "modeled on one chip\n",
              gflops);
  api::destroy(paper_handle);

  CHECK_STATUS(api::destroy(handle));
  std::printf("handle destroyed — done.\n");
  return worst < 1e-10 ? 0 : 1;
} catch (const std::exception& e) {  // e.g. a malformed numeric flag
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
