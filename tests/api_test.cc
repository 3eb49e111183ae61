// The handle/descriptor API: lifecycle, descriptor validation, forward
// and both gradients against the reference kernels, fallback routing,
// and the planning query.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/api/swdnn_api.h"
#include "src/conv/reference.h"
#include "src/util/rng.h"

namespace swdnn::api {
namespace {

arch::Sw26010Spec mesh_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

class ApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const arch::Sw26010Spec spec = mesh_spec(2);
    ASSERT_EQ(create(&handle_, &spec), Status::kSuccess);
  }
  void TearDown() override {
    EXPECT_EQ(destroy(handle_), Status::kSuccess);
  }
  Handle* handle_ = nullptr;
};

TEST(ApiLifecycle, CreateRejectsNull) {
  EXPECT_EQ(create(nullptr), Status::kBadParam);
  EXPECT_EQ(destroy(nullptr), Status::kBadParam);
}

TEST(ApiLifecycle, CreateRejectsNonPositiveMesh) {
  for (const auto& [rows, cols] :
       {std::pair{0, 0}, std::pair{-2, -2}, std::pair{4, 0}}) {
    arch::Sw26010Spec spec = mesh_spec(4);
    spec.mesh_rows = rows;
    spec.mesh_cols = cols;
    Handle* handle = nullptr;
    EXPECT_EQ(create(&handle, &spec), Status::kBadParam)
        << rows << "x" << cols;
    EXPECT_EQ(handle, nullptr);
  }
}

TEST(ApiLifecycle, StatusStrings) {
  EXPECT_STREQ(status_string(Status::kSuccess), "SWDNN_STATUS_SUCCESS");
  EXPECT_STREQ(status_string(Status::kBadParam), "SWDNN_STATUS_BAD_PARAM");
  EXPECT_STREQ(status_string(Status::kShapeMismatch),
               "SWDNN_STATUS_SHAPE_MISMATCH");
}

TEST(ApiDescriptors, TensorDescriptorValidation) {
  TensorDescriptor d;
  EXPECT_EQ(set_tensor4d_descriptor(d, 4, 4, 2, 8), Status::kSuccess);
  EXPECT_EQ(d.rows, 4);
  EXPECT_EQ(set_tensor4d_descriptor(d, 0, 4, 2, 8), Status::kBadParam);
  EXPECT_EQ(set_tensor4d_descriptor(d, 4, -1, 2, 8), Status::kBadParam);
}

TEST(ApiDescriptors, OutputDescriptorComputesValidConv) {
  TensorDescriptor x, y;
  FilterDescriptor w;
  set_tensor4d_descriptor(x, 6, 6, 2, 4);
  set_filter_descriptor(w, 3, 3, 2, 8);
  ASSERT_EQ(get_convolution_output_descriptor(x, w, y), Status::kSuccess);
  EXPECT_EQ(y.rows, 4);
  EXPECT_EQ(y.cols, 4);
  EXPECT_EQ(y.channels, 8);
  EXPECT_EQ(y.batch, 4);
}

TEST(ApiDescriptors, OutputDescriptorRejectsChannelMismatch) {
  TensorDescriptor x, y;
  FilterDescriptor w;
  set_tensor4d_descriptor(x, 6, 6, 3, 4);
  set_filter_descriptor(w, 3, 3, 2, 8);
  EXPECT_EQ(get_convolution_output_descriptor(x, w, y),
            Status::kShapeMismatch);
}

TEST(ApiDescriptors, OutputDescriptorRejectsOversizedFilter) {
  TensorDescriptor x, y;
  FilterDescriptor w;
  set_tensor4d_descriptor(x, 2, 2, 2, 4);
  set_filter_descriptor(w, 3, 3, 2, 8);
  EXPECT_EQ(get_convolution_output_descriptor(x, w, y),
            Status::kShapeMismatch);
}

TEST_F(ApiTest, ForwardMatchesReference) {
  const conv::ConvShape s = conv::ConvShape::from_output(4, 2, 2, 3, 4, 2, 2);
  util::Rng rng(81);
  tensor::Tensor in = conv::make_input(s), w = conv::make_filter(s);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  tensor::Tensor expected = conv::make_output(s);
  conv::reference_forward(in, w, expected, s);

  TensorDescriptor x_desc, y_desc;
  FilterDescriptor w_desc;
  set_tensor4d_descriptor(x_desc, s.ri, s.ci, s.ni, s.batch);
  set_filter_descriptor(w_desc, s.kr, s.kc, s.ni, s.no);
  ASSERT_EQ(get_convolution_output_descriptor(x_desc, w_desc, y_desc),
            Status::kSuccess);
  std::vector<double> y(static_cast<std::size_t>(expected.size()));
  ASSERT_EQ(convolution_forward(handle_, x_desc, in.data().data(), w_desc,
                                w.data().data(), y_desc, y.data()),
            Status::kSuccess);
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], expected.data()[i], 1e-11);
  }
  EXPECT_EQ(last_execution_route(handle_), ExecutionRoute::kSimulatedMesh);
}

TEST_F(ApiTest, ForwardFallsBackToHostForMeshIncompatibleShapes) {
  // Ni=3 cannot divide a 2-mesh (blocks the channel-blocked plans) and
  // No=4096 makes every multigrain tile set overflow the LDM: no mesh
  // mapping at all, so the API must still produce the right answer via
  // the host route.
  const conv::ConvShape s =
      conv::ConvShape::from_output(2, 3, 4096, 3, 3, 2, 2);
  util::Rng rng(82);
  tensor::Tensor in = conv::make_input(s), w = conv::make_filter(s);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  tensor::Tensor expected = conv::make_output(s);
  conv::reference_forward(in, w, expected, s);

  TensorDescriptor x_desc, y_desc;
  FilterDescriptor w_desc;
  set_tensor4d_descriptor(x_desc, s.ri, s.ci, s.ni, s.batch);
  set_filter_descriptor(w_desc, s.kr, s.kc, s.ni, s.no);
  get_convolution_output_descriptor(x_desc, w_desc, y_desc);
  std::vector<double> y(static_cast<std::size_t>(expected.size()));
  ASSERT_EQ(convolution_forward(handle_, x_desc, in.data().data(), w_desc,
                                w.data().data(), y_desc, y.data()),
            Status::kSuccess);
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], expected.data()[i], 1e-10);
  }
  EXPECT_EQ(last_execution_route(handle_), ExecutionRoute::kHostGemm);
}

TEST_F(ApiTest, ForwardRejectsInconsistentDescriptors) {
  TensorDescriptor x_desc, y_desc;
  FilterDescriptor w_desc;
  set_tensor4d_descriptor(x_desc, 6, 6, 2, 4);
  set_filter_descriptor(w_desc, 3, 3, 2, 8);
  set_tensor4d_descriptor(y_desc, 5, 5, 8, 4);  // wrong output rows
  std::vector<double> x(6 * 6 * 2 * 4), w(3 * 3 * 2 * 8), y(5 * 5 * 8 * 4);
  EXPECT_EQ(convolution_forward(handle_, x_desc, x.data(), w_desc, w.data(),
                                y_desc, y.data()),
            Status::kShapeMismatch);
}

TEST_F(ApiTest, ForwardRejectsNullBuffers) {
  TensorDescriptor x_desc, y_desc;
  FilterDescriptor w_desc;
  set_tensor4d_descriptor(x_desc, 4, 4, 2, 4);
  set_filter_descriptor(w_desc, 3, 3, 2, 2);
  get_convolution_output_descriptor(x_desc, w_desc, y_desc);
  std::vector<double> buf(512);
  EXPECT_EQ(convolution_forward(handle_, x_desc, nullptr, w_desc, buf.data(),
                                y_desc, buf.data()),
            Status::kBadParam);
}

TEST_F(ApiTest, BackwardDataMatchesReference) {
  const conv::ConvShape s = conv::ConvShape::from_output(4, 2, 2, 3, 4, 2, 2);
  util::Rng rng(83);
  tensor::Tensor w = conv::make_filter(s), dy = conv::make_output(s);
  rng.fill_uniform(w.data(), -1, 1);
  rng.fill_uniform(dy.data(), -1, 1);
  tensor::Tensor expected = conv::make_input(s);
  conv::reference_backward_data(dy, w, expected, s);

  TensorDescriptor dx_desc, dy_desc;
  FilterDescriptor w_desc;
  set_tensor4d_descriptor(dx_desc, s.ri, s.ci, s.ni, s.batch);
  set_tensor4d_descriptor(dy_desc, s.ro(), s.co(), s.no, s.batch);
  set_filter_descriptor(w_desc, s.kr, s.kc, s.ni, s.no);
  std::vector<double> dx(static_cast<std::size_t>(expected.size()));
  ASSERT_EQ(convolution_backward_data(handle_, w_desc, w.data().data(),
                                      dy_desc, dy.data().data(), dx_desc,
                                      dx.data()),
            Status::kSuccess);
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(dx[static_cast<std::size_t>(i)], expected.data()[i], 1e-10);
  }
}

TEST_F(ApiTest, BackwardFilterMatchesReference) {
  const conv::ConvShape s = conv::ConvShape::from_output(4, 2, 2, 3, 4, 2, 2);
  util::Rng rng(84);
  tensor::Tensor x = conv::make_input(s), dy = conv::make_output(s);
  rng.fill_uniform(x.data(), -1, 1);
  rng.fill_uniform(dy.data(), -1, 1);
  tensor::Tensor expected = conv::make_filter(s);
  conv::reference_backward_filter(x, dy, expected, s);

  TensorDescriptor x_desc, dy_desc;
  FilterDescriptor dw_desc;
  set_tensor4d_descriptor(x_desc, s.ri, s.ci, s.ni, s.batch);
  set_tensor4d_descriptor(dy_desc, s.ro(), s.co(), s.no, s.batch);
  set_filter_descriptor(dw_desc, s.kr, s.kc, s.ni, s.no);
  std::vector<double> dw(static_cast<std::size_t>(expected.size()));
  ASSERT_EQ(convolution_backward_filter(handle_, x_desc, x.data().data(),
                                        dy_desc, dy.data().data(), dw_desc,
                                        dw.data()),
            Status::kSuccess);
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(dw[static_cast<std::size_t>(i)], expected.data()[i], 1e-9);
  }
}

TEST(ApiEstimate, ReturnsChipThroughputForPaperShapes) {
  Handle* handle = nullptr;
  ASSERT_EQ(create(&handle), Status::kSuccess);
  TensorDescriptor x_desc;
  FilterDescriptor w_desc;
  set_tensor4d_descriptor(x_desc, 66, 66, 128, 128);
  set_filter_descriptor(w_desc, 3, 3, 128, 128);
  double gflops = 0;
  ASSERT_EQ(get_convolution_estimate(handle, x_desc, w_desc, &gflops),
            Status::kSuccess);
  EXPECT_GT(gflops, 1000.0);
  EXPECT_LT(gflops, 2969.6);
  destroy(handle);
}

}  // namespace
}  // namespace swdnn::api
