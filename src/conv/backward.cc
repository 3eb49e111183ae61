#include "src/conv/backward.h"

#include <algorithm>
#include <stdexcept>

namespace swdnn::conv {

void zero_pad_output_gradient(const tensor::Tensor& d_output,
                              const ConvShape& shape, tensor::Tensor& padded) {
  const std::int64_t pr = shape.kr - 1;
  const std::int64_t pc = shape.kc - 1;
  // One output row's (co, no, b) block is one contiguous run on both
  // sides: copy it whole into the interior of the padded row.
  const std::int64_t pixel = shape.no * shape.batch;
  const std::int64_t row = shape.co() * pixel;
  const std::int64_t padded_row = (shape.co() + 2 * pc) * pixel;
  const double* src = d_output.data().data();
  double* dst = padded.data().data();
  for (std::int64_t r = 0; r < shape.ro(); ++r) {
    std::copy_n(src + r * row, row, dst + (r + pr) * padded_row + pc * pixel);
  }
}

void rotate_filter(const tensor::Tensor& filter, const ConvShape& shape,
                   tensor::Tensor& rotated) {
  const std::int64_t tap = shape.ni * shape.no;
  const double* w = filter.data().data();
  double* rot = rotated.data().data();
  for (std::int64_t kr = 0; kr < shape.kr; ++kr)
    for (std::int64_t kc = 0; kc < shape.kc; ++kc) {
      const double* src =
          w + ((shape.kr - 1 - kr) * shape.kc + shape.kc - 1 - kc) * tap;
      double* dst = rot + (kr * shape.kc + kc) * tap;
      for (std::int64_t ni = 0; ni < shape.ni; ++ni)
        for (std::int64_t no = 0; no < shape.no; ++no)
          dst[no * shape.ni + ni] = src[ni * shape.no + no];
    }
}

ConvShape backward_data_shape(const ConvShape& shape) {
  // Output image of the backward pass = the forward input image; the
  // padded gradient supplies Ri + Kr - 1 input rows.
  return ConvShape::from_output(shape.batch, shape.no, shape.ni, shape.ri,
                                shape.ci, shape.kr, shape.kc);
}

ForwardResult swconv_backward_data(SwConvolution& sw,
                                   const tensor::Tensor& d_output,
                                   const tensor::Tensor& filter,
                                   tensor::Tensor& d_input,
                                   const ConvShape& shape,
                                   tensor::TensorPool* pool) {
  if (shape.stride_r != 1 || shape.stride_c != 1) {
    throw std::invalid_argument(
        "swconv_backward_data: the mesh path is stride-1 only (use the "
        "im2col gradients for strided layers)");
  }
  // Resolve the plan first: this is the same single counted lookup (and
  // the same MeshMappingError on unmappable shapes) sw.forward() would
  // do, but done before the padded/rotated staging tensors exist, so
  // callers that catch the error and reroute to the host pay nothing.
  const ConvShape bshape = backward_data_shape(shape);
  const perf::PlanChoice choice = sw.plan_for(bshape, true);

  const std::int64_t pr = shape.kr - 1;
  const std::int64_t pc = shape.kc - 1;
  const std::vector<std::int64_t> padded_dims{
      shape.ro() + 2 * pr, shape.co() + 2 * pc, shape.no, shape.batch};
  const std::vector<std::int64_t> rotated_dims{shape.kr, shape.kc, shape.no,
                                               shape.ni};
  // The pad borders must be zero, so the padded buffer comes back
  // zeroed either way; the rotated filter is fully overwritten.
  tensor::PooledTensor padded =
      pool != nullptr
          ? pool->acquire(padded_dims)
          : tensor::PooledTensor(nullptr, tensor::Tensor(padded_dims));
  tensor::PooledTensor rotated =
      pool != nullptr
          ? pool->acquire_dirty(rotated_dims)
          : tensor::PooledTensor(nullptr, tensor::Tensor(rotated_dims));
  zero_pad_output_gradient(d_output, shape, *padded);
  rotate_filter(filter, shape, *rotated);
  return sw.execute_choice(choice, *padded, *rotated, d_input, bshape);
}

sim::LaunchStats mesh_backward_filter(sim::MeshExecutor& exec,
                                      const tensor::Tensor& input,
                                      const tensor::Tensor& d_output,
                                      tensor::Tensor& d_filter,
                                      const ConvShape& shape) {
  const std::int64_t batch = shape.batch;
  const std::int64_t s_len = shape.ro() * shape.co() * batch;
  // dOut as a [S][No] matrix (s = (ro, co, b) row-major): each pixel's
  // [No][B] block transposed. Materialized once; the same matrix serves
  // every filter tap.
  std::vector<double> dout_mat(static_cast<std::size_t>(s_len * shape.no));
  const double* dy = d_output.data().data();
  for (std::int64_t p = 0; p < shape.ro() * shape.co(); ++p) {
    const double* src = dy + p * shape.no * batch;
    double* dst = dout_mat.data() + p * batch * shape.no;
    for (std::int64_t b = 0; b < batch; ++b)
      for (std::int64_t no = 0; no < shape.no; ++no)
        dst[b * shape.no + no] = src[no * batch + b];
  }

  sim::LaunchStats total;
  std::vector<double> in_mat(static_cast<std::size_t>(s_len * shape.ni));
  std::vector<double> dw_slice(
      static_cast<std::size_t>(shape.ni * shape.no));
  const double* in = input.data().data();
  double* dw = d_filter.data().data();
  for (std::int64_t kr = 0; kr < shape.kr; ++kr) {
    for (std::int64_t kc = 0; kc < shape.kc; ++kc) {
      // In_shift as [S][Ni]: the input pixels this tap touches, each
      // pixel's [Ni][B] block transposed.
      for (std::int64_t ro = 0; ro < shape.ro(); ++ro)
        for (std::int64_t co = 0; co < shape.co(); ++co) {
          const double* src =
              in + ((ro * shape.stride_r + kr) * shape.ci +
                    co * shape.stride_c + kc) *
                       shape.ni * batch;
          double* dst =
              in_mat.data() + (ro * shape.co() + co) * batch * shape.ni;
          for (std::int64_t b = 0; b < batch; ++b)
            for (std::int64_t ni = 0; ni < shape.ni; ++ni)
              dst[b * shape.ni + ni] = src[ni * batch + b];
        }
      // dW(kr,kc)[ni][no] = sum_s in_mat[s][ni] * dout_mat[s][no]: the
      // driver's a=[k][m], b=[k][n] convention with k = S.
      const sim::LaunchStats stats =
          mesh_gemm(exec, in_mat, dout_mat, dw_slice, shape.ni, s_len,
                    shape.no);
      std::copy(dw_slice.begin(), dw_slice.end(),
                dw + (kr * shape.kc + kc) * shape.ni * shape.no);

      total.accumulate(stats);
    }
  }
  return total;
}

sim::LaunchStats predict_backward_filter(const ConvShape& shape,
                                         const arch::Sw26010Spec& spec) {
  const sim::LaunchStats tap = predict_mesh_gemm(
      spec, shape.ni, shape.ro() * shape.co() * shape.batch, shape.no);
  sim::LaunchStats total;
  for (std::int64_t t = 0; t < shape.kr * shape.kc; ++t) total.accumulate(tap);
  return total;
}

}  // namespace swdnn::conv
