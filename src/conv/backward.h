#pragma once
// Training-side gradients executed through the swDNN machinery.
//
// The paper aims swDNN at training, and both gradients reduce to
// machinery the library already has:
//
//   * backward-data is itself a convolution: zero-pad the output
//     gradient by Kr-1/Kc-1 on each side, rotate the filter 180 degrees
//     and swap its channel axes, and the forward mesh kernels compute
//     dIn — so the LDM blocking, register communication, and pipeline
//     scheduling all apply unchanged;
//
//   * backward-filter is, per (kr, kc) filter tap, exactly the LDM-GEMM
//     of Section V: dW(kr,kc) [Ni x No] = In_shift^T * dOut contracted
//     over the (ro, co, b) axis — it runs on the distributed mesh GEMM
//     driver.

#include "src/conv/mesh_gemm_driver.h"
#include "src/conv/shape.h"
#include "src/conv/swconv.h"
#include "src/tensor/pool.h"
#include "src/tensor/tensor.h"

namespace swdnn::conv {

/// Zero-pads an output-gradient tensor [Ro][Co][No][B] by (Kr-1, Kc-1)
/// on every spatial side, the "full correlation" input: writes it into
/// the interior of `padded` ([Ro+2(Kr-1)][Co+2(Kc-1)][No][B]), whose
/// border the caller provides zeroed.
void zero_pad_output_gradient(const tensor::Tensor& d_output,
                              const ConvShape& shape, tensor::Tensor& padded);

/// Rotates the filter 180 degrees spatially and swaps the channel axes:
/// rotated[kr][kc][no][ni] = w[Kr-1-kr][Kc-1-kc][ni][no]. Overwrites
/// every element of `rotated` ([Kr][Kc][No][Ni]).
void rotate_filter(const tensor::Tensor& filter, const ConvShape& shape,
                   tensor::Tensor& rotated);

/// The forward-shape equivalent of the backward-data pass: same batch
/// and filter extents, input/output channel counts swapped, output
/// image = the original input image.
ConvShape backward_data_shape(const ConvShape& shape);

/// dIn = backward-data(dOut, W) on the simulated mesh via the forward
/// path. d_input is overwritten. Constraints are the forward kernels'
/// with Ni/No swapped. Resolves the plan before staging any tensors, so
/// a MeshMappingError (host-fallback territory for the caller) costs no
/// allocations; when `pool` is given the padded-gradient and
/// rotated-filter staging tensors are recycled through it.
ForwardResult swconv_backward_data(SwConvolution& sw,
                                   const tensor::Tensor& d_output,
                                   const tensor::Tensor& filter,
                                   tensor::Tensor& d_input,
                                   const ConvShape& shape,
                                   tensor::TensorPool* pool = nullptr);

/// dW = backward-filter(In, dOut) on the simulated mesh: one
/// distributed GEMM per filter tap. d_filter is overwritten. Works for
/// any shape (the GEMM driver pads ragged tiles).
sim::LaunchStats mesh_backward_filter(sim::MeshExecutor& exec,
                                      const tensor::Tensor& input,
                                      const tensor::Tensor& d_output,
                                      tensor::Tensor& d_filter,
                                      const ConvShape& shape);

/// The summed LaunchStats of a fault-free mesh_backward_filter on
/// `spec`'s mesh, computed without a launch: Kr*Kc identical tap GEMMs
/// (predict_mesh_gemm), summed in launch order.
sim::LaunchStats predict_backward_filter(const ConvShape& shape,
                                         const arch::Sw26010Spec& spec);

}  // namespace swdnn::conv
