#include "src/conv/reference.h"

namespace swdnn::conv {

tensor::Tensor make_input(const ConvShape& s) {
  return tensor::Tensor({s.ri, s.ci, s.ni, s.batch});
}

tensor::Tensor make_filter(const ConvShape& s) {
  return tensor::Tensor({s.kr, s.kc, s.ni, s.no});
}

tensor::Tensor make_output(const ConvShape& s) {
  return tensor::Tensor({s.ro(), s.co(), s.no, s.batch});
}

void reference_forward(const tensor::Tensor& input,
                       const tensor::Tensor& filter, tensor::Tensor& output,
                       const ConvShape& s) {
  output.zero();
  // Raw row-major indexing of the canonical layouts: each output still
  // sums its terms in this loop order, the order every mesh kernel's
  // bitwise contract is stated against.
  const double* in = input.data().data();
  const double* wt = filter.data().data();
  double* out = output.data().data();
  for (std::int64_t ro = 0; ro < s.ro(); ++ro)
    for (std::int64_t co = 0; co < s.co(); ++co)
      for (std::int64_t kr = 0; kr < s.kr; ++kr)
        for (std::int64_t kc = 0; kc < s.kc; ++kc)
          for (std::int64_t ni = 0; ni < s.ni; ++ni) {
            const double* x =
                in + (((ro * s.stride_r + kr) * s.ci + co * s.stride_c + kc) *
                          s.ni +
                      ni) *
                         s.batch;
            for (std::int64_t no = 0; no < s.no; ++no) {
              const double w = wt[((kr * s.kc + kc) * s.ni + ni) * s.no + no];
              double* y = out + ((ro * s.co() + co) * s.no + no) * s.batch;
              for (std::int64_t b = 0; b < s.batch; ++b) y[b] += x[b] * w;
            }
          }
}

void reference_backward_data(const tensor::Tensor& d_output,
                             const tensor::Tensor& filter,
                             tensor::Tensor& d_input, const ConvShape& s) {
  d_input.zero();
  // Raw indexing, in the loop order of reference_forward.
  const double* dy = d_output.data().data();
  const double* wt = filter.data().data();
  double* dx = d_input.data().data();
  for (std::int64_t ro = 0; ro < s.ro(); ++ro)
    for (std::int64_t co = 0; co < s.co(); ++co)
      for (std::int64_t kr = 0; kr < s.kr; ++kr)
        for (std::int64_t kc = 0; kc < s.kc; ++kc)
          for (std::int64_t ni = 0; ni < s.ni; ++ni) {
            double* x =
                dx + (((ro * s.stride_r + kr) * s.ci + co * s.stride_c + kc) *
                          s.ni +
                      ni) *
                         s.batch;
            for (std::int64_t no = 0; no < s.no; ++no) {
              const double w = wt[((kr * s.kc + kc) * s.ni + ni) * s.no + no];
              const double* y =
                  dy + ((ro * s.co() + co) * s.no + no) * s.batch;
              for (std::int64_t b = 0; b < s.batch; ++b) x[b] += y[b] * w;
            }
          }
}

void reference_backward_filter(const tensor::Tensor& input,
                               const tensor::Tensor& d_output,
                               tensor::Tensor& d_filter, const ConvShape& s) {
  d_filter.zero();
  // Raw indexing, in the loop order of reference_forward.
  const double* in = input.data().data();
  const double* dy = d_output.data().data();
  double* dw = d_filter.data().data();
  for (std::int64_t ro = 0; ro < s.ro(); ++ro)
    for (std::int64_t co = 0; co < s.co(); ++co)
      for (std::int64_t kr = 0; kr < s.kr; ++kr)
        for (std::int64_t kc = 0; kc < s.kc; ++kc)
          for (std::int64_t ni = 0; ni < s.ni; ++ni) {
            const double* x =
                in + (((ro * s.stride_r + kr) * s.ci + co * s.stride_c + kc) *
                          s.ni +
                      ni) *
                         s.batch;
            for (std::int64_t no = 0; no < s.no; ++no) {
              const double* y =
                  dy + ((ro * s.co() + co) * s.no + no) * s.batch;
              double acc = 0;
              for (std::int64_t b = 0; b < s.batch; ++b) acc += x[b] * y[b];
              dw[((kr * s.kc + kc) * s.ni + ni) * s.no + no] += acc;
            }
          }
}

}  // namespace swdnn::conv
