#include "src/conv/im2col.h"

#include <algorithm>

#include "src/conv/gemm.h"
#include "src/runtime/task_pool.h"

namespace swdnn::conv {

// Parallelization note: every loop below is split on the host task pool
// over an index whose writes are disjoint (a column-matrix row, an
// output row's pixels of the transposed column matrix, an output
// channel, an input channel for the col2im scatter-add), so the
// results are bitwise-identical to the serial loops at any thread
// count — the runtime_parallel_test determinism suite holds this.
//
// Pooling note: the `pool`-taking entry points stage the lowered
// matrices through a TensorPool instead of fresh tensors. Fully
// overwritten buffers (column matrices, filter matrices) come
// back dirty; GEMM outputs come back zeroed because
// gemm_packed_parallel accumulates (C += A*B) and relies on the
// fresh-tensor zero state. Either way the bytes entering the GEMM are
// identical to the unpooled path, so results are bitwise-unchanged.

namespace {

/// Pool-or-fresh staging buffer. `zeroed` selects the acquire mode for
/// the pooled case; a fresh Tensor is always zero-initialized.
tensor::PooledTensor stage(tensor::TensorPool* pool,
                           const std::vector<std::int64_t>& dims,
                           bool zeroed) {
  if (pool == nullptr) {
    return tensor::PooledTensor(nullptr, tensor::Tensor(dims));
  }
  return zeroed ? pool->acquire(dims) : pool->acquire_dirty(dims);
}

// Raw-pointer loops over the row-major tensors: input [Ri][Ci][Ni][B],
// filter [Kr][Kc][Ni][No], output [Ro][Co][No][B]. The lowered column
// index is the output pixel (ro*Co + co) times B plus b, and the lowered
// K index is (ni*Kr + kr)*Kc + kc.

// Column matrix [K][(ro*Co+co)*B+b]: row (ni, kr, kc) gathers one run of
// B doubles per output pixel.
void im2col_into(const tensor::Tensor& input, const ConvShape& s,
                 tensor::Tensor& out) {
  const std::int64_t nb = s.batch, ro_n = s.ro(), co_n = s.co();
  const std::int64_t cols = ro_n * co_n * nb;
  const std::int64_t px = s.ni * nb;  // one input pixel's [Ni][B]
  const std::int64_t line = s.ci * px;  // one input row
  const double* in = input.data().data();
  double* col = out.data().data();
  runtime::parallel_for(
      0, s.ni * s.kr * s.kc, 1, [&](std::int64_t rb, std::int64_t re) {
        for (std::int64_t row = rb; row < re; ++row) {
          const std::int64_t ni = row / (s.kr * s.kc);
          const std::int64_t kr = (row / s.kc) % s.kr;
          const std::int64_t kc = row % s.kc;
          double* dst = col + row * cols;
          for (std::int64_t ro = 0; ro < ro_n; ++ro) {
            const double* src =
                in + (ro * s.stride_r + kr) * line + kc * px + ni * nb;
            for (std::int64_t co = 0; co < co_n; ++co) {
              const double* pixel = src + co * s.stride_c * px;
              for (std::int64_t b = 0; b < nb; ++b) *dst++ = pixel[b];
            }
          }
        }
      });
}

// Col^T [(ro*Co+co)*B+b][K], gathered straight from the input: for each
// output pixel and tap, the input pixel's contiguous [Ni][B] block fills
// one column of the pixel's B x K block.
void im2col_t_into(const tensor::Tensor& input, const ConvShape& s,
                   tensor::Tensor& out) {
  const std::int64_t nb = s.batch, co_n = s.co();
  const std::int64_t kdim = s.ni * s.kr * s.kc;
  const std::int64_t px = s.ni * nb;
  const std::int64_t line = s.ci * px;
  const double* in = input.data().data();
  double* col_t = out.data().data();
  runtime::parallel_for(0, s.ro(), 1, [&](std::int64_t rb, std::int64_t re) {
    for (std::int64_t ro = rb; ro < re; ++ro)
      for (std::int64_t co = 0; co < co_n; ++co) {
        double* dst = col_t + (ro * co_n + co) * nb * kdim;
        for (std::int64_t kr = 0; kr < s.kr; ++kr)
          for (std::int64_t kc = 0; kc < s.kc; ++kc) {
            const double* src = in + (ro * s.stride_r + kr) * line +
                                (co * s.stride_c + kc) * px;
            for (std::int64_t ni = 0; ni < s.ni; ++ni) {
              double* tap = dst + (ni * s.kr + kr) * s.kc + kc;
              for (std::int64_t b = 0; b < nb; ++b) {
                tap[b * kdim] = src[ni * nb + b];
              }
            }
          }
      }
  });
}

// Wmat [No][K]: filter tap (kr, kc, ni)'s No run, spread down a column.
void filter_matrix_into(const tensor::Tensor& filter, const ConvShape& s,
                        tensor::Tensor& out) {
  const std::int64_t kdim = s.ni * s.kr * s.kc;
  const double* f = filter.data().data();
  double* w = out.data().data();
  for (std::int64_t kr = 0; kr < s.kr; ++kr)
    for (std::int64_t kc = 0; kc < s.kc; ++kc)
      for (std::int64_t ni = 0; ni < s.ni; ++ni) {
        const double* src = f + ((kr * s.kc + kc) * s.ni + ni) * s.no;
        double* dst = w + (ni * s.kr + kr) * s.kc + kc;
        for (std::int64_t no = 0; no < s.no; ++no) dst[no * kdim] = src[no];
      }
}

// Wmat^T [K][No]: row (ni, kr, kc) is filter tap (kr, kc, ni)'s No run.
void filter_matrix_t_into(const tensor::Tensor& filter, const ConvShape& s,
                          tensor::Tensor& out) {
  const double* f = filter.data().data();
  double* w_t = out.data().data();
  for (std::int64_t kr = 0; kr < s.kr; ++kr)
    for (std::int64_t kc = 0; kc < s.kc; ++kc)
      for (std::int64_t ni = 0; ni < s.ni; ++ni) {
        const double* src = f + ((kr * s.kc + kc) * s.ni + ni) * s.no;
        std::copy(src, src + s.no, w_t + ((ni * s.kr + kr) * s.kc + kc) * s.no);
      }
}

// dOut [Ro][Co][No][B] as the lowered [No][(ro*Co+co)*B+b] matrix: one
// run of B doubles per (channel, pixel).
void output_matrix_into(const tensor::Tensor& d_output, const ConvShape& s,
                        tensor::Tensor& mat) {
  const std::int64_t nb = s.batch, pixels = s.ro() * s.co();
  const double* dout = d_output.data().data();
  double* m = mat.data().data();
  runtime::parallel_for(0, s.no, 1, [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t no = first; no < last; ++no)
      for (std::int64_t p = 0; p < pixels; ++p) {
        const double* src = dout + (p * s.no + no) * nb;
        std::copy(src, src + nb, m + (no * pixels + p) * nb);
      }
  });
}

}  // namespace

tensor::Tensor im2col(const tensor::Tensor& input, const ConvShape& s) {
  tensor::Tensor out({s.ni * s.kr * s.kc, s.ro() * s.co() * s.batch});
  im2col_into(input, s, out);
  return out;
}

void col2im_add(const tensor::Tensor& columns, tensor::Tensor& input,
                const ConvShape& s) {
  const std::int64_t nb = s.batch, ro_n = s.ro(), co_n = s.co();
  const std::int64_t cols = ro_n * co_n * nb;
  const std::int64_t px = s.ni * nb;
  const std::int64_t line = s.ci * px;
  const double* col = columns.data().data();
  double* in = input.data().data();
  // Shard on ni: overlapping kernel taps scatter-add into the same
  // input pixel, but only within one input channel, so per-channel
  // shards write disjoint slices and keep the serial (kr, kc, ro, co)
  // accumulation order within each.
  runtime::parallel_for(0, s.ni, 1, [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t ni = first; ni < last; ++ni)
      for (std::int64_t kr = 0; kr < s.kr; ++kr)
        for (std::int64_t kc = 0; kc < s.kc; ++kc) {
          const double* src = col + ((ni * s.kr + kr) * s.kc + kc) * cols;
          for (std::int64_t ro = 0; ro < ro_n; ++ro) {
            double* dst =
                in + (ro * s.stride_r + kr) * line + kc * px + ni * nb;
            for (std::int64_t co = 0; co < co_n; ++co) {
              double* pixel = dst + co * s.stride_c * px;
              for (std::int64_t b = 0; b < nb; ++b) pixel[b] += *src++;
            }
          }
        }
  });
}

tensor::Tensor filter_matrix(const tensor::Tensor& filter,
                             const ConvShape& s) {
  tensor::Tensor out({s.no, s.ni * s.kr * s.kc});
  filter_matrix_into(filter, s, out);
  return out;
}

void im2col_forward(const tensor::Tensor& input, const tensor::Tensor& filter,
                    tensor::Tensor& output, const ConvShape& s,
                    tensor::TensorPool* pool) {
  const std::int64_t m = s.no;
  const std::int64_t n = s.ro() * s.co() * s.batch;
  const std::int64_t k = s.ni * s.kr * s.kc;
  tensor::PooledTensor cols = stage(pool, {k, n}, /*zeroed=*/false);
  tensor::PooledTensor wmat = stage(pool, {m, k}, /*zeroed=*/false);
  im2col_into(input, s, *cols);
  filter_matrix_into(filter, s, *wmat);
  tensor::PooledTensor prod = stage(pool, {m, n}, /*zeroed=*/true);
  gemm_packed_parallel(m, n, k, wmat->data(), cols->data(), prod->data());
  // Scatter [No][(ro*Co+co)*B+b] back to [Ro][Co][No][B].
  const std::int64_t nb = s.batch, pixels = s.ro() * s.co();
  const double* p = prod->data().data();
  double* out = output.data().data();
  runtime::parallel_for(0, s.no, 1, [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t no = first; no < last; ++no)
      for (std::int64_t px = 0; px < pixels; ++px) {
        const double* src = p + (no * pixels + px) * nb;
        std::copy(src, src + nb, out + (px * s.no + no) * nb);
      }
  });
}

void im2col_backward_data(const tensor::Tensor& d_output,
                          const tensor::Tensor& filter,
                          tensor::Tensor& d_input, const ConvShape& s,
                          tensor::TensorPool* pool) {
  const std::int64_t kdim = s.ni * s.kr * s.kc;
  const std::int64_t sdim = s.ro() * s.co() * s.batch;
  tensor::PooledTensor wmat_t = stage(pool, {kdim, s.no}, /*zeroed=*/false);
  tensor::PooledTensor dout = stage(pool, {s.no, sdim}, /*zeroed=*/false);
  filter_matrix_t_into(filter, s, *wmat_t);
  output_matrix_into(d_output, s, *dout);
  // dCol[K][S] = Wmat^T [K][No] * dOut [No][S].
  tensor::PooledTensor dcol = stage(pool, {kdim, sdim}, /*zeroed=*/true);
  gemm_packed_parallel(kdim, sdim, s.no, wmat_t->data(), dout->data(),
                       dcol->data());
  d_input.zero();
  col2im_add(*dcol, d_input, s);
}

void im2col_backward_filter(const tensor::Tensor& input,
                            const tensor::Tensor& d_output,
                            tensor::Tensor& d_filter, const ConvShape& s,
                            tensor::TensorPool* pool) {
  const std::int64_t kdim = s.ni * s.kr * s.kc;
  const std::int64_t sdim = s.ro() * s.co() * s.batch;
  tensor::PooledTensor cols_t = stage(pool, {sdim, kdim}, /*zeroed=*/false);
  tensor::PooledTensor dout = stage(pool, {s.no, sdim}, /*zeroed=*/false);
  im2col_t_into(input, s, *cols_t);
  output_matrix_into(d_output, s, *dout);
  // dWmat[No][K] = dOut [No][S] * Col^T [S][K].
  tensor::PooledTensor dwmat = stage(pool, {s.no, kdim}, /*zeroed=*/true);
  gemm_packed_parallel(s.no, kdim, sdim, dout->data(), cols_t->data(),
                       dwmat->data());
  // Scatter [No][(ni*Kr+kr)*Kc+kc] back to [Kr][Kc][Ni][No].
  const double* dw = dwmat->data().data();
  double* df = d_filter.data().data();
  for (std::int64_t kr = 0; kr < s.kr; ++kr)
    for (std::int64_t kc = 0; kc < s.kc; ++kc)
      for (std::int64_t ni = 0; ni < s.ni; ++ni) {
        const double* src = dw + (ni * s.kr + kr) * s.kc + kc;
        double* dst = df + ((kr * s.kc + kc) * s.ni + ni) * s.no;
        for (std::int64_t no = 0; no < s.no; ++no) dst[no] = src[no * kdim];
      }
}

}  // namespace swdnn::conv
