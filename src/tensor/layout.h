#pragma once
// Convolution tensor layouts.
//
// Canonical layouts (what the reference kernels index):
//   input  : [Ri][Ci][Ni][B]   (row, column, channel, batch)
//   filter : [Kr][Kc][Ni][No]
//   output : [Ro][Co][No][B]
// Batch is innermost so that 4 consecutive batch elements form one
// 256-bit vector — the vectorization axis chosen in Section V-C.
//
// Vectorization-oriented layouts (paper Section V-C, leading dimension
// written first as in the paper, i.e. fastest-varying first):
//   image-size-aware : (4, C, R, N, B/4)  -> row-major [B/4][N][R][C][4]
//   batch-size-aware : (4, B/4, C, R, N)  -> row-major [N][R][C][B/4][4]
// The "4" is a batch sub-vector: element (r,c,n,b) lives in lane b%4 of
// vector b/4. These transforms are what the DMA descriptors of
// Algorithms 1 and 2 assume: they make the blocks each CPE fetches
// contiguous and >= 256 B so the DMA engine runs near peak (Table II).
// The mesh kernel of Algorithm 1 runs on the image-size-aware layout,
// staged row range by row range (pack/unpack_image_size_aware_rows).

#include <span>

#include "src/tensor/tensor.h"

namespace swdnn::tensor {

enum class ConvLayout {
  kCanonicalRCNB,    ///< [R][C][N][B]
  kImageSizeAware,   ///< (4, C, R, N, B/4)
  kBatchSizeAware,   ///< (4, B/4, C, R, N)
};

/// Converts a canonical [R][C][N][B] tensor to the image-size-aware
/// layout. B must be divisible by 4.
Tensor to_image_size_aware(const Tensor& canonical);

/// Converts a canonical [R][C][N][B] tensor to the batch-size-aware
/// layout. B must be divisible by 4.
Tensor to_batch_size_aware(const Tensor& canonical);

/// Inverse transforms (exact round-trips).
Tensor from_image_size_aware(const Tensor& vectorized);
Tensor from_batch_size_aware(const Tensor& vectorized);

/// Packs rows [r_begin, r_end) of a canonical [R][C][N][B] tensor into
/// `dst` in the image-size-aware layout over those rows:
/// [B/4][N][r_end - r_begin][C][4]. B must be divisible by 4 and `dst`
/// must hold exactly (r_end - r_begin) * C * N * B doubles. The mesh
/// kernel of Algorithm 1 stages its input rows with this.
void pack_image_size_aware_rows(const Tensor& canonical, std::int64_t r_begin,
                                std::int64_t r_end, std::span<double> dst);

/// The inverse: writes `src`, laid out [B/4][N][r_end - r_begin][C][4],
/// into rows [r_begin, r_end) of the canonical tensor.
void unpack_image_size_aware_rows(std::span<const double> src,
                                  std::int64_t r_begin, std::int64_t r_end,
                                  Tensor& canonical);

/// The contiguous-block size in bytes that a single CPE's DMA request
/// covers under each layout, given the blocking parameters. Used by the
/// performance model to look up effective bandwidth in the Table II
/// curve.
std::int64_t leading_block_bytes(ConvLayout layout, std::int64_t batch,
                                 std::int64_t block_co,
                                 std::int64_t elem_bytes = 8);

}  // namespace swdnn::tensor
