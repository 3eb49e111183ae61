#include "src/tensor/layout.h"

#include <stdexcept>

namespace swdnn::tensor {

namespace {
void require_rank4_b_mod4(const Tensor& t) {
  if (t.rank() != 4) {
    throw std::invalid_argument("layout transform expects rank-4 tensor");
  }
  if (t.dim(3) % 4 != 0) {
    throw std::invalid_argument("batch dimension must be divisible by 4");
  }
}

// Walks rows [r_begin, r_end) of a canonical [R][C][N][B] tensor and
// calls fn(canonical offset, packed offset) for every element, where the
// packed layout over those rows is [B/4][N][r_end - r_begin][C][4].
template <typename Fn>
void for_each_packed_element(const Tensor& canonical, std::int64_t r_begin,
                             std::int64_t r_end, std::size_t packed_size,
                             Fn fn) {
  require_rank4_b_mod4(canonical);
  const std::int64_t C = canonical.dim(1), N = canonical.dim(2),
                     B = canonical.dim(3), rows = r_end - r_begin;
  if (r_begin < 0 || rows < 0 || r_end > canonical.dim(0) ||
      packed_size != static_cast<std::size_t>(rows * C * N * B)) {
    throw std::invalid_argument("image-size-aware rows: bad extent");
  }
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < C; ++c)
      for (std::int64_t n = 0; n < N; ++n)
        for (std::int64_t b = 0; b < B; ++b)
          fn(static_cast<std::size_t>((((r_begin + r) * C + c) * N + n) * B +
                                      b),
             static_cast<std::size_t>(
                 (((b / 4 * N + n) * rows + r) * C + c) * 4 + b % 4));
}

}  // namespace

Tensor to_image_size_aware(const Tensor& canonical) {
  require_rank4_b_mod4(canonical);
  Tensor out({canonical.dim(3) / 4, canonical.dim(2), canonical.dim(0),
              canonical.dim(1), 4});
  pack_image_size_aware_rows(canonical, 0, canonical.dim(0), out.data());
  return out;
}

Tensor to_batch_size_aware(const Tensor& canonical) {
  require_rank4_b_mod4(canonical);
  const std::int64_t R = canonical.dim(0), C = canonical.dim(1),
                     N = canonical.dim(2), B = canonical.dim(3);
  Tensor out({N, R, C, B / 4, 4});
  for (std::int64_t r = 0; r < R; ++r)
    for (std::int64_t c = 0; c < C; ++c)
      for (std::int64_t n = 0; n < N; ++n)
        for (std::int64_t b = 0; b < B; ++b)
          out.at(n, r, c, b / 4, b % 4) = canonical.at(r, c, n, b);
  return out;
}

Tensor from_image_size_aware(const Tensor& v) {
  if (v.rank() != 5 || v.dim(4) != 4) {
    throw std::invalid_argument("expected [B/4][N][R][C][4] tensor");
  }
  Tensor out({v.dim(2), v.dim(3), v.dim(1), v.dim(0) * 4});
  unpack_image_size_aware_rows(v.data(), 0, v.dim(2), out);
  return out;
}

Tensor from_batch_size_aware(const Tensor& v) {
  if (v.rank() != 5 || v.dim(4) != 4) {
    throw std::invalid_argument("expected [N][R][C][B/4][4] tensor");
  }
  const std::int64_t N = v.dim(0), R = v.dim(1), C = v.dim(2), Bq = v.dim(3);
  Tensor out({R, C, N, Bq * 4});
  for (std::int64_t n = 0; n < N; ++n)
    for (std::int64_t r = 0; r < R; ++r)
      for (std::int64_t c = 0; c < C; ++c)
        for (std::int64_t bq = 0; bq < Bq; ++bq)
          for (std::int64_t l = 0; l < 4; ++l)
            out.at(r, c, n, bq * 4 + l) = v.at(n, r, c, bq, l);
  return out;
}

void pack_image_size_aware_rows(const Tensor& canonical, std::int64_t r_begin,
                                std::int64_t r_end, std::span<double> dst) {
  const std::span<const double> src = canonical.data();
  for_each_packed_element(canonical, r_begin, r_end, dst.size(),
                          [&](std::size_t from, std::size_t to) {
                            dst[to] = src[from];
                          });
}

void unpack_image_size_aware_rows(std::span<const double> src,
                                  std::int64_t r_begin, std::int64_t r_end,
                                  Tensor& canonical) {
  const std::span<double> dst = canonical.data();
  for_each_packed_element(canonical, r_begin, r_end, src.size(),
                          [&](std::size_t to, std::size_t from) {
                            dst[to] = src[from];
                          });
}

std::int64_t leading_block_bytes(ConvLayout layout, std::int64_t batch,
                                 std::int64_t block_co,
                                 std::int64_t elem_bytes) {
  switch (layout) {
    case ConvLayout::kCanonicalRCNB:
      // One (channel, pixel) slice: B contiguous elements.
      return batch * elem_bytes;
    case ConvLayout::kImageSizeAware:
      // Each CPE fetches bCo columns x one vector row: bCo*4 elements,
      // and consecutive batch-quads extend the run to bCo*batch.
      return block_co * batch * elem_bytes;
    case ConvLayout::kBatchSizeAware:
      // One pixel of all batches: B contiguous elements.
      return batch * elem_bytes;
  }
  return batch * elem_bytes;
}

}  // namespace swdnn::tensor
