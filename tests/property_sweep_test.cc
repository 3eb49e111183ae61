// Randomized property sweeps: for dozens of random shapes, every
// implementation path must agree with the naive reference — the
// strongest statement the suite makes about functional correctness.

#include <gtest/gtest.h>

#include "src/conv/fftconv.h"
#include "src/conv/im2col.h"
#include "src/conv/ldm_blocked.h"
#include "src/conv/multigrain.h"
#include "src/conv/reference.h"
#include "src/util/rng.h"

namespace swdnn::conv {
namespace {

arch::Sw26010Spec mesh_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

// Draws a random mesh-2-compatible shape and blocking.
struct RandomCase {
  ConvShape shape;
  perf::ConvPlan img_plan;
  perf::ConvPlan batch_plan;
};

RandomCase draw(util::Rng& rng) {
  RandomCase rc;
  const std::int64_t k = rng.uniform_int(1, 3);
  const std::int64_t ni = 2 * rng.uniform_int(1, 3);
  const std::int64_t no = 2 * rng.uniform_int(1, 3);
  const std::int64_t ro = rng.uniform_int(1, 4);
  // Co chosen as a multiple of a random bCo.
  const std::int64_t bco = rng.uniform_int(1, 3);
  const std::int64_t co = bco * rng.uniform_int(1, 3);
  // Batch: multiple of a mesh-compatible bB, which holds whole 256-bit
  // batch quads per CPE of the 2x2 mesh (a multiple of 4 x 2).
  const std::int64_t bb = 8 * rng.uniform_int(1, 3);
  const std::int64_t batch = bb * rng.uniform_int(1, 2);
  rc.shape = ConvShape::from_output(batch, ni, no, ro, co, k, k);
  rc.img_plan.kind = perf::PlanKind::kImageSizeAware;
  rc.img_plan.block_b = bb;
  rc.img_plan.block_co = bco;
  rc.batch_plan.kind = perf::PlanKind::kBatchSizeAware;
  rc.batch_plan.block_co = bco;
  return rc;
}

TEST(PropertySweep, AllPathsAgreeOnRandomShapes) {
  util::Rng rng(20250704);
  sim::MeshExecutor exec(mesh_spec(2));
  int checked = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const RandomCase rc = draw(rng);
    SCOPED_TRACE(rc.shape.to_string());

    tensor::Tensor in = make_input(rc.shape);
    tensor::Tensor w = make_filter(rc.shape);
    rng.fill_uniform(in.data(), -1, 1);
    rng.fill_uniform(w.data(), -1, 1);

    tensor::Tensor reference = make_output(rc.shape);
    reference_forward(in, w, reference, rc.shape);

    tensor::Tensor via_im2col = make_output(rc.shape);
    im2col_forward(in, w, via_im2col, rc.shape);
    EXPECT_LE(reference.max_abs_diff(via_im2col), 1e-10);

    tensor::Tensor via_fft = make_output(rc.shape);
    fft_conv_forward(in, w, via_fft, rc.shape);
    EXPECT_LE(reference.max_abs_diff(via_fft), 1e-8);

    tensor::Tensor via_img = make_output(rc.shape);
    run_image_size_aware(exec, in, w, via_img, rc.shape, rc.img_plan);
    EXPECT_EQ(reference.max_abs_diff(via_img), 0.0);

    tensor::Tensor via_batch = make_output(rc.shape);
    run_batch_size_aware(exec, in, w, via_batch, rc.shape, rc.batch_plan);
    EXPECT_EQ(reference.max_abs_diff(via_batch), 0.0);

    // The filter-grained mapping holds a stronger contract than the
    // incumbents: it accumulates in the reference loop's (kr, kc, ni)
    // order, so its output is bitwise equal, not merely close.
    perf::ConvPlan fg;
    fg.kind = perf::PlanKind::kFilterGrained;
    if (perf::plan_feasible(rc.shape, fg, exec.spec())) {
      tensor::Tensor via_fg = make_output(rc.shape);
      run_filter_grained(exec, in, w, via_fg, rc.shape, fg);
      EXPECT_EQ(reference.max_abs_diff(via_fg), 0.0);
    }
    ++checked;
  }
  EXPECT_EQ(checked, 25);
}

TEST(PropertySweep, ConvolutionIsTranslationEquivariant) {
  // Shifting the input by one pixel shifts the (interior of the)
  // output by one pixel — a property every path inherits from the
  // reference, checked once on it.
  const ConvShape s = ConvShape::from_output(2, 2, 2, 4, 4, 3, 3);
  util::Rng rng(4242);
  tensor::Tensor in = make_input(s);
  tensor::Tensor w = make_filter(s);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);

  tensor::Tensor shifted = make_input(s);
  for (std::int64_t r = 0; r + 1 < s.ri; ++r)
    for (std::int64_t c = 0; c < s.ci; ++c)
      for (std::int64_t n = 0; n < s.ni; ++n)
        for (std::int64_t b = 0; b < s.batch; ++b)
          shifted.at(r, c, n, b) = in.at(r + 1, c, n, b);

  tensor::Tensor out = make_output(s), out_shifted = make_output(s);
  reference_forward(in, w, out, s);
  reference_forward(shifted, w, out_shifted, s);
  for (std::int64_t r = 0; r + 1 < s.ro(); ++r)
    for (std::int64_t c = 0; c < s.co(); ++c)
      for (std::int64_t n = 0; n < s.no; ++n)
        for (std::int64_t b = 0; b < s.batch; ++b)
          EXPECT_NEAR(out_shifted.at(r, c, n, b), out.at(r + 1, c, n, b),
                      1e-12);
}

TEST(PropertySweep, MeshSizeDoesNotChangeTheAnswer) {
  // The same problem on 2x2, 4x4 and 8x8 meshes: identical results.
  const ConvShape s = ConvShape::from_output(8, 8, 8, 2, 2, 2, 2);
  perf::ConvPlan plan;
  plan.kind = perf::PlanKind::kBatchSizeAware;
  plan.block_co = 2;
  util::Rng rng(777);
  tensor::Tensor in = make_input(s);
  tensor::Tensor w = make_filter(s);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);

  tensor::Tensor reference = make_output(s);
  reference_forward(in, w, reference, s);
  for (int mesh : {2, 4, 8}) {
    sim::MeshExecutor exec(mesh_spec(mesh));
    tensor::Tensor out = make_output(s);
    run_batch_size_aware(exec, in, w, out, s, plan);
    EXPECT_LE(reference.max_abs_diff(out), 1e-11) << "mesh=" << mesh;
  }
}

}  // namespace
}  // namespace swdnn::conv
