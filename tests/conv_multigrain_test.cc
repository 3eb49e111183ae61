// The multigrain mapping family (the filter-grained mesh lowering,
// DESIGN.md §16): bitwise identity with the reference on the ragged /
// small-channel / large-filter shapes the incumbents cannot map, a mesh
// route for every small stride-1 shape, multi-CG partitioning, the
// backward paths that ride on the forward kernels, the refuse-to-map ->
// host fallback, and a tuning object's ranking by predicted simulated
// time.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/api/swdnn_api.h"
#include "src/conv/backward.h"
#include "src/conv/im2col.h"
#include "src/conv/multigrain.h"
#include "src/conv/reference.h"
#include "src/conv/swconv.h"
#include "src/util/rng.h"

namespace swdnn::conv {
namespace {

struct Problem {
  tensor::Tensor in, w, reference;
  explicit Problem(const ConvShape& shape, unsigned seed = 99)
      : in(make_input(shape)), w(make_filter(shape)),
        reference(make_output(shape)) {
    util::Rng rng(seed);
    rng.fill_uniform(in.data(), -1, 1);
    rng.fill_uniform(w.data(), -1, 1);
    reference_forward(in, w, reference, shape);
  }
};

// Ragged, small-channel, and large-filter shapes: none of them divide
// an 8x8 mesh the way the paper's blocked mappings demand.
const ConvShape kRaggedShapes[] = {
    ConvShape::from_output(8, 32, 32, 6, 6, 3, 3),    // tiny image
    ConvShape::from_output(3, 5, 7, 4, 6, 3, 3),      // everything ragged
    ConvShape::from_output(2, 3, 8, 5, 5, 2, 2),      // tiny channels
    ConvShape::from_output(4, 8, 16, 4, 4, 7, 7),     // filter ~ image
    ConvShape::from_output(1, 16, 8, 3, 3, 5, 5),     // single sample
};

TEST(Multigrain, FilterGrainedBitwiseAcrossRaggedShapes) {
  sim::MeshExecutor exec;  // full 8x8 mesh
  for (const ConvShape& shape : kRaggedShapes) {
    SCOPED_TRACE(shape.to_string());
    perf::ConvPlan plan;
    plan.kind = perf::PlanKind::kFilterGrained;
    ASSERT_TRUE(perf::plan_feasible(shape, plan, exec.spec()));
    Problem p(shape);
    tensor::Tensor out = make_output(shape);
    const sim::LaunchStats stats =
        run_filter_grained(exec, p.in, p.w, out, shape, plan);
    EXPECT_FALSE(stats.failed);
    // Bitwise, not close: the mapping accumulates in the reference
    // loop's (kr, kc, ni) order.
    EXPECT_EQ(p.reference.max_abs_diff(out), 0.0);
  }
}

TEST(Multigrain, EveryStrideOneSmallShapeHasAMeshRoute) {
  // No small stride-1 shape falls to the host GEMM: over a grid of
  // batch, channel, image and filter sizes, on every mesh the tests
  // use, the ranking keeps at least one mesh-executable plan.
  int pairs = 0;
  for (int mesh : {2, 4, 8}) {
    arch::Sw26010Spec spec = arch::default_spec();
    spec.mesh_rows = mesh;
    spec.mesh_cols = mesh;
    SwConvolution sw(spec);
    for (std::int64_t b : {1, 2, 4, 8, 16, 32}) {
      for (std::int64_t ni : {1, 3, 7, 16, 32, 64, 200}) {
        for (std::int64_t no : {1, 5, 16, 32, 64}) {
          for (std::int64_t r : {1, 2, 3, 6, 10}) {
            for (std::int64_t k : {1, 3, 5}) {
              if (k > r) continue;
              const ConvShape shape =
                  ConvShape::from_output(b, ni, no, r - k + 1, r - k + 1, k, k);
              EXPECT_TRUE(sw.ranked_plans(shape).entry->has_executable())
                  << "mesh " << mesh << "x" << mesh << ": "
                  << shape.to_string();
              ++pairs;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(pairs, 3 * 2100);
}

TEST(Multigrain, MultiCgRowPartitionsStayBitwise) {
  // The chooser picks filter-grained here; splitting output rows
  // across 4 CGs must not perturb a single bit.
  const ConvShape shape = ConvShape::from_output(8, 32, 32, 6, 6, 3, 3);
  SwConvolution sw;
  ASSERT_EQ(sw.plan_for(shape).plan.kind, perf::PlanKind::kFilterGrained);
  Problem p(shape);
  tensor::Tensor out = make_output(shape);
  const sim::MultiCgStats stats = sw.forward_multi_cg(p.in, p.w, out, shape, 4);
  EXPECT_EQ(stats.per_cg.size(), 4u);
  EXPECT_EQ(p.reference.max_abs_diff(out), 0.0);
}

TEST(Multigrain, BackwardDataRunsOnTheMultigrainRoute) {
  // backward-data is a forward convolution on transformed tensors; on
  // a ragged shape its transformed twin is mesh-executable only via
  // the multigrain family. The GEMM-lowered host gradient is the
  // oracle (itself checked against the reference loops elsewhere).
  const ConvShape shape = ConvShape::from_output(8, 32, 32, 6, 6, 3, 3);
  const ConvShape bwd = backward_data_shape(shape);
  SwConvolution sw;
  ASSERT_TRUE(perf::plan_kind_is_multigrain(sw.plan_for(bwd).plan.kind));

  util::Rng rng(7);
  tensor::Tensor in = make_input(shape), w = make_filter(shape);
  tensor::Tensor d_out = make_output(shape);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  rng.fill_uniform(d_out.data(), -1, 1);

  tensor::Tensor expected = make_input(shape);
  im2col_backward_data(d_out, w, expected, shape);

  tensor::Tensor d_in = make_input(shape);
  const ForwardResult result = swconv_backward_data(sw, d_out, w, d_in, shape);
  EXPECT_TRUE(perf::plan_kind_is_multigrain(result.choice.plan.kind));
  EXPECT_LE(expected.max_abs_diff(d_in), 1e-11);
}

TEST(Multigrain, BackwardFilterMatchesTheHostGradient) {
  const ConvShape shape = ConvShape::from_output(3, 5, 7, 4, 6, 3, 3);
  util::Rng rng(8);
  tensor::Tensor in = make_input(shape), d_out = make_output(shape);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(d_out.data(), -1, 1);

  tensor::Tensor expected = make_filter(shape);
  im2col_backward_filter(in, d_out, expected, shape);

  sim::MeshExecutor exec;
  tensor::Tensor d_w = make_filter(shape);
  mesh_backward_filter(exec, in, d_out, d_w, shape);
  EXPECT_LE(expected.max_abs_diff(d_w), 1e-11);
}

TEST(Multigrain, RefuseToMapThrowsForTheHostLadder) {
  // Ni=3 blocks every channel-blocked plan and No=4096 overflows the
  // multigrain tile sets on a 2x2 mesh (per-CPE output-channel share =
  // 2048 doubles before any input or filter tile): nothing is
  // mesh-executable, and the facade must say so (the API layer catches
  // this and takes the host route).
  const ConvShape unmappable = ConvShape::from_output(2, 3, 4096, 3, 3, 2, 2);
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = 2;
  spec.mesh_cols = 2;
  SwConvolution sw(spec);
  const auto lookup = sw.ranked_plans(unmappable);
  EXPECT_TRUE(lookup.entry->executable.empty());
  EXPECT_THROW(sw.plan_for(unmappable, /*require_executable=*/true),
               MeshMappingError);
}

// conv_sweep's img/batch shape and its 1x1 twin: both families map
// them, and on the 1x1 shape the batch plans' launches tie whatever
// their column block.
const ConvShape kSweepShapes[] = {
    ConvShape::from_output(32, 64, 64, 4, 4, 3, 3),
    ConvShape::from_output(32, 64, 64, 6, 6, 1, 1),
};

double predicted_seconds(const ConvShape& key, const perf::ConvPlan& plan) {
  return predict_launch(key, plan, arch::default_spec())
      .modeled_seconds(plan.double_buffer);
}

/// The API descriptors of `shape`: input, filter and output.
struct Descriptors {
  explicit Descriptors(const ConvShape& shape) {
    api::set_tensor4d_descriptor(x, shape.ri, shape.ci, shape.ni,
                                 shape.batch);
    api::set_filter_descriptor(w, shape.kr, shape.kc, shape.ni, shape.no);
    api::get_convolution_output_descriptor(x, w, y);
  }
  api::TensorDescriptor x, y;
  api::FilterDescriptor w;
};

// conv_sweep's backward-data key: the model ranks batch(bCo=1) first,
// and fgrain(bPx=0) has the lowest predicted launch time (380 against
// 7,691 kcycles).
const ConvShape kSweepBackwardKey = backward_data_shape(kSweepShapes[0]);

/// The mesh-executable plan of `key` with the lowest predicted launch
/// time, the model's order breaking ties, found without a tuning
/// object.
std::string predicted_fastest(const ConvShape& key) {
  const SwConvolution model;
  const perf::CachedPlan& entry = *model.ranked_plans(key).entry;
  std::string best;
  double best_seconds = 0;
  for (const std::size_t idx : entry.executable) {
    const double t = predicted_seconds(key, entry.ranked[idx].plan);
    if (best.empty() || t < best_seconds) {
      best = entry.ranked[idx].plan.to_string();
      best_seconds = t;
    }
  }
  return best;
}

TEST(Multigrain, AutotuneDispatchesThePredictedFastestPlan) {
  for (const ConvShape& shape : kSweepShapes) {
    SwConvolution sw;
    sw.autotune_plan(shape);
    for (const ConvShape& key : {shape, backward_data_shape(shape)}) {
      const perf::CachedPlan& entry = *sw.ranked_plans(key).entry;
      ASSERT_GE(entry.executable.size(), 2u) << key.to_string();
      // Fastest first; equal predictions keep the model's order.
      for (std::size_t e = 1; e < entry.executable.size(); ++e) {
        const std::size_t prev = entry.executable[e - 1];
        const std::size_t cur = entry.executable[e];
        const double t_prev = predicted_seconds(key, entry.ranked[prev].plan);
        const double t_cur = predicted_seconds(key, entry.ranked[cur].plan);
        EXPECT_LE(t_prev, t_cur) << key.to_string() << " entry " << e;
        if (t_prev == t_cur) {
          EXPECT_LT(prev, cur) << key.to_string() << " entry " << e;
        }
      }
      EXPECT_EQ(sw.plan_for(key, true).plan.to_string(),
                entry.best_executable().plan.to_string());
    }
  }
}

TEST(Multigrain, AutotuneTunesBothKeysOnce) {
  const ConvShape shape = ConvShape::from_output(8, 32, 32, 6, 6, 3, 3);
  const ConvShape backward = backward_data_shape(shape);
  SwConvolution sw;
  // One call turns tuning on and builds both keys.
  EXPECT_EQ(sw.autotune_plan(shape), 2u);
  // Repeats build nothing; the backward key met later as a forward key
  // builds only its own backward-data key.
  EXPECT_EQ(sw.autotune_plan(shape), 0u);
  EXPECT_EQ(sw.autotune_plan(backward), 1u);
  // Warming is counter-neutral at the plan cache.
  EXPECT_EQ(sw.plan_cache_stats().hits, 0u);
  EXPECT_EQ(sw.plan_cache_stats().misses, 0u);
  EXPECT_EQ(sw.plan_cache_stats().entries, 3u);
  // Tuning is on for keys met later at dispatch too.
  EXPECT_EQ(sw.plan_for(kSweepBackwardKey, true).plan.to_string(),
            "fgrain(bPx=0)");

  // A 1x1 shape with Ni == No is its own backward-data key: one entry.
  const ConvShape own_twin = ConvShape::from_output(8, 16, 16, 4, 4, 1, 1);
  ASSERT_EQ(backward_data_shape(own_twin), own_twin);
  EXPECT_EQ(sw.autotune_plan(own_twin), 1u);
}

TEST(Multigrain, TuningRanksAKeyFirstMetAtDispatch) {
  ASSERT_EQ(predicted_fastest(kSweepBackwardKey), "fgrain(bPx=0)");
  SwConvolution model;
  EXPECT_EQ(model.plan_for(kSweepBackwardKey, true).plan.to_string(),
            "batch(bCo=1)");
  // No warm-up: the dispatch's own lookup builds the entry.
  SwConvolution tuned;
  tuned.set_autotune(true);
  EXPECT_EQ(tuned.plan_for(kSweepBackwardKey, true).plan.to_string(),
            "fgrain(bPx=0)");

  // Through the API: a tuning handle's first backward-data call of the
  // shape runs the filter-grained plan.
  const ConvShape& shape = kSweepShapes[0];
  Problem p(shape);
  tensor::Tensor d_out = make_output(shape);
  util::Rng(7).fill_uniform(d_out.data(), -1, 1);
  tensor::Tensor expected = make_input(shape);
  reference_backward_data(d_out, p.w, expected, shape);
  api::Handle* handle = nullptr;
  ASSERT_EQ(api::create(&handle), api::Status::kSuccess);
  ASSERT_EQ(api::set_autotune(handle, true), api::Status::kSuccess);
  const Descriptors d(shape);
  tensor::Tensor d_in = make_input(shape);
  ASSERT_EQ(api::convolution_backward_data(handle, d.w, p.w.data().data(),
                                           d.y, d_out.data().data(), d.x,
                                           d_in.data().data()),
            api::Status::kSuccess);
  EXPECT_EQ(api::last_plan_algo(handle), api::PlanAlgo::kFilterGrained);
  EXPECT_LE(expected.max_abs_diff(d_in), 1e-11);
  EXPECT_EQ(api::destroy(handle), api::Status::kSuccess);
}

TEST(Multigrain, AnEvictedTunedKeyIsRebuiltInPredictedOrder) {
  SwConvolution sw;
  sw.autotune_plan(kSweepShapes[0]);
  ASSERT_EQ(sw.plan_for(kSweepBackwardKey, true).plan.to_string(),
            "fgrain(bPx=0)");
  // Dispatch lookups of more small FC-like shapes than the cache holds
  // evict both tuned keys.
  std::size_t others = 0;
  for (std::int64_t ni = 1; others < perf::PlanCache::kDefaultCapacity + 2;
       ++ni) {
    for (std::int64_t no = 1; no <= 40; ++no, ++others) {
      sw.ranked_plans(ConvShape::from_output(1, ni, no, 1, 1, 1, 1));
    }
  }
  ASSERT_GE(sw.plan_cache_stats().evictions, 2u);
  // The next dispatch rebuilds the key, still in predicted order.
  const perf::PlanCache::LookupResult rebuilt =
      sw.ranked_plans(kSweepBackwardKey);
  EXPECT_FALSE(rebuilt.hit);
  EXPECT_EQ(rebuilt.entry->best_executable().plan.to_string(),
            "fgrain(bPx=0)");
  // And tuning the shape again keeps it so.
  sw.autotune_plan(kSweepShapes[0]);
  EXPECT_EQ(sw.plan_for(kSweepBackwardKey, true).plan.to_string(),
            "fgrain(bPx=0)");
}

TEST(Multigrain, TurningTuningOnReordersCachedEntries) {
  SwConvolution sw;
  EXPECT_EQ(sw.plan_for(kSweepBackwardKey, true).plan.to_string(),
            "batch(bCo=1)");
  sw.set_autotune(true);
  EXPECT_EQ(sw.plan_for(kSweepBackwardKey, true).plan.to_string(),
            "fgrain(bPx=0)");
  sw.set_autotune(false);
  EXPECT_EQ(sw.plan_for(kSweepBackwardKey, true).plan.to_string(),
            "batch(bCo=1)");

  // Through the API, on a shape small enough to launch both plans: a
  // handle that has dispatched in the model's order dispatches the
  // predicted fastest plan once it tunes, with the same output bits.
  // On the 2x2 mesh the model ranks batch(bCo=1) first.
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = 2;
  spec.mesh_cols = 2;
  const ConvShape shape = ConvShape::from_output(2, 4, 4, 2, 2, 3, 3);
  Problem p(shape);
  api::Handle* handle = nullptr;
  ASSERT_EQ(api::create(&handle, &spec), api::Status::kSuccess);
  const Descriptors d(shape);
  const auto forward = [&] {
    tensor::Tensor y = make_output(shape);
    EXPECT_EQ(api::convolution_forward(handle, d.x, p.in.data().data(), d.w,
                                       p.w.data().data(), d.y,
                                       y.data().data()),
              api::Status::kSuccess);
    EXPECT_EQ(p.reference.max_abs_diff(y), 0.0);
    return api::last_plan_algo(handle);
  };
  EXPECT_EQ(forward(), api::PlanAlgo::kBatchSizeAware);
  ASSERT_EQ(api::set_autotune(handle, true), api::Status::kSuccess);
  EXPECT_EQ(forward(), api::PlanAlgo::kFilterGrained);
  EXPECT_EQ(api::destroy(handle), api::Status::kSuccess);
}

TEST(Multigrain, AutotuneKeepsTheRankingAndTheUntunedOrder) {
  const ConvShape shape = kSweepShapes[0];
  SwConvolution tuned;
  SwConvolution untuned;
  tuned.autotune_plan(shape);
  for (const ConvShape& key : {shape, backward_data_shape(shape)}) {
    const perf::CachedPlan& t = *tuned.ranked_plans(key).entry;
    const perf::CachedPlan& u = *untuned.ranked_plans(key).entry;
    // `ranked` keeps the model's order entry for entry.
    ASSERT_EQ(t.ranked.size(), u.ranked.size());
    for (std::size_t i = 0; i < t.ranked.size(); ++i) {
      EXPECT_EQ(t.ranked[i].plan.kind, u.ranked[i].plan.kind) << i;
      EXPECT_EQ(t.ranked[i].plan.block_b, u.ranked[i].plan.block_b) << i;
      EXPECT_EQ(t.ranked[i].plan.block_co, u.ranked[i].plan.block_co) << i;
      EXPECT_EQ(t.ranked[i].plan.block_px, u.ranked[i].plan.block_px) << i;
    }
    // Only the tuned executable list moved; the untuned one is in
    // model order.
    EXPECT_TRUE(std::is_permutation(t.executable.begin(), t.executable.end(),
                                    u.executable.begin(),
                                    u.executable.end()));
    EXPECT_TRUE(std::is_sorted(u.executable.begin(), u.executable.end()));
    EXPECT_EQ(untuned.plan_for(key, true).plan.to_string(),
              u.ranked[u.executable.front()].plan.to_string());
  }
}

}  // namespace
}  // namespace swdnn::conv
