// Plan-cached dispatch through the handle API: rank-once memoization
// observable via the cache counters, the chosen-plan query, "plan_cache"
// trace events, the recorded (never silent) host fallback for shapes
// with no mesh mapping, and the ranked-fallback rescue after a fault.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/api/swdnn_api.h"
#include "src/conv/reference.h"
#include "src/sim/trace.h"
#include "src/util/rng.h"

namespace swdnn::api {
namespace {

arch::Sw26010Spec mesh_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

/// A mesh-compatible problem on the 2x2 test mesh (batch plans with
/// bCo in {4, 2, 1} are executable, so ranked fallbacks exist).
struct Problem {
  explicit Problem(const conv::ConvShape& s) : shape(s) {
    util::Rng rng(911);
    input = conv::make_input(shape);
    filter = conv::make_filter(shape);
    rng.fill_uniform(input.data(), -1, 1);
    rng.fill_uniform(filter.data(), -1, 1);
    set_tensor4d_descriptor(x_desc, shape.ri, shape.ci, shape.ni,
                            shape.batch);
    set_filter_descriptor(w_desc, shape.kr, shape.kc, shape.ni, shape.no);
    set_tensor4d_descriptor(y_desc, shape.ro(), shape.co(), shape.no,
                            shape.batch);
  }
  Problem() : Problem(conv::ConvShape::from_output(4, 2, 2, 3, 4, 2, 2)) {}

  std::vector<double> expected() const {
    tensor::Tensor ref = conv::make_output(shape);
    conv::reference_forward(input, filter, ref, shape);
    return {ref.data().begin(), ref.data().end()};
  }

  conv::ConvShape shape;
  tensor::Tensor input, filter;
  TensorDescriptor x_desc, y_desc;
  FilterDescriptor w_desc;
};

class ApiPlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const arch::Sw26010Spec spec = mesh_spec(2);
    ASSERT_EQ(create(&handle_, &spec), Status::kSuccess);
  }
  void TearDown() override {
    EXPECT_EQ(destroy(handle_), Status::kSuccess);
  }

  std::vector<double> forward(const Problem& p,
                              Status expected = Status::kSuccess) {
    std::vector<double> y(
        static_cast<std::size_t>(p.shape.output_elements()));
    EXPECT_EQ(convolution_forward(handle_, p.x_desc, p.input.data().data(),
                                  p.w_desc, p.filter.data().data(), p.y_desc,
                                  y.data()),
              expected);
    return y;
  }

  PlanCacheCounters counters() {
    PlanCacheCounters c;
    EXPECT_EQ(plan_cache_counters(handle_, &c), Status::kSuccess);
    return c;
  }

  Handle* handle_ = nullptr;
};

TEST_F(ApiPlanCacheTest, RepeatedShapeRanksExactlyOnce) {
  // The acceptance criterion: N same-shape calls on one handle invoke
  // PlanChooser::rank once — every later call is a cache hit.
  const Problem p;
  const std::vector<double> expected = p.expected();
  for (int call = 0; call < 5; ++call) {
    const std::vector<double> y = forward(p);
    EXPECT_EQ(last_execution_route(handle_), ExecutionRoute::kSimulatedMesh);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_NEAR(y[i], expected[i], 1e-10);
    }
  }
  const PlanCacheCounters c = counters();
  EXPECT_EQ(c.misses, 1u);  // rank() ran once
  EXPECT_EQ(c.hits, 4u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(c.evictions, 0u);
}

TEST_F(ApiPlanCacheTest, DistinctShapesMissSeparately) {
  const Problem a;
  const Problem b(conv::ConvShape::from_output(4, 2, 2, 4, 4, 2, 2));
  forward(a);
  forward(b);
  forward(a);
  forward(b);
  const PlanCacheCounters c = counters();
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.entries, 2u);
}

TEST_F(ApiPlanCacheTest, LastPlanAlgoReportsTheCachedChoice) {
  EXPECT_EQ(last_plan_algo(handle_), PlanAlgo::kNone);  // nothing ran yet
  const Problem p;
  forward(p);
  // On the 2x2 mesh the channel-blocked incumbents leave only
  // Algorithm 2 executable (the image plan's bB grid starts far above
  // batch=4), and at this tiny No the filter-grained lowering models
  // ahead of it — the multigrain small-output regime.
  EXPECT_EQ(last_plan_algo(handle_), PlanAlgo::kFilterGrained);
  EXPECT_STREQ(plan_algo_name(last_plan_algo(handle_)), "filter-grained");
}

TEST_F(ApiPlanCacheTest, MeshBackwardFilterReportsNoPlan) {
  // Backward-filter runs per-tap GEMMs, no cached plan: a mesh-routed
  // call must not leave the previous forward's plan in last_plan_algo.
  const Problem p;
  forward(p);
  ASSERT_EQ(last_plan_algo(handle_), PlanAlgo::kFilterGrained);

  std::vector<double> dy(static_cast<std::size_t>(p.shape.output_elements()),
                         1.0);
  std::vector<double> dw(static_cast<std::size_t>(p.filter.size()));
  ASSERT_EQ(convolution_backward_filter(handle_, p.x_desc,
                                        p.input.data().data(), p.y_desc,
                                        dy.data(), p.w_desc, dw.data()),
            Status::kSuccess);
  EXPECT_EQ(last_execution_route(handle_), ExecutionRoute::kSimulatedMesh);
  EXPECT_EQ(last_plan_algo(handle_), PlanAlgo::kNone);
}

TEST_F(ApiPlanCacheTest, TracerSeesMissThenHit) {
  sim::EventTracer tracer;
  ASSERT_EQ(set_event_tracer(handle_, &tracer), Status::kSuccess);
  const Problem p;
  forward(p);
  forward(p);
  std::vector<std::string> dispatch;
  for (const auto& e : tracer.events()) {
    if (e.category == "plan_cache") dispatch.push_back(e.name);
  }
  ASSERT_EQ(dispatch.size(), 2u);
  EXPECT_EQ(dispatch[0], "miss");
  EXPECT_EQ(dispatch[1], "hit");
  // The attached tracer also captured the mesh launches themselves.
  bool saw_dma = false;
  for (const auto& e : tracer.events()) saw_dma |= (e.category == "dma");
  EXPECT_TRUE(saw_dma);

  // Detach: dispatch becomes invisible again.
  ASSERT_EQ(set_event_tracer(handle_, nullptr), Status::kSuccess);
  tracer.clear();
  forward(p);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST_F(ApiPlanCacheTest, UnmappableShapeFallsBackWithRecordedReason) {
  // Ni=3 cannot distribute over the 2-wide mesh and No=4096 overflows
  // every multigrain tile set: the host GEMM is the designed route, but
  // the reroute must be counted and diagnosable — the silent-masking
  // regression.
  const Problem p(conv::ConvShape::from_output(2, 3, 4096, 3, 3, 2, 2));
  sim::EventTracer tracer;
  ASSERT_EQ(set_event_tracer(handle_, &tracer), Status::kSuccess);
  const std::vector<double> y = forward(p);
  EXPECT_EQ(last_execution_route(handle_), ExecutionRoute::kHostGemm);
  EXPECT_EQ(last_plan_algo(handle_), PlanAlgo::kNone);
  EXPECT_NE(std::string(last_error_message(handle_)).find("host GEMM"),
            std::string::npos);

  FaultCounters fc;
  ASSERT_EQ(fault_counters(handle_, &fc), Status::kSuccess);
  EXPECT_EQ(fc.host_fallbacks, 1u);

  bool traced_fallback = false;
  for (const auto& e : tracer.events()) {
    traced_fallback |= (e.category == "plan_cache" && e.name ==
                        "host_fallback");
  }
  EXPECT_TRUE(traced_fallback);

  // And the result is still the right convolution.
  const std::vector<double> expected = p.expected();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(y[i], expected[i], 1e-10);
  }
}

TEST_F(ApiPlanCacheTest, RankedFallbackPlanRescuesAFaultedWinner) {
  // One fault budget per CPE and a no-retry policy: the cached winner's
  // launch faults, consuming the budget, and the next ranked plan (a
  // different LDM blocking) completes on the mesh — the degradation
  // ladder's middle rung, short of the host.
  const Problem p;
  sim::FaultPlan plan;
  plan.fail_first_dma = 1;
  ASSERT_EQ(set_fault_plan(handle_, &plan), Status::kSuccess);
  ASSERT_EQ(set_retry_policy(handle_, 1, 0), Status::kSuccess);

  sim::EventTracer tracer;
  ASSERT_EQ(set_event_tracer(handle_, &tracer), Status::kSuccess);
  const std::vector<double> y = forward(p);
  EXPECT_EQ(last_execution_route(handle_), ExecutionRoute::kSimulatedMesh);
  EXPECT_STRNE(last_error_message(handle_), "");  // rescue is recorded

  FaultCounters fc;
  ASSERT_EQ(fault_counters(handle_, &fc), Status::kSuccess);
  EXPECT_EQ(fc.plan_fallbacks, 1u);
  EXPECT_EQ(fc.host_fallbacks, 0u);

  bool traced_plan_fallback = false;
  for (const auto& e : tracer.events()) {
    traced_plan_fallback |= (e.category == "plan_cache" && e.name ==
                             "plan_fallback");
  }
  EXPECT_TRUE(traced_plan_fallback);

  const std::vector<double> expected = p.expected();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(y[i], expected[i], 1e-10);
  }
}

TEST_F(ApiPlanCacheTest, CacheSurvivesFaultPlanChanges) {
  // set_fault_plan resets the fault counters but not the plan cache:
  // plans depend on the shape and the machine, not on the campaign.
  const Problem p;
  forward(p);
  sim::FaultPlan plan;  // benign empty plan
  ASSERT_EQ(set_fault_plan(handle_, &plan), Status::kSuccess);
  forward(p);
  const PlanCacheCounters c = counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 1u);
}

TEST_F(ApiPlanCacheTest, ObservabilityArgumentsAreValidated) {
  PlanCacheCounters c;
  EXPECT_EQ(plan_cache_counters(nullptr, &c), Status::kBadParam);
  EXPECT_EQ(plan_cache_counters(handle_, nullptr), Status::kBadParam);
  EXPECT_EQ(set_event_tracer(nullptr, nullptr), Status::kBadParam);
  EXPECT_EQ(last_plan_algo(nullptr), PlanAlgo::kNone);
}

/// Warms conv_sweep's Conv(B=32, 64->64, in=6x6, 3x3) on the 8x8 mesh
/// and returns the names of the warm-up's "plan" instants.
std::vector<std::string> warmup_plan_instants(bool tune) {
  Handle* handle = nullptr;
  EXPECT_EQ(create(&handle), Status::kSuccess);
  sim::EventTracer tracer;
  EXPECT_EQ(set_event_tracer(handle, &tracer), Status::kSuccess);
  EXPECT_EQ(set_autotune(handle, tune), Status::kSuccess);
  TensorDescriptor x_desc;
  FilterDescriptor w_desc;
  EXPECT_EQ(set_tensor4d_descriptor(x_desc, 6, 6, 64, 32), Status::kSuccess);
  EXPECT_EQ(set_filter_descriptor(w_desc, 3, 3, 64, 64), Status::kSuccess);
  EXPECT_EQ(convolution_plan_warmup(handle, x_desc, w_desc),
            Status::kSuccess);
  std::vector<std::string> planned;
  for (const auto& e : tracer.events()) {
    if (e.category == "plan") planned.push_back(e.name);
  }
  EXPECT_EQ(destroy(handle), Status::kSuccess);
  return planned;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

TEST(ApiAutotune, TraceNamesThePlanEachKeyDispatches) {
  // The model ranks batch(bCo=1) first for the backward-data key, but
  // a tuning handle dispatches fgrain(bPx=0), the predicted fastest
  // launch, for both keys. The per-key instant names the dispatched
  // plan, not the model's.
  const std::vector<std::string> planned = warmup_plan_instants(true);
  // One instant per key: forward, then backward-data.
  ASSERT_EQ(planned.size(), 2u);
  EXPECT_NE(planned[0].find("in=6x6"), std::string::npos) << planned[0];
  EXPECT_NE(planned[1].find("in=8x8"), std::string::npos) << planned[1];
  for (const std::string& name : planned) {
    EXPECT_TRUE(ends_with(name, " plan=fgrain(bPx=0)")) << name;
  }
}

TEST(ApiAutotune, TraceNamesTheModelPlanOnAHandleThatDoesNotTune) {
  const std::vector<std::string> planned = warmup_plan_instants(false);
  ASSERT_EQ(planned.size(), 2u);
  EXPECT_TRUE(ends_with(planned[0], " plan=img(bB=32,bCo=4)")) << planned[0];
  EXPECT_TRUE(ends_with(planned[1], " plan=batch(bCo=1)")) << planned[1];
}

TEST_F(ApiPlanCacheTest, WarmupTraceNamesTheHostRouteForAnUnmappableShape) {
  // Ni=3 and No=4096 leave no mesh-executable plan on the 2x2 mesh.
  const Problem p(conv::ConvShape::from_output(2, 3, 4096, 3, 3, 2, 2));
  sim::EventTracer tracer;
  ASSERT_EQ(set_event_tracer(handle_, &tracer), Status::kSuccess);
  ASSERT_EQ(convolution_plan_warmup(handle_, p.x_desc, p.w_desc),
            Status::kSuccess);
  std::vector<std::string> planned;
  for (const auto& e : tracer.events()) {
    if (e.category == "plan") planned.push_back(e.name);
  }
  ASSERT_EQ(planned.size(), 2u);
  EXPECT_TRUE(ends_with(planned[0], " plan=host")) << planned[0];
}

TEST(PlanAlgoNames, AreDistinctAndStable) {
  EXPECT_STREQ(plan_algo_name(PlanAlgo::kNone), "none");
  EXPECT_STREQ(plan_algo_name(PlanAlgo::kDirect), "direct");
  EXPECT_STREQ(plan_algo_name(PlanAlgo::kImageSizeAware),
               "image-size-aware");
  EXPECT_STREQ(plan_algo_name(PlanAlgo::kBatchSizeAware),
               "batch-size-aware");
}

}  // namespace
}  // namespace swdnn::api
