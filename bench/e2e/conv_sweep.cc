// conv_sweep: the paper's own workload — API forward, backward-data and
// backward-filter over fixed shapes, with no graph, trainer or server.

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "src/api/swdnn_api.h"
#include "src/conv/reference.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace swdnn::e2e {
namespace {

/// Small members of the Fig 7/9 families, one per plan family the
/// chooser picks at this size: Algorithm 1 (img) and Algorithm 2
/// (batch) at 64 channels and B=32, filter-grained at B=8 (3x3 and
/// 5x5), and two FC-like 1x1 shapes (batch and pixel-grained). The
/// backward-data of the two B=32 3x3/1x1 shapes is where the sweep
/// spends most of its time.
std::vector<conv::ConvShape> sweep_shapes() {
  const auto shape = [](std::int64_t b, std::int64_t ni, std::int64_t no,
                        std::int64_t r, std::int64_t k) {
    conv::ConvShape s;
    s.batch = b;
    s.ni = ni;
    s.no = no;
    s.ri = r;
    s.ci = r;
    s.kr = k;
    s.kc = k;
    return s;
  };
  return {shape(32, 64, 64, 6, 3),  shape(32, 64, 64, 6, 1),
          shape(8, 64, 64, 10, 3),  shape(8, 32, 32, 10, 5),
          shape(32, 256, 64, 1, 1), shape(8, 700, 50, 1, 1)};
}

struct Case {
  conv::ConvShape shape;
  api::TensorDescriptor x_desc, y_desc;
  api::FilterDescriptor w_desc;
  tensor::Tensor x, w, dy;
  tensor::Tensor y, dx, dw;                // this pass's outputs
  tensor::Tensor ref_y, ref_dx, ref_dw;    // conv/reference outputs
  tensor::Tensor gold_y, gold_dx, gold_dw; // the warm-up pass's outputs
  api::ExecutionRoute route[3] = {};
};

/// Mesh forward and backward-data results must equal the reference bit
/// for bit. Host-routed results (im2col lowers K in another order) and
/// the mesh backward-filter (per-tap GEMMs summed tap by tap) must match
/// to a relative 1e-12.
bool matches_reference(const tensor::Tensor& got, const tensor::Tensor& ref,
                       api::ExecutionRoute route, bool bitwise_on_mesh) {
  if (route == api::ExecutionRoute::kSimulatedMesh && bitwise_on_mesh) {
    return same_bits(got, ref);
  }
  double scale = 0;
  for (double v : ref.data()) scale = std::max(scale, std::abs(v));
  return got.max_abs_diff(ref) <= 1e-12 * std::max(scale, 1.0);
}

/// One pass: fwd, bwd_data, bwd_filter per shape. Returns the number of
/// calls that did not return kSuccess.
int run_pass(api::Handle* h, std::vector<Case>& cases, SpanRecorder& rec,
             bool record_routes) {
  ScopedSpan pass(rec, "conv.pass");
  int failed = 0;
  for (Case& c : cases) {
    api::Status st;
    {
      ScopedSpan s(rec, "api.fwd");
      st = api::convolution_forward(h, c.x_desc, c.x.data().data(), c.w_desc,
                                    c.w.data().data(), c.y_desc,
                                    c.y.data().data());
    }
    if (record_routes) c.route[0] = api::last_execution_route(h);
    failed += st != api::Status::kSuccess;
    {
      ScopedSpan s(rec, "api.bwd_data");
      st = api::convolution_backward_data(h, c.w_desc, c.w.data().data(),
                                          c.y_desc, c.dy.data().data(),
                                          c.x_desc, c.dx.data().data());
    }
    if (record_routes) c.route[1] = api::last_execution_route(h);
    failed += st != api::Status::kSuccess;
    {
      ScopedSpan s(rec, "api.bwd_filter");
      st = api::convolution_backward_filter(h, c.x_desc, c.x.data().data(),
                                            c.y_desc, c.dy.data().data(),
                                            c.w_desc, c.dw.data().data());
    }
    if (record_routes) c.route[2] = api::last_execution_route(h);
    failed += st != api::Status::kSuccess;
  }
  return failed;
}

}  // namespace

Result run_conv_sweep(const Options& o) {
  Result r;
  util::Rng rng(o.seed);
  std::vector<Case> cases;
  for (const conv::ConvShape& s : sweep_shapes()) {
    Case c;
    c.shape = s;
    api::set_tensor4d_descriptor(c.x_desc, s.ri, s.ci, s.ni, s.batch);
    api::set_filter_descriptor(c.w_desc, s.kr, s.kc, s.ni, s.no);
    api::get_convolution_output_descriptor(c.x_desc, c.w_desc, c.y_desc);
    c.x = conv::make_input(s);
    c.w = conv::make_filter(s);
    c.dy = conv::make_output(s);
    rng.fill_uniform(c.x.data(), -1, 1);
    rng.fill_uniform(c.w.data(), -1, 1);
    rng.fill_uniform(c.dy.data(), -1, 1);
    c.y = conv::make_output(s);
    c.dx = conv::make_input(s);
    c.dw = conv::make_filter(s);
    c.ref_y = conv::make_output(s);
    c.ref_dx = conv::make_input(s);
    c.ref_dw = conv::make_filter(s);
    conv::reference_forward(c.x, c.w, c.ref_y, s);
    conv::reference_backward_data(c.dy, c.w, c.ref_dx, s);
    conv::reference_backward_filter(c.x, c.dy, c.ref_dw, s);
    cases.push_back(std::move(c));
  }

  // Set-up: a handle, plan warm-up with autotuning for every shape, and
  // one small launch, which creates the mesh worker pool.
  api::Handle* handle = nullptr;
  const auto teardown = [&] {
    if (handle != nullptr) api::destroy(handle);
    handle = nullptr;
  };
  r.metrics["setup_s"] = median_setup_seconds(o.smoke, teardown, [&] {
    api::create(&handle);
    api::set_autotune(handle, true);
    for (const Case& c : cases) {
      api::convolution_plan_warmup(handle, c.x_desc, c.w_desc);
    }
    Case& small = cases.back();
    api::convolution_forward(handle, small.x_desc, small.x.data().data(),
                             small.w_desc, small.w.data().data(),
                             small.y_desc, small.y.data().data());
  });

  // Warm-up pass, untimed: the outputs are checked against the
  // reference and kept as the golden copy every timed pass must repeat.
  SpanRecorder rec(o.workload);
  r.gate(run_pass(handle, cases, rec, /*record_routes=*/true) == 0,
         "warm-up pass: every call returned kSuccess");
  int mesh_calls = 0;
  for (Case& c : cases) {
    const std::string name = c.shape.to_string();
    r.gate(matches_reference(c.y, c.ref_y, c.route[0], true),
           "forward matches conv/reference: " + name);
    r.gate(matches_reference(c.dx, c.ref_dx, c.route[1], true),
           "backward-data matches conv/reference: " + name);
    r.gate(matches_reference(c.dw, c.ref_dw, c.route[2], false),
           "backward-filter matches conv/reference: " + name);
    for (api::ExecutionRoute route : c.route) {
      mesh_calls += route == api::ExecutionRoute::kSimulatedMesh;
    }
    c.gold_y = c.y;
    c.gold_dx = c.dx;
    c.gold_dw = c.dw;
  }
  r.info["conv.mesh_routed_calls_per_pass"] = mesh_calls;

  const auto timed_passes = [&](double seconds, std::vector<double>& ms) {
    const Clock::time_point start = Clock::now();
    bool repeat = true;
    while (o.smoke ? ms.empty() : seconds_since(start) < seconds) {
      rec.set_step(static_cast<std::int64_t>(ms.size()));
      const Clock::time_point t0 = Clock::now();
      const int failed = run_pass(handle, cases, rec, false);
      ms.push_back(seconds_since(t0) * 1e3);
      r.attempted += 3 * cases.size();
      r.failed += static_cast<std::uint64_t>(failed);
      for (const Case& c : cases) {
        repeat = repeat && same_bits(c.y, c.gold_y) &&
                 same_bits(c.dx, c.gold_dx) && same_bits(c.dw, c.gold_dw);
      }
    }
    r.gate(repeat, "every timed pass repeats the checked outputs bitwise");
  };

  std::vector<double> plain;
  const std::uint64_t allocs0 = tensor::allocation_count();
  timed_passes(o.trace ? o.seconds / 2 : o.seconds, plain);
  const double allocs = static_cast<double>(tensor::allocation_count() -
                                            allocs0);
  report_latency(plain, r);
  if (!o.trace) {
    api::destroy(handle);
    return r;
  }

  rec.set_enabled(true);
  std::vector<double> traced;
  timed_passes(o.seconds / 2, traced);
  rec.set_enabled(false);
  auto& m = r.metrics;
  const double pass_ms = rec.total_ms("conv.pass");
  for (const char* call : {"api.fwd", "api.bwd_data", "api.bwd_filter"}) {
    const double ms = rec.total_ms(call);
    r.info[std::string(call) + "_ms"] =
        ms / static_cast<double>(traced.size());
    m[std::string(call) + "_share"] = ms / pass_ms;
  }
  m["tensor.allocs_per_op"] =
      plain.empty() ? 0 : allocs / static_cast<double>(plain.size());
  api::PlanCacheCounters counters;
  api::plan_cache_counters(handle, &counters);
  m["api.plan_cache.hit_ratio"] = hit_ratio(counters);
  api::FaultCounters faults;
  api::fault_counters(handle, &faults);
  // Passes on this handle: the warm-up pass plus both timed phases.
  m["api.host_fallbacks_per_op"] =
      static_cast<double>(faults.host_fallbacks) /
      static_cast<double>(plain.size() + traced.size() + 1);
  api::destroy(handle);

  std::vector<Dispatch> dispatches;
  for (const Case& c : cases) {
    for (Pass p : {Pass::kForward, Pass::kBackwardData, Pass::kBackwardFilter})
      dispatches.push_back({c.shape, p, /*api=*/true, 1.0});
  }
  const double p50 = quantile(plain, 0.5);
  replay_layers(dispatches, p50, /*time_api=*/false, 1, r);
  report_trace(rec, o, "conv.pass", p50, quantile(traced, 0.5), r);
  return r;
}

}  // namespace swdnn::e2e
