#include "src/conv/swconv.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/conv/backward.h"
#include "src/conv/multigrain.h"

namespace swdnn::conv {

namespace {

bool executable_on_mesh(const ConvShape& shape, const perf::ConvPlan& plan,
                        int mesh_dim) {
  try {
    check_mesh_compatibility(shape, plan, mesh_dim);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// Runs `plan`'s mesh kernel over output rows [ro_begin, ro_end);
/// throws sim::LaunchFault after a launch that reports a fault it could
/// not absorb.
sim::LaunchStats run_plan(sim::MeshExecutor& exec, const perf::ConvPlan& plan,
                          const tensor::Tensor& input,
                          const tensor::Tensor& filter, tensor::Tensor& output,
                          const ConvShape& shape, std::int64_t ro_begin = 0,
                          std::int64_t ro_end = -1) {
  sim::LaunchStats stats;
  switch (plan.kind) {
    case perf::PlanKind::kImageSizeAware:
      stats = run_image_size_aware(exec, input, filter, output, shape, plan,
                                   ro_begin, ro_end);
      break;
    case perf::PlanKind::kBatchSizeAware:
      stats = run_batch_size_aware(exec, input, filter, output, shape, plan,
                                   ro_begin, ro_end);
      break;
    case perf::PlanKind::kFilterGrained:
      stats = run_filter_grained(exec, input, filter, output, shape, plan,
                                 ro_begin, ro_end);
      break;
  }
  if (stats.failed) {
    throw sim::LaunchFault(stats.failure, stats.persistent_fault);
  }
  return stats;
}

}  // namespace

sim::LaunchStats predict_launch(const ConvShape& shape,
                                const perf::ConvPlan& plan,
                                const arch::Sw26010Spec& spec,
                                std::int64_t ro_begin, std::int64_t ro_end) {
  if (plan.kind == perf::PlanKind::kFilterGrained) {
    return predict_filter_grained(shape, plan, spec, ro_begin, ro_end);
  }
  return predict_ldm_blocked(shape, plan, spec, ro_begin, ro_end);
}

SwConvolution::SwConvolution(const arch::Sw26010Spec& spec)
    : spec_(spec), chooser_(spec) {
  if (spec.mesh_rows <= 0 || spec.mesh_cols <= 0) {
    throw std::invalid_argument(
        "SwConvolution: mesh_rows and mesh_cols must be positive");
  }
}

sim::MeshExecutor& SwConvolution::shared_executor() const {
  if (exec_ == nullptr) {
    exec_ = std::make_unique<sim::MeshExecutor>(spec_);
  }
  exec_->set_fault_injector(injector_);
  exec_->set_retry_policy(retry_);
  exec_->set_tracer(tracer_);
  return *exec_;
}

perf::PlanCache::Builder SwConvolution::cache_builder() const {
  return [this](const ConvShape& s) {
    perf::CachedPlan entry;
    entry.ranked = chooser_.rank(s);
    for (std::size_t i = 0; i < entry.ranked.size(); ++i) {
      if (executable_on_mesh(s, entry.ranked[i].plan, spec_.mesh_rows)) {
        entry.executable.push_back(i);
      }
    }
    if (autotune_) {
      // Fastest predicted launch first, the model's order (ascending
      // index) breaking ties. The sort predicts per comparison instead
      // of filling a table: the host GEMM's speed depends on where its
      // per-call buffers land on the heap, and a table here once moved
      // them enough to slow the host-GEMM-bound train_hier workload
      // (DESIGN.md §15).
      const auto seconds = [&](std::size_t idx) {
        const perf::ConvPlan& plan = entry.ranked[idx].plan;
        return predict_launch(s, plan, spec_).modeled_seconds(
            plan.double_buffer);
      };
      std::sort(entry.executable.begin(), entry.executable.end(),
                [&seconds](std::size_t a, std::size_t b) {
                  const double ta = seconds(a);
                  const double tb = seconds(b);
                  return ta < tb || (ta == tb && a < b);
                });
    }
    return entry;
  };
}

perf::PlanCache::LookupResult SwConvolution::ranked_plans(
    const ConvShape& shape) const {
  return plan_cache_.lookup(shape, cache_builder());
}

perf::PlanCache::LookupResult SwConvolution::warm_plan(
    const ConvShape& shape) {
  return plan_cache_.warm(shape, cache_builder());
}

std::size_t SwConvolution::warm_plans(const std::vector<ConvShape>& shapes) {
  std::size_t built = 0;
  for (const ConvShape& shape : shapes) {
    if (!warm_plan(shape).hit) ++built;
  }
  return built;
}

perf::PlanChoice SwConvolution::plan_for(const ConvShape& shape,
                                         bool require_executable) const {
  const auto entry = ranked_plans(shape).entry;
  if (!require_executable) {
    if (entry->ranked.empty()) {
      throw std::runtime_error("no feasible plan for " + shape.to_string());
    }
    return entry->ranked.front();
  }
  if (!entry->has_executable()) {
    throw MeshMappingError("no mesh-executable plan for " +
                           shape.to_string());
  }
  return entry->best_executable();
}

void SwConvolution::set_autotune(bool enable) {
  if (autotune_.exchange(enable) != enable) plan_cache_.clear();
}

std::size_t SwConvolution::autotune_plan(const ConvShape& shape) {
  set_autotune(true);
  return warm_plans({shape, backward_data_shape(shape)});
}

perf::PerfEstimate SwConvolution::estimate(const ConvShape& shape) const {
  return plan_for(shape).estimate;
}

ForwardResult SwConvolution::forward(const tensor::Tensor& input,
                                     const tensor::Tensor& filter,
                                     tensor::Tensor& output,
                                     const ConvShape& shape,
                                     std::optional<perf::ConvPlan> plan) {
  perf::PlanChoice choice;
  if (plan.has_value()) {
    choice.plan = *plan;
    choice.estimate = chooser_.model().estimate(shape, *plan);
  } else {
    choice = plan_for(shape, /*require_executable=*/true);
  }
  return execute_choice(choice, input, filter, output, shape);
}

ForwardResult SwConvolution::execute_choice(const perf::PlanChoice& choice,
                                            const tensor::Tensor& input,
                                            const tensor::Tensor& filter,
                                            tensor::Tensor& output,
                                            const ConvShape& shape) {
  std::lock_guard<std::mutex> launch_lock(exec_mutex_);
  return ForwardResult{choice, run_plan(shared_executor(), choice.plan, input,
                                        filter, output, shape)};
}

sim::LaunchStats SwConvolution::backward_filter(const tensor::Tensor& input,
                                                const tensor::Tensor& d_output,
                                                tensor::Tensor& d_filter,
                                                const ConvShape& shape) {
  std::lock_guard<std::mutex> launch_lock(exec_mutex_);
  return mesh_backward_filter(shared_executor(), input, d_output, d_filter,
                              shape);
}

sim::MultiCgStats SwConvolution::forward_multi_cg(
    const tensor::Tensor& input, const tensor::Tensor& filter,
    tensor::Tensor& output, const ConvShape& shape, int num_cgs,
    std::optional<perf::ConvPlan> plan) {
  if (num_cgs < 1 || num_cgs > spec_.num_core_groups) {
    throw std::invalid_argument("forward_multi_cg: bad core-group count");
  }
  const perf::ConvPlan p =
      plan.has_value() ? *plan : plan_for(shape, true).plan;
  const auto parts = sim::partition_output_rows(shape.ro(), num_cgs);
  // Every link is polled before the first launch, so a severed one
  // leaves `output` untouched.
  for (int cg = 0; cg < num_cgs; ++cg) {
    if (injector_ != nullptr && injector_->poll_noc_link(cg)) {
      throw sim::LaunchFault(
          "NoC link to core group " + std::to_string(cg) + " is down",
          /*persistent=*/true);
    }
  }
  sim::MultiCgStats stats;
  stats.launch_overhead_seconds = 2e-6;
  std::lock_guard<std::mutex> launch_lock(exec_mutex_);
  sim::MeshExecutor& exec = shared_executor();
  for (const sim::RowPartition& part : parts) {
    stats.per_cg.push_back(run_plan(exec, p, input, filter, output, shape,
                                    part.begin, part.end));
  }
  return stats;
}

}  // namespace swdnn::conv
