// Concurrent dispatch through one shared handle: N worker threads
// issuing convolution_forward simultaneously must produce the same
// results as serial calls, with cache counters that add up; and N
// threads warming and dispatching on one tuning SwConvolution rank each
// key once. Run under -DSWDNN_SANITIZE=ON this is the handle's
// data-race regression test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/api/swdnn_api.h"
#include "src/conv/backward.h"
#include "src/conv/reference.h"
#include "src/conv/swconv.h"
#include "src/util/rng.h"

namespace swdnn::api {
namespace {

arch::Sw26010Spec mesh_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

struct Problem {
  explicit Problem(const conv::ConvShape& s, unsigned seed) : shape(s) {
    util::Rng rng(seed);
    input = conv::make_input(shape);
    filter = conv::make_filter(shape);
    rng.fill_uniform(input.data(), -1, 1);
    rng.fill_uniform(filter.data(), -1, 1);
    set_tensor4d_descriptor(x_desc, shape.ri, shape.ci, shape.ni,
                            shape.batch);
    set_filter_descriptor(w_desc, shape.kr, shape.kc, shape.ni, shape.no);
    set_tensor4d_descriptor(y_desc, shape.ro(), shape.co(), shape.no,
                            shape.batch);
    tensor::Tensor ref = conv::make_output(shape);
    conv::reference_forward(input, filter, ref, shape);
    golden.assign(ref.data().begin(), ref.data().end());
  }

  conv::ConvShape shape;
  tensor::Tensor input, filter;
  std::vector<double> golden;
  TensorDescriptor x_desc, y_desc;
  FilterDescriptor w_desc;
};

class ApiConcurrentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const arch::Sw26010Spec spec = mesh_spec(2);
    ASSERT_EQ(create(&handle_, &spec), Status::kSuccess);
    problems_.emplace_back(conv::ConvShape::from_output(4, 2, 2, 3, 4, 2, 2),
                           101);
    problems_.emplace_back(conv::ConvShape::from_output(4, 2, 2, 4, 4, 2, 2),
                           202);
    problems_.emplace_back(conv::ConvShape::from_output(8, 2, 2, 3, 3, 2, 2),
                           303);
  }
  void TearDown() override {
    EXPECT_EQ(destroy(handle_), Status::kSuccess);
  }

  Status forward_into(const Problem& p, std::vector<double>& y) {
    y.assign(static_cast<std::size_t>(p.shape.output_elements()), -1.0);
    return convolution_forward(handle_, p.x_desc, p.input.data().data(),
                               p.w_desc, p.filter.data().data(), p.y_desc,
                               y.data());
  }

  Handle* handle_ = nullptr;
  std::vector<Problem> problems_;
};

TEST_F(ApiConcurrentTest, WorkersSharingOneHandleMatchSerialResults) {
  constexpr int kThreads = 8;
  constexpr int kReps = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<double> y;
      for (int rep = 0; rep < kReps; ++rep) {
        const Problem& p = problems_[(t + rep) % problems_.size()];
        if (forward_into(p, y) != Status::kSuccess) {
          failures.fetch_add(1);
          continue;
        }
        for (std::size_t i = 0; i < p.golden.size(); ++i) {
          if (std::abs(y[i] - p.golden[i]) > 1e-10) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // The counters add up: one rank() per distinct shape, every other
  // dispatch a hit.
  PlanCacheCounters c;
  ASSERT_EQ(plan_cache_counters(handle_, &c), Status::kSuccess);
  EXPECT_EQ(c.misses, problems_.size());
  EXPECT_EQ(c.hits, kThreads * kReps - problems_.size());
  EXPECT_EQ(c.entries, problems_.size());
}

TEST_F(ApiConcurrentTest, ConcurrentQueriesDuringDispatchAreSafe) {
  // Readers hammer the query surface while writers dispatch: under
  // sanitizers this flushes out unguarded handle state.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    PlanCacheCounters c;
    FaultCounters fc;
    while (!stop.load()) {
      (void)last_execution_route(handle_);
      (void)last_plan_algo(handle_);
      (void)plan_cache_counters(handle_, &c);
      (void)fault_counters(handle_, &fc);
    }
  });
  constexpr int kThreads = 4;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      std::vector<double> y;
      for (int rep = 0; rep < 3; ++rep) {
        EXPECT_EQ(forward_into(problems_[(t + rep) % problems_.size()], y),
                  Status::kSuccess);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_NE(last_execution_route(handle_), ExecutionRoute::kNone);
}

TEST(TuningConcurrency, WarmAndDispatchRankEachKeyOnce) {
  // The builder reads the tuning flag under the cache mutex while other
  // threads set it again, as a Network::compile on a shared context
  // does. Every key is still ranked once, by whichever of warm-up or
  // dispatch meets it first, and every output matches a serial run bit
  // for bit.
  const arch::Sw26010Spec spec = mesh_spec(2);
  const std::vector<conv::ConvShape> shapes = {
      conv::ConvShape::from_output(4, 2, 2, 3, 4, 2, 2),
      conv::ConvShape::from_output(8, 2, 2, 3, 3, 2, 2),
      // The model ranks batch(bCo=1) first here; tuning dispatches
      // fgrain(bPx=0).
      conv::ConvShape::from_output(2, 4, 4, 2, 2, 3, 3),
  };
  std::vector<conv::ConvShape> keys;
  for (const conv::ConvShape& s : shapes) {
    for (const conv::ConvShape& key : {s, conv::backward_data_shape(s)}) {
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
        keys.push_back(key);
      }
    }
  }
  struct Outputs {
    std::vector<tensor::Tensor> y, dx;
  };
  const auto run = [&](conv::SwConvolution& sw, std::size_t first,
                       std::size_t* built) {
    Outputs out;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const conv::ConvShape& s = shapes[(first + i) % shapes.size()];
      util::Rng rng(17 + i);
      tensor::Tensor x = conv::make_input(s), w = conv::make_filter(s);
      tensor::Tensor dy = conv::make_output(s);
      rng.fill_uniform(x.data(), -1, 1);
      rng.fill_uniform(w.data(), -1, 1);
      rng.fill_uniform(dy.data(), -1, 1);
      sw.set_autotune(true);
      // Half the shapes are warmed before their dispatch, half after.
      const bool warm_first = (first + i) % 2 == 0;
      if (warm_first) *built += sw.warm_plans({s, conv::backward_data_shape(s)});
      out.y.push_back(conv::make_output(s));
      sw.forward(x, w, out.y.back(), s);
      out.dx.push_back(conv::make_input(s));
      conv::swconv_backward_data(sw, dy, w, out.dx.back(), s);
      if (!warm_first) {
        *built += sw.warm_plans({s, conv::backward_data_shape(s)});
      }
    }
    return out;
  };
  const auto same_bits = [](const tensor::Tensor& a, const tensor::Tensor& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data().data(), b.data().data(),
                       sizeof(double) * static_cast<std::size_t>(a.size())) ==
               0;
  };

  constexpr int kThreads = 4;
  conv::SwConvolution shared(spec);
  shared.set_autotune(true);
  std::vector<Outputs> outputs(kThreads);
  std::vector<std::size_t> built(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      outputs[t] = run(shared, static_cast<std::size_t>(t), &built[t]);
    });
  }
  for (auto& w : workers) w.join();

  std::size_t builds = shared.plan_cache_stats().misses;
  for (const std::size_t b : built) builds += b;
  EXPECT_EQ(builds, keys.size());
  EXPECT_EQ(shared.plan_cache_stats().entries, keys.size());

  for (int t = 0; t < kThreads; ++t) {
    conv::SwConvolution serial(spec);
    std::size_t unused = 0;
    const Outputs want = run(serial, static_cast<std::size_t>(t), &unused);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      EXPECT_TRUE(same_bits(outputs[t].y[i], want.y[i])) << t << " " << i;
      EXPECT_TRUE(same_bits(outputs[t].dx[i], want.dx[i])) << t << " " << i;
    }
  }
}

}  // namespace
}  // namespace swdnn::api
