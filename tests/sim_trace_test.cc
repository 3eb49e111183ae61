// The simulator's event tracer: recording, Chrome JSON export, and
// integration with real kernel launches.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/conv/ldm_blocked.h"
#include "src/conv/reference.h"
#include "src/sim/trace.h"
#include "src/util/rng.h"

namespace swdnn::sim {
namespace {

arch::Sw26010Spec mesh_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

TEST(Tracer, RecordsEvents) {
  EventTracer tracer;
  tracer.record(3, "dma", "get 256B", 100, 150);
  tracer.record(0, "sync", "barrier", 200, 201);
  ASSERT_EQ(tracer.size(), 2u);
  const auto events = tracer.events();
  EXPECT_EQ(events[0].cpe, 3);
  EXPECT_EQ(events[0].category, "dma");
  EXPECT_EQ(events[0].end_cycle - events[0].begin_cycle, 50u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(Tracer, ChromeJsonShape) {
  EventTracer tracer;
  tracer.record(1, "dma", "get 64B", 0, 29);  // 29 cycles @1.45GHz = 20ns
  const std::string json = tracer.to_chrome_json(1.45);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"get 64B\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Tracer, EmptyTraceIsValidJson) {
  EventTracer tracer;
  EXPECT_EQ(tracer.to_chrome_json(1.45), "{\"traceEvents\":[]}");
}

TEST(Tracer, ChromeJsonEscapesQuotesBackslashesAndControlChars) {
  // Regression: names/categories used to be emitted raw, so a quote or
  // backslash in an event name produced JSON chrome://tracing rejects.
  EventTracer tracer;
  tracer.record(0, "dma\\bus", "get \"tile 3\"\n\tdone", 0, 10);
  const std::string json = tracer.to_chrome_json(1.45);
  EXPECT_NE(json.find("\"name\":\"get \\\"tile 3\\\"\\n\\tdone\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"dma\\\\bus\""), std::string::npos);
  // No raw control characters may survive into the output.
  for (const char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(Tracer, ChromeJsonEscapesLowControlCharsAsUnicode) {
  EventTracer tracer;
  tracer.record(0, "sync", std::string("bar\x01rier", 8), 0, 1);
  EXPECT_NE(tracer.to_chrome_json(1.45).find("bar\\u0001rier"),
            std::string::npos);
}

TEST(Tracer, ChromeJsonClampsInvertedIntervalsToZeroDuration) {
  // Regression: end < begin wrapped the unsigned subtraction into a
  // ~10^19-cycle duration.
  EventTracer tracer;
  tracer.record(2, "dma", "clock skew", 100, 40);
  const std::string json = tracer.to_chrome_json(1.0);
  EXPECT_NE(json.find("\"dur\":0"), std::string::npos);
  EXPECT_EQ(json.find("e+"), std::string::npos);  // no astronomical values
}

TEST(Tracer, RecordInstantHasZeroExtent) {
  EventTracer tracer;
  tracer.record_instant(0, "plan_cache", "hit", 7);
  ASSERT_EQ(tracer.size(), 1u);
  const auto events = tracer.events();
  EXPECT_EQ(events[0].begin_cycle, 7u);
  EXPECT_EQ(events[0].end_cycle, 7u);
  EXPECT_EQ(events[0].category, "plan_cache");
}

TEST(Tracer, WritesFile) {
  EventTracer tracer;
  tracer.record(0, "dma", "put 1024B", 10, 50);
  const std::string path = ::testing::TempDir() + "/swdnn_trace.json";
  tracer.write_chrome_json(path, 1.45);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("put 1024B"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Tracer, CapturesAConvolutionLaunch) {
  // Attach to a real mesh kernel run: DMA, bus, and barrier events from
  // every CPE must appear.
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  EventTracer tracer;
  exec.set_tracer(&tracer);

  const conv::ConvShape shape =
      conv::ConvShape::from_output(4, 2, 2, 3, 4, 2, 2);
  perf::ConvPlan plan;
  plan.kind = perf::PlanKind::kBatchSizeAware;
  plan.block_co = 2;
  util::Rng rng(55);
  auto input = conv::make_input(shape);
  auto filter = conv::make_filter(shape);
  rng.fill_uniform(input.data(), -1, 1);
  rng.fill_uniform(filter.data(), -1, 1);
  auto output = conv::make_output(shape);
  conv::run_batch_size_aware(exec, input, filter, output, shape, plan);

  EXPECT_GT(tracer.size(), 0u);
  bool saw_dma = false, saw_bus = false, saw_sync = false;
  std::set<int> cpes;
  for (const auto& e : tracer.events()) {
    saw_dma |= (e.category == "dma");
    saw_bus |= (e.category == "bus");
    saw_sync |= (e.category == "sync");
    cpes.insert(e.cpe);
    EXPECT_GE(e.end_cycle, e.begin_cycle);
  }
  EXPECT_TRUE(saw_dma);
  EXPECT_TRUE(saw_bus);
  EXPECT_TRUE(saw_sync);
  EXPECT_EQ(cpes.size(), 4u);  // all CPEs of the 2x2 mesh participated

  // Detach: subsequent launches record nothing.
  exec.set_tracer(nullptr);
  tracer.clear();
  conv::run_batch_size_aware(exec, input, filter, output, shape, plan);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(Tracer, NamesEachPrimitiveExactly) {
  // The executor formats event names only while a tracer is attached;
  // attached, every primitive records its documented name.
  MeshExecutor exec(mesh_spec(2));
  EventTracer tracer;
  exec.set_tracer(&tracer);
  std::vector<double> global(64);
  exec.run([&](CpeContext& ctx) {
    std::span<double> buf = ctx.ldm().alloc_doubles(8);
    if (ctx.id() == 0) {
      ctx.dma_get({global.data(), 8}, buf);
      ctx.dma_put(buf.first(4), {global.data() + 8, 4});
      ctx.dma_get_strided(global.data(), 3, 2, 8, buf.first(6));
      ctx.dma_put_strided(buf.first(6), global.data() + 32, 3, 2, 8);
      ctx.bcast_row_span(buf);            // two 256-bit messages
      ctx.bcast_col_span(buf.first(4));   // one
    } else if (ctx.id() == 1) {
      (void)ctx.recv_row_span(buf);
    } else if (ctx.id() == 2) {
      (void)ctx.recv_col_span(buf.first(4));
    }
    ctx.sync();
  });
  std::vector<std::vector<std::string>> names(4);
  for (const TraceEvent& e : tracer.events()) {
    names[static_cast<std::size_t>(e.cpe)].push_back(e.name);
  }
  EXPECT_EQ(names[0], (std::vector<std::string>{
                          "get 64B", "put 32B", "get-strided 3x16B",
                          "put-strided 3x16B", "bcast-row", "bcast-row",
                          "bcast-col", "barrier"}));
  for (std::size_t cpe = 1; cpe < 4; ++cpe) {
    EXPECT_EQ(names[cpe], std::vector<std::string>{"barrier"});
  }
}

TEST(Tracer, ConcurrentRecordingIsSafe) {
  // 64 CPE threads recording into one tracer (the reference path runs
  // each CPE on its own thread).
  MeshExecutor exec;  // full 8x8 mesh
  exec.set_use_fibers(false);
  EventTracer tracer;
  exec.set_tracer(&tracer);
  std::vector<double> global(64 * 8);
  exec.run([&](CpeContext& ctx) {
    auto buf = ctx.ldm().alloc_doubles(8);
    for (int rep = 0; rep < 10; ++rep) {
      ctx.dma_get({global.data() + ctx.id() * 8, 8}, buf);
    }
  });
  EXPECT_EQ(tracer.size(), 64u * 10u);
}

}  // namespace
}  // namespace swdnn::sim
