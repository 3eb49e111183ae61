// SPMD launches on the simulated mesh: identity, DMA, register
// communication, barriers, and statistics aggregation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <span>
#include <vector>

#include "src/sim/executor.h"

#if defined(__SANITIZE_ADDRESS__)
#define SWDNN_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SWDNN_TEST_ASAN 1
#endif
#endif

#ifdef SWDNN_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace swdnn::sim {
namespace {

arch::Sw26010Spec mesh_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

TEST(Executor, LaunchesOneKernelPerCpe) {
  const arch::Sw26010Spec spec = mesh_spec(4);
  MeshExecutor exec(spec);
  std::vector<std::atomic<int>> hits(16);
  exec.run([&](CpeContext& ctx) {
    hits[static_cast<std::size_t>(ctx.id())].fetch_add(1);
    EXPECT_EQ(ctx.id(), ctx.row() * 4 + ctx.col());
    EXPECT_EQ(ctx.mesh_rows(), 4);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, FullMeshHas64Cpes) {
  MeshExecutor exec;
  std::atomic<int> count{0};
  exec.run([&](CpeContext& ctx) {
    (void)ctx;
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(Executor, DmaRoundTripThroughLdm) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  std::vector<double> global(4 * 16);
  for (std::size_t i = 0; i < global.size(); ++i) {
    global[i] = static_cast<double>(i);
  }
  std::vector<double> result(global.size());
  const LaunchStats stats = exec.run([&](CpeContext& ctx) {
    auto buf = ctx.ldm().alloc_doubles(16);
    const std::size_t off = static_cast<std::size_t>(ctx.id()) * 16;
    ctx.dma_get({global.data() + off, 16}, buf);
    for (double& v : buf) v += 1.0;
    ctx.charge_flops(16);
    ctx.dma_put(buf, {result.data() + off, 16});
  });
  for (std::size_t i = 0; i < global.size(); ++i) {
    EXPECT_EQ(result[i], global[i] + 1.0);
  }
  EXPECT_EQ(stats.dma.get_bytes, global.size() * 8);
  EXPECT_EQ(stats.dma.put_bytes, global.size() * 8);
  EXPECT_EQ(stats.total_flops, 4u * 16u);
  EXPECT_GT(stats.max_compute_cycles, 0u);
  EXPECT_GT(stats.dma_seconds, 0.0);
}

TEST(Executor, StridedGatherAndScatter) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  // 4 rows of 8; each CPE gathers column-block ctx.id()*2 of width 2.
  std::vector<double> matrix(4 * 8);
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    matrix[i] = static_cast<double>(i);
  }
  std::vector<double> out(matrix.size());
  exec.run([&](CpeContext& ctx) {
    auto buf = ctx.ldm().alloc_doubles(8);  // 4 rows x 2 cols
    const std::int64_t col0 = ctx.id() * 2;
    ctx.dma_get_strided(matrix.data() + col0, 4, 2, 8, buf);
    ctx.dma_put_strided(buf, out.data() + col0, 4, 2, 8);
  });
  EXPECT_EQ(out, matrix);
}

TEST(Executor, BarrierSeparatesPhases) {
  const arch::Sw26010Spec spec = mesh_spec(4);
  MeshExecutor exec(spec);
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  exec.run([&](CpeContext& ctx) {
    phase1.fetch_add(1);
    ctx.sync();
    if (phase1.load() != 16) violated.store(true);
  });
  EXPECT_FALSE(violated.load());
}

TEST(Executor, RowPutGetDeliversInOrder) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  std::vector<double> received(4, -1);
  exec.run([&](CpeContext& ctx) {
    if (ctx.col() == 0) {
      ctx.put_row(1, Vec4::splat(static_cast<double>(ctx.row() + 10)));
    } else {
      received[static_cast<std::size_t>(ctx.row())] = ctx.get_row().lane[0];
    }
  });
  EXPECT_EQ(received[0], 10.0);
  EXPECT_EQ(received[1], 11.0);
}

TEST(Executor, ColPutGetDelivers) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  std::vector<double> received(2, -1);
  exec.run([&](CpeContext& ctx) {
    if (ctx.row() == 0) {
      ctx.put_col(1, Vec4::splat(static_cast<double>(ctx.col() + 20)));
    } else {
      received[static_cast<std::size_t>(ctx.col())] = ctx.get_col().lane[0];
    }
  });
  EXPECT_EQ(received[0], 20.0);
  EXPECT_EQ(received[1], 21.0);
}

TEST(Executor, RowBroadcastReachesWholeRow) {
  const arch::Sw26010Spec spec = mesh_spec(4);
  MeshExecutor exec(spec);
  std::vector<double> received(16, -1);
  const LaunchStats stats = exec.run([&](CpeContext& ctx) {
    if (ctx.col() == 2) {
      ctx.bcast_row(Vec4::splat(static_cast<double>(100 + ctx.row())));
      received[static_cast<std::size_t>(ctx.id())] =
          static_cast<double>(100 + ctx.row());
    } else {
      received[static_cast<std::size_t>(ctx.id())] = ctx.get_row().lane[0];
    }
  });
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(received[static_cast<std::size_t>(r * 4 + c)], 100.0 + r);
    }
  }
  // 4 broadcasts x 3 receivers each.
  EXPECT_EQ(stats.regcomm_messages, 12u);
  EXPECT_EQ(stats.regcomm_bytes(), 12u * 32u);
}

TEST(Executor, ColBroadcastReachesWholeColumn) {
  const arch::Sw26010Spec spec = mesh_spec(4);
  MeshExecutor exec(spec);
  std::vector<double> received(16, -1);
  exec.run([&](CpeContext& ctx) {
    if (ctx.row() == 0) {
      ctx.bcast_col(Vec4::splat(static_cast<double>(ctx.col())));
      received[static_cast<std::size_t>(ctx.id())] =
          static_cast<double>(ctx.col());
    } else {
      received[static_cast<std::size_t>(ctx.id())] = ctx.get_col().lane[0];
    }
  });
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(received[static_cast<std::size_t>(r * 4 + c)],
                static_cast<double>(c));
    }
  }
}

TEST(Executor, LdmIsPerCpe) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  std::atomic<bool> overlap{false};
  std::vector<double*> bases(4, nullptr);
  exec.run([&](CpeContext& ctx) {
    auto buf = ctx.ldm().alloc_doubles(64);
    bases[static_cast<std::size_t>(ctx.id())] = buf.data();
    ctx.sync();
    for (int other = 0; other < 4; ++other) {
      if (other != ctx.id() && bases[static_cast<std::size_t>(other)] ==
                                   buf.data()) {
        overlap.store(true);
      }
    }
  });
  EXPECT_FALSE(overlap.load());
}

TEST(Executor, Vec4PutsPastTheBufferDepthWaitForTheReceiver) {
  // A sender outruns the hardware buffer depth: on fibers it parks on
  // the full buffer until the receiver drains it.
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  const int messages = 4 * static_cast<int>(spec.transfer_buffer_slots) + 1;
  std::vector<double> received;
  exec.run([&](CpeContext& ctx) {
    if (ctx.id() == 0) {
      for (int i = 0; i < messages; ++i) {
        ctx.put_row(1, Vec4::splat(static_cast<double>(i)));
      }
    } else if (ctx.id() == 1) {
      for (int i = 0; i < messages; ++i) {
        received.push_back(ctx.get_row().lane[0]);
      }
    }
  });
  ASSERT_EQ(received.size(), static_cast<std::size_t>(messages));
  for (int i = 0; i < messages; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], static_cast<double>(i));
  }
}

TEST(Executor, SpanAndVec4DisciplinesShareOneStore) {
  // Row 0: a broadcast tile read back one message at a time. Row 1: two
  // Vec4 Puts read as one tile, the padding lanes of its last message
  // dropped.
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  std::vector<double> by_vec4(8, -1);
  std::vector<double> by_span(6, -1);
  const LaunchStats stats = exec.run([&](CpeContext& ctx) {
    if (ctx.id() == 0) {
      const std::vector<double> tile{1, 2, 3, 4, 5, 6};
      ctx.bcast_row_span(tile);
    } else if (ctx.id() == 1) {
      for (std::size_t m = 0; m < 2; ++m) {
        const Vec4 v = ctx.get_row();
        std::copy(v.lane, v.lane + 4, by_vec4.begin() + 4 * m);
      }
    } else if (ctx.id() == 2) {
      ctx.put_row(1, Vec4{{7, 8, 9, 10}});
      ctx.put_row(1, Vec4{{11, 12, 13, 14}});
    } else {
      // The two puts are two payloads: the receive copies them out.
      EXPECT_EQ(ctx.recv_row_span(by_span).data(), by_span.data());
    }
  });
  EXPECT_EQ(by_vec4, (std::vector<double>{1, 2, 3, 4, 5, 6, 0, 0}));
  EXPECT_EQ(by_span, (std::vector<double>{7, 8, 9, 10, 11, 12}));
  EXPECT_EQ(stats.regcomm_messages, 4u);
  EXPECT_EQ(exec.mesh().payload_pool().outstanding(), 0u);
}

TEST(Executor, RepeatedLaunchTakesEveryPayloadFromThePool) {
  // The mesh GEMM's exchange: at step t column t broadcasts a tile
  // along its row and row t one down its column, in two tile sizes.
  const arch::Sw26010Spec spec = mesh_spec(4);
  MeshExecutor exec(spec);
  const auto kernel = [](CpeContext& ctx) {
    const std::vector<double> w(64, ctx.id());
    const std::vector<double> di(30, -ctx.id());
    std::vector<double> w_in(w.size());
    std::vector<double> di_in(di.size());
    for (int t = 0; t < ctx.mesh_rows(); ++t) {
      if (ctx.col() == t) {
        ctx.bcast_row_span(w);
      } else {
        EXPECT_EQ(ctx.recv_row_span(w_in).back(),
                  ctx.row() * ctx.mesh_cols() + t);
      }
      if (ctx.row() == t) {
        ctx.bcast_col_span(di);
      } else {
        EXPECT_EQ(ctx.recv_col_span(di_in).back(),
                  -(t * ctx.mesh_cols() + ctx.col()));
      }
      ctx.sync();
    }
  };
  const PayloadPool& pool = exec.mesh().payload_pool();
  exec.run(kernel);
  const std::size_t blocks = pool.blocks();
  EXPECT_GT(blocks, 0u);
  EXPECT_EQ(pool.outstanding(), 0u);
  exec.run(kernel);
  EXPECT_EQ(pool.blocks(), blocks);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(Executor, SpanReceiveReadsTheBroadcastTileInPlace) {
  // Column 0 of a 4x4 mesh broadcasts an 11-double tile along each row.
  // Each receiver's span points into the one payload of its row, not at
  // its LDM buffer, and holds the broadcast bits. Every receiver returns
  // still holding its view; the launch hands each payload back.
  for (const bool fibers : {true, false}) {
    SCOPED_TRACE(fibers ? "fibers" : "spawned threads");
    MeshExecutor exec(mesh_spec(4));
    exec.set_use_fibers(fibers);
    std::vector<const double*> views(16, nullptr);
    std::vector<const double*> buffers(16, nullptr);
    std::vector<std::vector<double>> received(16);
    const auto tile_of = [](int row) {
      std::vector<double> tile(11);
      for (std::size_t i = 0; i < tile.size(); ++i) {
        tile[i] = row * 100.0 + static_cast<double>(i) + 0.25;
      }
      tile[3] = -0.0;
      return tile;
    };
    exec.run([&](CpeContext& ctx) {
      const std::vector<double> tile = tile_of(ctx.row());
      if (ctx.col() == 0) {
        ctx.bcast_row_span(tile);
        return;
      }
      const auto id = static_cast<std::size_t>(ctx.id());
      std::span<double> buffer = ctx.ldm().alloc_doubles(tile.size());
      const std::span<const double> view = ctx.recv_row_span(buffer);
      views[id] = view.data();
      buffers[id] = buffer.data();
      received[id].assign(view.begin(), view.end());
    });
    for (int r = 0; r < 4; ++r) {
      const std::vector<double> tile = tile_of(r);
      const auto first = static_cast<std::size_t>(r * 4 + 1);
      for (std::size_t id = first; id < first + 3; ++id) {
        EXPECT_NE(views[id], buffers[id]);
        EXPECT_EQ(views[id], views[first]);
        ASSERT_EQ(received[id].size(), tile.size());
        EXPECT_EQ(0, std::memcmp(received[id].data(), tile.data(),
                                 tile.size() * sizeof(double)));
      }
    }
    EXPECT_NE(views[1], views[5]);  // one payload per row
    EXPECT_EQ(exec.mesh().payload_pool().outstanding(), 0u);
  }
}

TEST(Executor, SpanReceiveAcrossTwoBroadcastsCopiesIntoTheBuffer) {
  // Two broadcasts read as one span: their messages lie in two
  // payloads, so the receive copies whole messages into the buffer.
  MeshExecutor exec(mesh_spec(2));
  std::vector<double> received(10, -1);
  exec.run([&](CpeContext& ctx) {
    if (ctx.id() == 0) {
      ctx.bcast_row_span(std::vector<double>{1, 2, 3, 4, 5});
      ctx.bcast_row_span(std::vector<double>{6, 7});
    } else if (ctx.id() == 1) {
      EXPECT_EQ(ctx.recv_row_span(received).data(), received.data());
    }
  });
  EXPECT_EQ(received, (std::vector<double>{1, 2, 3, 4, 5, 0, 0, 0, 6, 7}));
  EXPECT_EQ(exec.mesh().payload_pool().outstanding(), 0u);
}

TEST(Executor, NextReceivePoisonsTheLastViewsLanes) {
#ifndef SWDNN_TEST_ASAN
  GTEST_SKIP() << "needs AddressSanitizer";
#else
  // On a 2x2 mesh each row broadcast has one receiver, so its next
  // receive returns the first payload to the pool, which poisons it.
  MeshExecutor exec(mesh_spec(2));
  bool live = false;
  bool poisoned = false;
  exec.run([&](CpeContext& ctx) {
    if (ctx.id() == 0) {
      ctx.bcast_row_span(std::vector<double>(8, 1.0));
      ctx.bcast_row_span(std::vector<double>(8, 2.0));
    } else if (ctx.id() == 1) {
      std::span<double> buffer = ctx.ldm().alloc_doubles(8);
      const std::span<const double> view = ctx.recv_row_span(buffer);
      live = __asan_region_is_poisoned(const_cast<double*>(view.data()),
                                       view.size_bytes()) == nullptr;
      (void)ctx.recv_row_span(buffer);
      poisoned = __asan_address_is_poisoned(view.data()) != 0;
    }
  });
  EXPECT_TRUE(live);
  EXPECT_TRUE(poisoned);
#endif
}

TEST(Executor, PayloadsLeftQueuedReturnAtTheNextLaunch) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  exec.run([](CpeContext& ctx) {
    const std::vector<double> tile(8, 1.0);
    if (ctx.id() == 0) ctx.bcast_row_span(tile);  // nobody receives it
  });
  EXPECT_EQ(exec.mesh().payload_pool().outstanding(), 1u);
  exec.run([](CpeContext&) {});
  EXPECT_EQ(exec.mesh().payload_pool().outstanding(), 0u);
}

TEST(ExecutorDeathTest, NonStdExceptionAbortsWithTheCpeDiagnostic) {
  EXPECT_DEATH(
      {
        MeshExecutor exec(mesh_spec(2));
        exec.run([](CpeContext& ctx) {
          if (ctx.id() == 3) throw 42;
        });
      },
      "fatal: CPE\\(1,1\\) kernel threw");
}

TEST(ExecutorDeathTest, SkippedSyncAbortsNamingTheBlockedCpes) {
  EXPECT_DEATH(
      {
        MeshExecutor exec(mesh_spec(2));
        exec.run([](CpeContext& ctx) {
          if (ctx.id() != 2) ctx.sync();
        });
      },
      "deadlock: 3 of 4 CPEs are blocked.*"
      "CPE\\(0,0\\) waits at the barrier.*"
      "CPE\\(0,1\\) waits at the barrier.*"
      "CPE\\(1,1\\) waits at the barrier");
}

TEST(ExecutorDeathTest, GetFromAnUnfedBusAbortsNamingTheBus) {
  EXPECT_DEATH(
      {
        MeshExecutor exec(mesh_spec(2));
        exec.run([](CpeContext& ctx) {
          std::vector<double> tile(8);
          if (ctx.id() == 1) ctx.get_row();
          if (ctx.id() == 2) (void)ctx.recv_col_span(tile);
        });
      },
      "deadlock: 2 of 4 CPEs are blocked.*"
      "CPE\\(0,1\\) waits for a message on the row bus.*"
      "CPE\\(1,0\\) waits for a message on the column bus");
}

TEST(LaunchStats, OverlapModel) {
  LaunchStats s;
  s.compute_seconds = 2.0;
  s.dma_seconds = 3.0;
  s.total_flops = 12'000'000'000ull;
  EXPECT_DOUBLE_EQ(s.modeled_seconds(true), 3.0);
  EXPECT_DOUBLE_EQ(s.modeled_seconds(false), 5.0);
  EXPECT_DOUBLE_EQ(s.modeled_gflops(true), 4.0);
}

TEST(LaunchStats, AccumulateSumsEveryCountAndKeepsTheFirstFailure) {
  LaunchStats clean;
  clean.max_compute_cycles = 5;
  clean.total_flops = 40;
  clean.regcomm_messages = 6;
  clean.dma = DmaTotals{.get_bytes = 256,
                        .put_bytes = 128,
                        .requests = 3,
                        .misaligned_requests = 2};
  clean.dma_seconds = 1.5;
  clean.compute_seconds = 0.5;
  clean.fault_events = 1;
  clean.dma_retries = 1;
  LaunchStats transient;
  transient.failed = true;
  transient.failure = "first";
  LaunchStats persistent;
  persistent.failed = true;
  persistent.persistent_fault = true;
  persistent.failure = "second";

  LaunchStats total;
  total.accumulate(clean);
  total.accumulate(clean);
  EXPECT_FALSE(total.failed);
  total.accumulate(transient);
  total.accumulate(persistent);
  EXPECT_EQ(total.max_compute_cycles, 10u);
  EXPECT_EQ(total.total_flops, 80u);
  EXPECT_EQ(total.regcomm_messages, 12u);
  EXPECT_EQ(total.dma.get_bytes, 512u);
  EXPECT_EQ(total.dma.put_bytes, 256u);
  EXPECT_EQ(total.dma.requests, 6u);
  EXPECT_EQ(total.dma.misaligned_requests, 4u);
  EXPECT_DOUBLE_EQ(total.dma_seconds, 3.0);
  EXPECT_DOUBLE_EQ(total.compute_seconds, 1.0);
  EXPECT_EQ(total.fault_events, 2u);
  EXPECT_EQ(total.dma_retries, 2u);
  EXPECT_TRUE(total.failed);
  EXPECT_FALSE(total.persistent_fault);
  EXPECT_EQ(total.failure, "first");
}

TEST(Executor, ChargeFlopsRoundsUpCycles) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  MeshExecutor exec(spec);
  const LaunchStats stats = exec.run([&](CpeContext& ctx) {
    if (ctx.id() == 0) ctx.charge_flops(9);  // 9/8 -> 2 cycles
  });
  EXPECT_EQ(stats.max_compute_cycles, 2u);
}

}  // namespace
}  // namespace swdnn::sim
