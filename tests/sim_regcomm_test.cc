#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "src/sim/regcomm.h"

namespace swdnn::sim {
namespace {

TEST(Vec4, Splat) {
  const Vec4 v = Vec4::splat(2.5);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v.lane[i], 2.5);
}

TEST(Vec4, Fma) {
  Vec4 acc = Vec4::splat(1.0);
  acc.fma(Vec4{{1, 2, 3, 4}}, Vec4{{2, 2, 2, 2}});
  EXPECT_EQ(acc.lane[0], 3.0);
  EXPECT_EQ(acc.lane[3], 9.0);
}

TEST(Vec4, AddAndMul) {
  const Vec4 a{{1, 2, 3, 4}};
  const Vec4 b{{10, 20, 30, 40}};
  const Vec4 sum = a + b;
  const Vec4 prod = a * b;
  EXPECT_EQ(sum.lane[2], 33.0);
  EXPECT_EQ(prod.lane[3], 160.0);
}

TEST(TransferBuffer, FifoOrder) {
  PayloadPool pool;
  TransferBuffer buf(pool, 4);
  buf.put(Vec4::splat(1.0));
  buf.put(Vec4::splat(2.0));
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.get().lane[0], 1.0);
  EXPECT_EQ(buf.get().lane[0], 2.0);
  EXPECT_EQ(buf.size(), 0u);
}

TEST(TransferBuffer, PutBlocksWhenFullUntilGet) {
  PayloadPool pool;
  TransferBuffer buf(pool, 2);
  buf.put(Vec4::splat(1.0));
  buf.put(Vec4::splat(2.0));
  std::atomic<bool> third_done{false};
  std::thread producer([&] {
    buf.put(Vec4::splat(3.0));  // must block until a slot frees
    third_done.store(true);
  });
  // The producer cannot finish while the buffer is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_done.load());
  EXPECT_EQ(buf.get().lane[0], 1.0);
  producer.join();
  EXPECT_TRUE(third_done.load());
  EXPECT_EQ(buf.get().lane[0], 2.0);
  EXPECT_EQ(buf.get().lane[0], 3.0);
}

TEST(TransferBuffer, GetBlocksUntilPut) {
  PayloadPool pool;
  TransferBuffer buf(pool, 4);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    const Vec4 v = buf.get();
    EXPECT_EQ(v.lane[1], 7.0);
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  buf.put(Vec4{{0, 7, 0, 0}});
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(TransferBuffer, ManyMessagesThroughSmallBuffer) {
  // Producer-consumer across a capacity-4 buffer, 1000 messages: the
  // paper's multi-Put/multi-Get discipline.
  PayloadPool pool;
  TransferBuffer buf(pool, 4);
  constexpr int kN = 1000;
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) buf.put(Vec4::splat(static_cast<double>(i)));
  });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(buf.get().lane[0], static_cast<double>(i));
  }
  producer.join();
}

TEST(TransferBuffer, SpanGetStraddlesTwoPayloadsAndReadsWholeMessages) {
  // Two tiles of 6 and 5 doubles travel as 2 + 2 messages. A 10-double
  // Get takes three whole messages: all of the first tile with its two
  // zero lanes, then the first message of the second, whose last two
  // lanes are dropped, not kept for the next Get.
  PayloadPool pool;
  TransferBuffer buf(pool, 4);
  const std::vector<double> a{1, 2, 3, 4, 5, 6};
  const std::vector<double> b{7, 8, 9, 10, 11};
  buf.put_payload(pool.pack(a, 1));
  buf.put_payload(pool.pack(b, 1));
  EXPECT_EQ(buf.size(), 4u);
  std::vector<double> out(10, -1);
  const std::span<const double> got = buf.get_span(out);
  EXPECT_EQ(got.data(), out.data());  // copied: no one payload holds it
  EXPECT_EQ(out, (std::vector<double>{1, 2, 3, 4, 5, 6, 0, 0, 7, 8}));
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(pool.outstanding(), 1u);  // the first tile went back
  const Vec4 last = buf.get();
  EXPECT_EQ(last.lane[0], 11.0);
  EXPECT_EQ(last.lane[1], 0.0);
  EXPECT_EQ(last.lane[3], 0.0);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(TransferBuffer, Vec4PutsDrainedByOneSpanGet) {
  PayloadPool pool;
  TransferBuffer buf(pool, 4);
  buf.put(Vec4{{1, 2, 3, 4}});
  buf.put(Vec4{{5, 6, 7, 8}});
  buf.put(Vec4{{9, 10, 11, 12}});
  std::vector<double> out(9, -1);
  const std::span<const double> got = buf.get_span(out);
  EXPECT_EQ(got.data(), out.data());
  EXPECT_EQ(out, (std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(TransferBuffer, SharedPayloadDrainedByVec4GetsOnEveryReceiver) {
  // One broadcast, two receivers: the block stays out until the second
  // receiver has read its last message.
  PayloadPool pool;
  TransferBuffer left(pool, 4);
  TransferBuffer right(pool, 4);
  const std::vector<double> tile{1, 2, 3, 4, 5, 6, 7};
  Payload& payload = pool.pack(tile, 2);
  left.put_payload(payload);
  right.put_payload(payload);
  for (TransferBuffer* buf : {&left, &right}) {
    EXPECT_EQ(pool.outstanding(), 1u);
    const Vec4 first = buf->get();
    const Vec4 second = buf->get();
    EXPECT_EQ(first.lane[0], 1.0);
    EXPECT_EQ(first.lane[3], 4.0);
    EXPECT_EQ(second.lane[2], 7.0);
    EXPECT_EQ(second.lane[3], 0.0);
  }
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(TransferBuffer, SpanGetFromOnePayloadViewsItInPlace) {
  // One broadcast, two receivers, each reading the tile as one span:
  // both views point into the shared block, not at the caller's buffer,
  // and each keeps the block out until its receiver lets go of it.
  PayloadPool pool;
  TransferBuffer left(pool, 4);
  TransferBuffer right(pool, 4);
  const std::vector<double> tile{1.5, -0.0, 3, 4, 5, 6, 7};
  Payload& payload = pool.pack(tile, 2);
  left.put_payload(payload);
  right.put_payload(payload);
  std::vector<double> left_buf(7, -1);
  std::vector<double> right_buf(7, -1);
  const std::span<const double> a = left.get_span(left_buf);
  const std::span<const double> b = right.get_span(right_buf);
  EXPECT_EQ(a.data(), payload.lanes.get());
  EXPECT_EQ(b.data(), payload.lanes.get());
  ASSERT_EQ(a.size(), tile.size());
  EXPECT_EQ(0, std::memcmp(a.data(), tile.data(), sizeof(double) * 7));
  EXPECT_EQ(left_buf, std::vector<double>(7, -1));  // never written
  EXPECT_EQ(left.size(), 0u);
  EXPECT_EQ(pool.outstanding(), 1u);
  left.release_view();
  EXPECT_EQ(pool.outstanding(), 1u);
  right.clear();
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(TransferBuffer, SpanGetsThatSplitOnePayloadViewEachPart) {
  // Two 4-double receives from one 8-double broadcast: the first view
  // leaves the segment queued, the second drains it and holds the block.
  PayloadPool pool;
  TransferBuffer buf(pool, 4);
  const std::vector<double> tile{1, 2, 3, 4, 5, 6, 7, 8};
  Payload& payload = pool.pack(tile, 1);
  buf.put_payload(payload);
  std::vector<double> tile_buf(4);
  const std::span<const double> first = buf.get_span(tile_buf);
  EXPECT_EQ(first.data(), payload.lanes.get());
  EXPECT_EQ(buf.size(), 1u);
  const std::span<const double> second = buf.get_span(tile_buf);
  EXPECT_EQ(second.data(), payload.lanes.get() + 4);
  EXPECT_EQ(std::vector<double>(second.begin(), second.end()),
            (std::vector<double>{5, 6, 7, 8}));
  EXPECT_EQ(pool.outstanding(), 1u);
  buf.release_view();
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(TransferBuffer, ClearReturnsQueuedPayloadsToThePool) {
  PayloadPool pool;
  TransferBuffer left(pool, 4);
  TransferBuffer right(pool, 4);
  const std::vector<double> tile(9, 2.5);  // 3 messages
  Payload& shared = pool.pack(tile, 2);
  left.put_payload(shared);
  right.put_payload(shared);
  left.put(Vec4::splat(1.0));
  left.get();  // partly drains the shared payload
  EXPECT_EQ(left.size(), 3u);
  EXPECT_EQ(pool.outstanding(), 2u);
  left.clear();
  EXPECT_EQ(left.size(), 0u);
  EXPECT_EQ(pool.outstanding(), 1u);  // `right` still holds the tile
  right.clear();
  EXPECT_EQ(pool.outstanding(), 0u);
  // Both blocks are reused, not reallocated.
  const std::size_t blocks = pool.blocks();
  left.put_payload(pool.pack(tile, 1));
  left.put(Vec4::splat(3.0));
  EXPECT_EQ(pool.blocks(), blocks);
  std::vector<double> out(12, -1);
  const std::span<const double> got = left.get_span(out);
  EXPECT_EQ(got[8], 2.5);
  EXPECT_EQ(got[9], 0.0);
  EXPECT_EQ(got[11], 0.0);
  EXPECT_EQ(pool.outstanding(), 2u);  // the viewed tile, the queued Vec4
  EXPECT_EQ(left.get().lane[0], 3.0);
  EXPECT_EQ(pool.outstanding(), 0u);
}

}  // namespace
}  // namespace swdnn::sim
