#pragma once
// Register communication: 256-bit messages over row/column buses.
//
// SW26010's CPE mesh has 8 row buses and 8 column buses. A sender Puts a
// 256-bit register into the Transfer Buffer of a receiver on its own
// row/column; the receiver Gets it into its register file. Put blocks
// when the receiver's buffer is full, Get blocks when it is empty —
// exactly the producer-consumer discipline the paper describes. The
// hardware also offers row/column broadcast, which the vldr/vldc-based
// kernels use (Section V-C).
//
// The simulator implements a TransferBuffer as a bounded MPSC queue. A
// CPE owns two receive buffers: one fed by its row bus, one by its
// column bus. Message order on one bus is FIFO per sender and, because a
// bus serializes, FIFO globally per buffer.
//
// Two access disciplines share the queue:
//   * the Vec4 reference path (put/get) — one lock acquisition per
//     256-bit message, back-pressured at the hardware buffer depth; and
//   * the bulk span path (put_packed/get_unpacked) — a whole tile's
//     worth of messages moves under a single lock acquisition. Bulk
//     puts deliberately ignore the slot capacity: blocking on a full
//     buffer is host-scheduling behaviour only (no cycles are ever
//     charged for it), so batching past the depth changes no modeled
//     observable while eliminating the dominant host cost of the bus.
//     Cycle and message accounting stay per-Vec4 in the caller.
//
// Where a Get finds the queue empty (or a Vec4 Put finds it full), a CPE
// running as a fiber parks in its FiberScheduler until the queue
// changes; a plain thread waits on a condition variable.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>

namespace swdnn::sim {

/// One 256-bit vector register: 4 doubles.
struct Vec4 {
  double lane[4] = {0, 0, 0, 0};

  static Vec4 splat(double v) { return Vec4{{v, v, v, v}}; }

  Vec4& fma(const Vec4& a, const Vec4& b) {
    for (int i = 0; i < 4; ++i) lane[i] += a.lane[i] * b.lane[i];
    return *this;
  }
  Vec4 operator+(const Vec4& o) const {
    Vec4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = lane[i] + o.lane[i];
    return r;
  }
  Vec4 operator*(const Vec4& o) const {
    Vec4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = lane[i] * o.lane[i];
    return r;
  }
};

class TransferBuffer {
 public:
  /// `bus` names the buffer in deadlock reports, e.g. "row bus".
  explicit TransferBuffer(std::size_t capacity,
                          const char* bus = "transfer buffer")
      : capacity_(capacity), bus_(bus) {}

  /// Blocking bounded push (sender side of a bus Put).
  void put(const Vec4& value);

  /// Blocking pop (receiver's Get into its register file).
  Vec4 get();

  /// Bulk sender: packs `data` into ceil(n/4) Vec4 messages (trailing
  /// lanes zero, matching the reference path's packing) and enqueues
  /// them all under one lock acquisition. Never blocks on capacity —
  /// see the header comment for why that is observationally safe.
  void put_packed(std::span<const double> data);

  /// Bulk receiver: pops ceil(n/4) messages under one lock acquisition
  /// (waiting while the queue is empty) and unpacks them into `out`,
  /// discarding the zero-padding lanes of the final message.
  void get_unpacked(std::span<double> out);

  /// Drops any buffered messages (launch-boundary reset).
  void clear();

  /// Number of messages currently buffered (for tests).
  std::size_t size() const;

  std::size_t capacity() const { return capacity_; }

 private:
  /// Returns once a message is queued, or with `for_room` once a slot
  /// is free; `lock` holds mutex_ on entry and on return.
  void await(std::unique_lock<std::mutex>& lock, bool for_room);
  static bool has_message(const void* buffer, std::uint64_t);
  static bool has_room(const void* buffer, std::uint64_t);

  const std::size_t capacity_;
  const char* const bus_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Vec4> queue_;
};

}  // namespace swdnn::sim
