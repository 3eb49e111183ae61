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
// A CPE owns two receive buffers: one fed by its row bus, one by its
// column bus. Message order on one bus is FIFO per sender and, because a
// bus serializes, FIFO globally per buffer.
//
// The store: messages live in Payload blocks of whole messages, taken
// from a PayloadPool that the mesh owns. A TransferBuffer is a FIFO of
// segments, each a reference to a block plus the index of its next
// unread message. A broadcast tile is packed once, zero-padded to whole
// messages, into one block that every receiver's buffer references.
// A span receive whose messages all lie in one block reads them in
// place: it returns a view into the block, and the buffer keeps the
// block's reader reference until its next receive (or release_view() or
// clear()). Only a receive that straddles blocks copies, into the
// caller's buffer. The last receiver to let go of a block returns it to
// the pool. After a launch has warmed the pool, bus traffic allocates
// nothing.
//
// Two access disciplines share the store:
//   * the Vec4 reference path (put/get) — one one-message block per Put,
//     one lock acquisition per 256-bit message, back-pressured at the
//     hardware buffer depth; and
//   * the bulk path (put_payload/get_span) — a whole tile's worth of
//     messages is queued, or read, under a single lock acquisition. Bulk
//     puts deliberately ignore the slot capacity: blocking on a full
//     buffer is host-scheduling behaviour only (no cycles are ever
//     charged for it), so batching past the depth changes no modeled
//     observable while eliminating the dominant host cost of the bus.
//     Cycle and message accounting stay per-Vec4 in the caller.
//
// Where a Get finds the buffer empty (or a Vec4 Put finds it full), a CPE
// running as a fiber parks in its FiberScheduler until the buffer
// changes; a plain thread waits on a condition variable.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

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

/// A run of `messages` 256-bit messages, 4 lanes each, shared by the
/// receivers of one Put or broadcast.
struct Payload {
  std::unique_ptr<double[]> lanes;  ///< 4 << size_class doubles
  std::size_t messages = 0;
  std::atomic<int> readers{0};  ///< receivers that have not released it
  unsigned size_class = 0;      ///< holds up to 1 << size_class messages
};

/// The message store of one mesh's transfer buffers. Blocks come in
/// power-of-two message capacities and are recycled, never freed before
/// the pool. Thread-safe: on the spawned-thread reference path all CPE
/// threads pack and release concurrently.
class PayloadPool {
 public:
  PayloadPool() = default;
  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  /// Packs `data` (not empty) into ceil(n/4) messages, trailing lanes
  /// zero, in a block that each of `readers` (>= 1) receivers releases
  /// once.
  Payload& pack(std::span<const double> data, int readers);

  /// Drops one receiver's reference; the last returns the block.
  void release(Payload& payload);

  /// Blocks allocated so far.
  std::size_t blocks() const;

  /// Blocks packed and not yet released by all their receivers.
  std::size_t outstanding() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Payload>> blocks_;
  std::vector<std::vector<Payload*>> free_;  ///< indexed by size class
  std::size_t outstanding_ = 0;
};

class TransferBuffer {
 public:
  /// Messages are stored in `pool`, which must outlive the buffer.
  /// `bus` names the buffer in deadlock reports, e.g. "row bus".
  TransferBuffer(PayloadPool& pool, std::size_t capacity,
                 const char* bus = "transfer buffer")
      : pool_(pool), capacity_(capacity), bus_(bus) {}

  /// Blocking bounded push (sender side of a bus Put).
  void put(const Vec4& value);

  /// Blocking pop (receiver's Get into its register file). Ends the
  /// last span view, as every receive does.
  Vec4 get();

  /// Bulk sender: queues every message of `payload`, a block of this
  /// buffer's pool that counts this buffer among its readers, under one
  /// lock acquisition. Never blocks on capacity — see the header
  /// comment for why that is observationally safe.
  void put_payload(Payload& payload);

  /// Bulk receiver: pops ceil(n/4) messages, n = buffer.size(), under
  /// one lock acquisition (waiting while the buffer is empty) and
  /// returns their first n doubles. When the messages lie in one
  /// payload the span points into it, and the buffer keeps the payload's
  /// reader reference for it; when they straddle payloads they are
  /// copied into `buffer` and the span is `buffer`. A view stays valid
  /// until the next receive on this buffer, release_view() or clear().
  [[nodiscard]] std::span<const double> get_span(std::span<double> buffer);

  /// Returns the payload that the last view reads, if this buffer still
  /// holds it, to the pool (end of a launch).
  void release_view();

  /// Drops any buffered messages and releases their payloads and the
  /// last view's (launch-boundary reset).
  void clear();

  /// Number of messages currently buffered (for tests).
  std::size_t size() const;

  std::size_t capacity() const { return capacity_; }

 private:
  /// A queued payload and the index of its first unread message.
  struct Segment {
    Payload* payload = nullptr;
    std::size_t next = 0;
  };

  /// Returns once a message is queued, or with `for_room` once a slot
  /// is free; `lock` holds mutex_ on entry and on return.
  void await(std::unique_lock<std::mutex>& lock, bool for_room);
  /// Appends a segment / drops the front one and returns its payload,
  /// whose reader reference passes to the caller; mutex_ held.
  void push(Payload& payload);
  Payload& pop_front();
  static bool has_message(const void* buffer, std::uint64_t);
  static bool has_room(const void* buffer, std::uint64_t);

  PayloadPool& pool_;
  const std::size_t capacity_;
  const char* const bus_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<Segment> ring_;  ///< power-of-two size, grows when full
  std::size_t head_ = 0;       ///< ring index of the oldest segment
  std::size_t segments_ = 0;
  std::size_t messages_ = 0;  ///< unread messages across the segments
  /// The payload the last view reads, or null. Only the receiving CPE
  /// touches it during a launch, and the executor between launches.
  Payload* view_ = nullptr;
};

}  // namespace swdnn::sim
