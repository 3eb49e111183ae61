#include "src/sim/regcomm.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/sim/fiber.h"

#if defined(__SANITIZE_ADDRESS__)
#define SWDNN_REGCOMM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SWDNN_REGCOMM_ASAN 1
#endif
#endif

#ifdef SWDNN_REGCOMM_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace swdnn::sim {

namespace {
// Under ASan only the lanes of a packed payload are addressable: a
// receiver that reads a block after its release (a view kept past the
// next receive on its bus), or past its last message, faults instead of
// reading a recycled tile.
void expose_lanes([[maybe_unused]] const Payload& p) {
#ifdef SWDNN_REGCOMM_ASAN
  const std::size_t used = 4 * p.messages;
  ASAN_UNPOISON_MEMORY_REGION(p.lanes.get(), used * sizeof(double));
  ASAN_POISON_MEMORY_REGION(p.lanes.get() + used,
                            ((std::size_t{4} << p.size_class) - used) *
                                sizeof(double));
#endif
}

void hide_lanes([[maybe_unused]] const Payload& p) {
#ifdef SWDNN_REGCOMM_ASAN
  ASAN_POISON_MEMORY_REGION(p.lanes.get(),
                            (std::size_t{4} << p.size_class) * sizeof(double));
#endif
}
}  // namespace

Payload& PayloadPool::pack(std::span<const double> data, int readers) {
  const std::size_t messages = (data.size() + 3) / 4;
  const auto size_class = static_cast<unsigned>(std::bit_width(messages - 1));
  Payload* p = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (free_.size() <= size_class) free_.resize(size_class + 1);
    std::vector<Payload*>& free = free_[size_class];
    if (free.empty()) {
      auto block = std::make_unique<Payload>();
      block->lanes = std::make_unique_for_overwrite<double[]>(
          std::size_t{4} << size_class);
      block->size_class = size_class;
      p = blocks_.emplace_back(std::move(block)).get();
    } else {
      p = free.back();
      free.pop_back();
    }
    ++outstanding_;
  }
  p->messages = messages;
  p->readers.store(readers, std::memory_order_relaxed);
  expose_lanes(*p);
  double* lanes = p->lanes.get();
  std::memcpy(lanes, data.data(), data.size_bytes());
  std::fill(lanes + data.size(), lanes + 4 * messages, 0.0);
  return *p;
}

void PayloadPool::release(Payload& payload) {
  if (payload.readers.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  hide_lanes(payload);
  std::lock_guard<std::mutex> lock(mutex_);
  free_[payload.size_class].push_back(&payload);
  --outstanding_;
}

std::size_t PayloadPool::blocks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blocks_.size();
}

std::size_t PayloadPool::outstanding() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return outstanding_;
}

// Fiber-wait predicates. The scheduler polls them between fibers, on
// the thread that runs every CPE of the launch, so nothing can change
// the count during the read and it needs no lock.
bool TransferBuffer::has_message(const void* buffer, std::uint64_t) {
  return static_cast<const TransferBuffer*>(buffer)->messages_ > 0;
}

bool TransferBuffer::has_room(const void* buffer, std::uint64_t) {
  const auto* self = static_cast<const TransferBuffer*>(buffer);
  return self->messages_ < self->capacity_;
}

void TransferBuffer::await(std::unique_lock<std::mutex>& lock,
                           bool for_room) {
  const auto ready = [this, for_room] {
    return for_room ? messages_ < capacity_ : messages_ > 0;
  };
  FiberScheduler* fibers = FiberScheduler::current();
  if (fibers == nullptr) {
    (for_room ? not_full_ : not_empty_).wait(lock, ready);
    return;
  }
  while (!ready()) {
    lock.unlock();
    fibers->park(FiberWait{for_room ? &has_room : &has_message, this, 0,
                           for_room ? "waits for a free slot on the"
                                    : "waits for a message on the",
                           bus_});
    lock.lock();
  }
}

void TransferBuffer::push(Payload& payload) {
  if (segments_ == ring_.size()) {
    std::vector<Segment> grown(std::max<std::size_t>(4, 2 * ring_.size()));
    for (std::size_t i = 0; i < segments_; ++i) {
      grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_.swap(grown);
    head_ = 0;
  }
  ring_[(head_ + segments_) & (ring_.size() - 1)] = Segment{&payload, 0};
  ++segments_;
  messages_ += payload.messages;
}

Payload& TransferBuffer::pop_front() {
  const Segment& s = ring_[head_];
  Payload& payload = *s.payload;
  messages_ -= payload.messages - s.next;
  head_ = (head_ + 1) & (ring_.size() - 1);
  --segments_;
  return payload;
}

void TransferBuffer::put(const Vec4& value) {
  Payload& payload = pool_.pack(value.lane, 1);
  std::unique_lock<std::mutex> lock(mutex_);
  await(lock, /*for_room=*/true);
  push(payload);
  lock.unlock();
  not_empty_.notify_one();
}

Vec4 TransferBuffer::get() {
  release_view();
  std::unique_lock<std::mutex> lock(mutex_);
  await(lock, /*for_room=*/false);
  Segment& s = ring_[head_];
  Vec4 value;
  std::memcpy(value.lane, s.payload->lanes.get() + 4 * s.next,
              sizeof(value.lane));
  ++s.next;
  --messages_;
  if (s.next == s.payload->messages) pool_.release(pop_front());
  lock.unlock();
  not_full_.notify_one();
  return value;
}

void TransferBuffer::put_payload(Payload& payload) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    push(payload);
  }
  not_empty_.notify_one();
}

std::span<const double> TransferBuffer::get_span(std::span<double> buffer) {
  release_view();
  const std::size_t messages = (buffer.size() + 3) / 4;
  std::unique_lock<std::mutex> lock(mutex_);
  await(lock, /*for_room=*/false);
  Segment& front = ring_[head_];
  if (front.payload->messages - front.next >= messages) {
    // One payload holds every message: lend a view of it.
    const double* lanes = front.payload->lanes.get() + 4 * front.next;
    front.next += messages;
    messages_ -= messages;
    if (front.next == front.payload->messages) view_ = &pop_front();
    lock.unlock();
    not_full_.notify_all();
    return {lanes, buffer.size()};
  }
  std::size_t off = 0;
  for (;;) {
    while (segments_ > 0 && off < buffer.size()) {
      Segment& s = ring_[head_];
      const std::size_t take = std::min(s.payload->messages - s.next,
                                        (buffer.size() - off + 3) / 4);
      const std::size_t n = std::min(4 * take, buffer.size() - off);
      std::memcpy(buffer.data() + off, s.payload->lanes.get() + 4 * s.next,
                  n * sizeof(double));
      off += n;
      s.next += take;
      messages_ -= take;
      if (s.next == s.payload->messages) pool_.release(pop_front());
    }
    // Wake reference-path senders parked on the slot capacity before we
    // wait for the rest of the span, or a mixed put/get_span pair would
    // deadlock at the buffer depth.
    not_full_.notify_all();
    if (off == buffer.size()) return buffer;
    await(lock, /*for_room=*/false);
  }
}

void TransferBuffer::release_view() {
  if (view_ == nullptr) return;
  pool_.release(*view_);
  view_ = nullptr;
}

void TransferBuffer::clear() {
  release_view();
  std::lock_guard<std::mutex> lock(mutex_);
  while (segments_ > 0) pool_.release(pop_front());
}

std::size_t TransferBuffer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return messages_;
}

}  // namespace swdnn::sim
