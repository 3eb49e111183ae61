#include "src/sim/regcomm.h"

#include "src/sim/fiber.h"

namespace swdnn::sim {

bool TransferBuffer::has_message(const void* buffer, std::uint64_t) {
  return static_cast<const TransferBuffer*>(buffer)->size() > 0;
}

bool TransferBuffer::has_room(const void* buffer, std::uint64_t) {
  const auto* self = static_cast<const TransferBuffer*>(buffer);
  return self->size() < self->capacity_;
}

void TransferBuffer::await(std::unique_lock<std::mutex>& lock,
                           bool for_room) {
  const auto ready = [this, for_room] {
    return for_room ? queue_.size() < capacity_ : !queue_.empty();
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

void TransferBuffer::put(const Vec4& value) {
  std::unique_lock<std::mutex> lock(mutex_);
  await(lock, /*for_room=*/true);
  queue_.push_back(value);
  lock.unlock();
  not_empty_.notify_one();
}

Vec4 TransferBuffer::get() {
  std::unique_lock<std::mutex> lock(mutex_);
  await(lock, /*for_room=*/false);
  Vec4 value = queue_.front();
  queue_.pop_front();
  lock.unlock();
  not_full_.notify_one();
  return value;
}

void TransferBuffer::put_packed(std::span<const double> data) {
  if (data.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t off = 0; off < data.size(); off += 4) {
      Vec4 v;
      for (int l = 0; l < 4; ++l) {
        const std::size_t idx = off + static_cast<std::size_t>(l);
        v.lane[l] = idx < data.size() ? data[idx] : 0.0;
      }
      queue_.push_back(v);
    }
  }
  not_empty_.notify_one();
}

void TransferBuffer::get_unpacked(std::span<double> out) {
  std::size_t off = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (off < out.size()) {
    await(lock, /*for_room=*/false);
    while (!queue_.empty() && off < out.size()) {
      const Vec4 v = queue_.front();
      queue_.pop_front();
      for (int l = 0; l < 4; ++l) {
        const std::size_t idx = off + static_cast<std::size_t>(l);
        if (idx < out.size()) out[idx] = v.lane[l];
      }
      off += 4;
    }
    // Wake reference-path senders parked on the slot capacity before we
    // wait for the rest of the span, or a mixed put/get_unpacked pair
    // would deadlock at the buffer depth.
    not_full_.notify_all();
  }
}

void TransferBuffer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  queue_.clear();
}

std::size_t TransferBuffer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace swdnn::sim
