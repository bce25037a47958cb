// Pooled future-style completion slot.
//
// A Completion<T> is the shared state behind a poll/wait handle
// (fleet::SessionHandle): one side publishes a value exactly once per
// cycle, any number of handle threads poll or block on it. Unlike
// std::promise/std::future the state is designed to be *pooled*: it is
// embedded in a preallocated slot, carries an intrusive reference count,
// and `reset()` rearms it for the next occupant without touching the
// heap — publishing swaps the value in, so vector capacities inside T
// circulate between the producer and the pool instead of being
// reallocated. The owner of the pool decides what refcount zero means
// (typically: push the slot index back onto a free ring).
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>

namespace cimnav::core {

template <typename T>
class Completion {
 public:
  /// Rearms the slot for a new producer/consumer cycle. Must not race
  /// with poll/wait — callers rearm only while they hold the only
  /// reference (the pool's free list guarantees that).
  void reset() {
    error_ = nullptr;
    done_.store(false, std::memory_order_relaxed);
  }

  /// Publishes by swapping `value` in (the previous occupant's storage
  /// swaps out to the producer, keeping capacity in circulation) and
  /// wakes every waiter. Call at most once per reset() cycle.
  void complete(T& value) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      std::swap(value_, value);
      done_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }

  /// Publishes a failure instead of a value: done() turns true and
  /// wait() rethrows `error`. Call instead of complete(), at most once
  /// per reset() cycle.
  void fail(std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      error_ = std::move(error);
      done_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }

  /// True once complete() or fail() has run this cycle. Lock-free.
  bool done() const { return done_.load(std::memory_order_acquire); }

  /// Blocks until done and returns the published value, or rethrows the
  /// published failure. The reference is valid until the last handle
  /// releases the slot.
  const T& wait() const {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return done_.load(std::memory_order_acquire); });
    if (error_) std::rethrow_exception(error_);
    return value_;
  }

  /// Non-blocking access; only meaningful when done().
  const T& value() const { return value_; }

  /// Intrusive reference counting; the pool owner maps "last release"
  /// to recycling. add_ref/release are safe from any thread.
  void add_ref(int n = 1) { refs_.fetch_add(n, std::memory_order_relaxed); }
  /// Returns the remaining count (0 = caller held the last reference).
  int release() {
    return refs_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  }
  int refs() const { return refs_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::atomic<bool> done_{false};
  std::atomic<int> refs_{0};
  std::exception_ptr error_;
  T value_{};
};

}  // namespace cimnav::core
