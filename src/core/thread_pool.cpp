#include "core/thread_pool.hpp"

#include <algorithm>

namespace cimnav::core {
namespace {

// Set while a thread executes chunks, so nested parallel_for calls (a
// batched macro inside a parallelized MC iteration) run inline instead of
// waiting on the pool they are already occupying.
thread_local bool tls_in_parallel_region = false;

// Worker id of the pool thread currently executing chunks; nested/serial
// parallel_for fallbacks report it to their bodies so per-worker state
// stays distinct even through inline execution.
thread_local int tls_worker_index = 0;

// Exception-safe scope for the flags above.
struct ParallelRegionGuard {
  bool previous;
  int previous_worker;
  explicit ParallelRegionGuard(int worker)
      : previous(tls_in_parallel_region), previous_worker(tls_worker_index) {
    tls_in_parallel_region = true;
    tls_worker_index = worker;
  }
  ~ParallelRegionGuard() {
    tls_in_parallel_region = previous;
    tls_worker_index = previous_worker;
  }
};

}  // namespace

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  thread_count_ = threads;
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int w = 1; w < threads; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::drain(Job& job, int worker_index) {
  ParallelRegionGuard region(worker_index);
  for (;;) {
    const std::size_t chunk =
        job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.n_chunks) break;
    const std::size_t begin = chunk * job.grain;
    const std::size_t end = std::min(begin + job.grain, job.n);
    try {
      (*job.body)(begin, end, worker_index);
    } catch (...) {
      // Record the first failure; letting an exception escape a worker
      // thread would terminate the process, and escaping the caller's
      // drain would unwind past the job's completion wait.
      std::lock_guard<std::mutex> lock(mutex_);
      if (!job.failed.exchange(true)) job.error = std::current_exception();
    }
    job.done_chunks.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              ForBodyRef body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  // Serial fallbacks: a 1-thread pool, a nested call from a worker, or a
  // range that fits in one chunk.
  if (thread_count_ == 1 || tls_in_parallel_region || n <= grain) {
    const int worker = tls_worker_index;
    ParallelRegionGuard region(worker);
    // Same contract as the pooled path: every chunk runs, the first
    // exception is rethrown once the loop completes.
    std::exception_ptr error;
    for (std::size_t begin = 0; begin < n; begin += grain) {
      try {
        body(begin, std::min(begin + grain, n), worker);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }

  std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  Job job;
  job.body = &body;
  job.n = n;
  job.grain = grain;
  job.n_chunks = (n + grain - 1) / grain;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++generation_;
  }
  wake_.notify_all();
  drain(job, /*worker_index=*/0);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    finished_.wait(lock, [&] {
      return job.done_chunks.load(std::memory_order_acquire) == job.n_chunks &&
             job.active_workers.load(std::memory_order_acquire) == 0;
    });
    job_ = nullptr;
  }
  if (job.failed.load(std::memory_order_acquire))
    std::rethrow_exception(job.error);
}

void ThreadPool::worker_loop(int worker_index) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      seen_generation = generation_;
      job = job_;
      // Registered under the mutex, so the caller cannot observe "no active
      // workers" and retire the job between our job_ read and this add.
      job->active_workers.fetch_add(1, std::memory_order_relaxed);
    }
    drain(*job, worker_index);
    job->active_workers.fetch_sub(1, std::memory_order_acq_rel);
    // `job` may dangle from here on; only pool members may be touched.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      finished_.notify_all();
    }
  }
}

}  // namespace cimnav::core
