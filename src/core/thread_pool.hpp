// Fixed-size worker pool with a parallel_for primitive for the simulator's
// hot loops (batched CIM matvecs, MC-Dropout iterations, particle blocks).
//
// Design goals, in order:
//
//  1. Reproducibility. The pool owns no randomness: code that must be
//     bit-exact at any thread count keys its streams on the work-item
//     index via core::Rng::stream(root, index), so the partitioning of
//     items onto workers never affects results.
//  2. Safety under nesting. parallel_for called from inside a worker (for
//     example a batched layer inside a parallelized MC iteration) degrades
//     to an inline serial loop instead of deadlocking the pool.
//  3. Zero steady-state allocation. One job descriptor lives on the
//     caller's stack; workers pull chunk indices from an atomic cursor.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cimnav::core {

class ThreadPool {
 public:
  /// Owning chunked loop body: [begin, end) of the index space, executing
  /// worker id. Store one of these when a body must outlive its binding
  /// site (e.g. bound once in a constructor and dispatched every tick).
  using ForBody = std::function<void(std::size_t, std::size_t, int)>;

  /// Non-owning view of a loop body. parallel_for blocks until the loop
  /// completes, so the body never outlives the call — hot paths that
  /// build a capturing lambda per dispatch type-erase through this view
  /// without the std::function heap allocation (goal 3 above applies to
  /// the dispatch itself, not just the chunk cursor).
  class ForBodyRef {
   public:
    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::remove_cv_t<std::remove_reference_t<F>>, ForBodyRef>>>
    ForBodyRef(F&& f)  // NOLINT(google-explicit-constructor)
        : ctx_(const_cast<void*>(static_cast<const void*>(&f))),
          call_([](void* ctx, std::size_t begin, std::size_t end,
                   int worker) {
            (*static_cast<std::remove_reference_t<F>*>(ctx))(begin, end,
                                                             worker);
          }) {}
    void operator()(std::size_t begin, std::size_t end, int worker) const {
      call_(ctx_, begin, end, worker);
    }

   private:
    void* ctx_;
    void (*call_)(void*, std::size_t, std::size_t, int);
  };

  /// `threads` <= 0 selects std::thread::hardware_concurrency(). The pool
  /// spawns threads-1 workers; the caller of parallel_for participates as
  /// worker 0.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + the participating caller).
  int thread_count() const { return thread_count_; }

  /// Runs body over [0, n) in chunks of at most `grain` indices. Blocks
  /// until every chunk has finished. Concurrent calls from different
  /// threads serialize; calls from inside a pool worker run inline. If a
  /// chunk body throws, remaining chunks still run, and the first
  /// exception is rethrown on the calling thread after the job completes.
  void parallel_for(std::size_t n, std::size_t grain, ForBodyRef body);

 private:
  struct Job {
    const ForBodyRef* body = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t n_chunks = 0;
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::size_t> done_chunks{0};
    // Workers currently inside drain(); the job descriptor lives on the
    // caller's stack, so the caller must not return while this is nonzero.
    std::atomic<int> active_workers{0};
    // First exception thrown by any chunk body (guarded by the pool
    // mutex); rethrown on the caller's thread once the job completes.
    std::atomic<bool> failed{false};
    std::exception_ptr error;
  };

  void worker_loop(int worker_index);
  void drain(Job& job, int worker_index);

  int thread_count_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;                  // guards job_ / generation_ / stop_
  std::condition_variable wake_;      // workers wait for a new generation
  std::condition_variable finished_;  // caller waits for done_chunks == n
  std::mutex submit_mutex_;           // serializes concurrent parallel_for
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace cimnav::core
