#ifndef KEA_COMMON_THREAD_POOL_H_
#define KEA_COMMON_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace kea::common {

/// A fixed-size fork-join pool for KEA's embarrassingly parallel loops: the
/// Monte-Carlo candidate grid, per-group model fitting, and the fluid-engine
/// configuration sweep.
///
/// Deliberately work-stealing-free: ParallelFor hands out loop indices from a
/// single shared counter, so scheduling only decides *when* an index runs,
/// never *what* it computes. Determinism therefore rests with the loop body:
/// one that derives all of its randomness from the index (see Rng::Split)
/// produces bit-identical results at any thread count.
///
/// `num_threads` counts total concurrency including the calling thread: the
/// pool spawns num_threads - 1 workers and the caller participates in every
/// ParallelFor. num_threads == 1 spawns nothing and runs loops inline — the
/// exact legacy serial path.
///
/// The pool is built for coarse-grained bodies (hundreds of microseconds and
/// up); index handoff takes the pool mutex, which would dominate a
/// nanosecond-scale loop body.
class ThreadPool {
 public:
  /// 0 = std::thread::hardware_concurrency(). Clamped to >= 1.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency of ParallelFor: spawned workers + the caller.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(i) for every i in [0, n) and blocks until all calls return.
  /// Every index runs exactly once even when some throw; after the loop
  /// drains, the exception thrown at the *smallest* index is rethrown on the
  /// caller (smallest rather than first-observed, so the propagated error is
  /// independent of scheduling). Calling ParallelFor from inside one of this
  /// pool's workers runs the nested loop inline on that worker — the
  /// nested-submit deadlock guard.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// One-shot helper: resolves `num_threads` (0 = hardware concurrency),
  /// runs the loop inline when the effective count is 1 or n < 2, and
  /// otherwise spins up a transient pool of min(num_threads, n) threads.
  static void Run(int num_threads, size_t n, const std::function<void(size_t)>& fn);

  /// 0 -> hardware_concurrency (at least 1); any positive value unchanged.
  static int ResolveThreads(int num_threads);

 private:
  void WorkerLoop();
  /// Pulls and runs indices of the current job until it drains or the
  /// generation moves on. Called with `lock` held; releases it around fn.
  void DrainIndices(std::unique_lock<std::mutex>& lock, uint64_t generation);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< Workers wait here for a new job.
  std::condition_variable done_cv_;  ///< ParallelFor waits here for drain.
  bool stopping_ = false;            ///< Guarded by mu_.
  uint64_t generation_ = 0;          ///< Bumped per ParallelFor; guarded by mu_.

  // Current job; all fields guarded by mu_.
  const std::function<void(size_t)>* job_ = nullptr;
  size_t job_size_ = 0;
  size_t next_index_ = 0;
  size_t completed_ = 0;
  size_t error_index_ = 0;
  std::exception_ptr error_;

  // Observability context of the current job (guarded by mu_): the dispatch
  // time feeds the task-wait histogram and the dispatching scope lets
  // worker-side scopes nest under the ParallelFor scope (kTiming only — none
  // of this affects which index runs where).
  std::chrono::steady_clock::time_point job_dispatch_time_{};
  obs::ScopeContext job_scope_;
};

}  // namespace kea::common

#endif  // KEA_COMMON_THREAD_POOL_H_
