#include "common/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/shard.h"
#include "obs/trace.h"

namespace kea::common {

namespace {

/// The pool whose worker is executing on this thread, if any. Lets
/// ParallelFor detect same-pool nesting and fall back to inline execution
/// instead of deadlocking on its own drained workers.
thread_local const ThreadPool* t_current_pool = nullptr;

// Deterministic instruments: one job per ParallelFor/Run, one task per loop
// index — totals are independent of thread count by construction, so the
// inline and pooled paths below must bump them identically.
obs::Counter* JobsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("threadpool.jobs");
  return c;
}
obs::Counter* TasksCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("threadpool.tasks");
  return c;
}

// Timing instruments (kTiming: wall-clock derived, excluded from the
// deterministic exports). Wait = dispatch -> index pickup; run = body
// duration; queue depth = indices still unclaimed at pickup.
obs::Histogram* TaskWaitHistogram() {
  static obs::Histogram* h = obs::Registry::Get().GetHistogram(
      "threadpool.task_wait_us", "", obs::LatencyBucketsUs(),
      obs::Kind::kTiming);
  return h;
}
obs::Histogram* TaskRunHistogram() {
  static obs::Histogram* h = obs::Registry::Get().GetHistogram(
      "threadpool.task_run_us", "", obs::LatencyBucketsUs(),
      obs::Kind::kTiming);
  return h;
}
obs::Histogram* QueueDepthHistogram() {
  static obs::Histogram* h = obs::Registry::Get().GetHistogram(
      "threadpool.queue_depth", "", obs::DepthBuckets(), obs::Kind::kTiming);
  return h;
}

double ElapsedUs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// The serial paths (no workers, n == 1, nested call, Run with one thread)
// must count the same logical events as the pooled path.
void RunInline(size_t n, const std::function<void(size_t)>& fn) {
  JobsCounter()->Increment();
  for (size_t i = 0; i < n; ++i) {
    fn(i);
    TasksCounter()->Increment();
  }
}

}  // namespace

int ThreadPool::ResolveThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
  int total = ResolveThreads(num_threads);
  workers_.reserve(static_cast<size_t>(total - 1));
  for (int i = 1; i < total; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // All worker shards folded (see WorkerLoop); one epoch advance drains any
  // residue the dispatching thread accumulated during this pool's jobs into
  // the central base. Transient pools (ThreadPool::Run) therefore leave no
  // per-thread shard memory behind.
  obs::ShardRegistry::Get().AdvanceEpoch();
}

void ThreadPool::WorkerLoop() {
  t_current_pool = this;
  {
    std::unique_lock<std::mutex> lock(mu_);
    uint64_t seen_generation = 0;
    while (true) {
      work_cv_.wait(lock,
                    [&] { return stopping_ || generation_ != seen_generation; });
      if (stopping_) break;
      seen_generation = generation_;
      // Scopes opened by this job's bodies nest under the ParallelFor scope
      // that dispatched them, in the phase trie and in the trace.
      obs::SetThreadScope(job_scope_);
      DrainIndices(lock, seen_generation);
      obs::SetThreadScope(obs::ScopeContext{});
    }
  }
  // Eagerly retire this worker's obs shard (the TLS destructor would too,
  // but doing it here bounds shard-table growth deterministically even if
  // the runtime defers TLS teardown).
  obs::ShardRegistry::Get().FoldCurrentThread();
}

void ThreadPool::DrainIndices(std::unique_lock<std::mutex>& lock,
                              uint64_t generation) {
  while (generation_ == generation && !stopping_ && next_index_ < job_size_) {
    const size_t i = next_index_++;
    const std::function<void(size_t)>* job = job_;
    const size_t depth = job_size_ - next_index_;
    const auto dispatch_time = job_dispatch_time_;
    lock.unlock();

    const bool timing = obs::MetricsEnabled();
    std::chrono::steady_clock::time_point run_start;
    if (timing) {
      run_start = std::chrono::steady_clock::now();
      TaskWaitHistogram()->Observe(ElapsedUs(dispatch_time, run_start));
      QueueDepthHistogram()->Observe(static_cast<double>(depth));
    }

    std::exception_ptr err;
    try {
      (*job)(i);
    } catch (...) {
      err = std::current_exception();
    }

    if (timing) {
      TaskRunHistogram()->Observe(
          ElapsedUs(run_start, std::chrono::steady_clock::now()));
    }
    TasksCounter()->Increment();

    lock.lock();
    if (err && (!error_ || i < error_index_)) {
      error_ = err;
      error_index_ = i;
    }
    if (++completed_ == job_size_) done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1 || t_current_pool == this) {
    RunInline(n, fn);
    return;
  }

  KEA_TRACE_SPAN("threadpool.parallel_for", {{"n", std::to_string(n)}});
  JobsCounter()->Increment();

  // The caller participates in the loop below, so it must carry the same
  // nesting marker as the workers: a re-entrant ParallelFor from one of the
  // caller-drained bodies would otherwise stomp this job's state.
  const ThreadPool* previous_pool = t_current_pool;
  t_current_pool = this;

  std::unique_lock<std::mutex> lock(mu_);
  job_ = &fn;
  job_size_ = n;
  next_index_ = 0;
  completed_ = 0;
  error_index_ = 0;
  error_ = nullptr;
  job_dispatch_time_ = std::chrono::steady_clock::now();
  // Workers adopt this scope in WorkerLoop; the caller drains inside it.
  job_scope_ = obs::CurrentScope();
  const uint64_t generation = ++generation_;
  work_cv_.notify_all();

  DrainIndices(lock, generation);
  done_cv_.wait(lock, [&] { return completed_ == job_size_; });
  t_current_pool = previous_pool;

  job_ = nullptr;
  std::exception_ptr err = error_;
  error_ = nullptr;
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

void ThreadPool::Run(int num_threads, size_t n,
                     const std::function<void(size_t)>& fn) {
  int total = ResolveThreads(num_threads);
  if (total <= 1 || n < 2) {
    RunInline(n, fn);
    return;
  }
  total = static_cast<int>(std::min<size_t>(static_cast<size_t>(total), n));
  ThreadPool pool(total);
  pool.ParallelFor(n, fn);
}

}  // namespace kea::common
