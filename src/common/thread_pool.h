// A small fixed-size thread pool driving blocking parallel-for loops — the
// execution substrate for the sharded embedding kernels
// (image/embedding_store.h), the query server's per-query tasks
// (server/query_server.h), and any other data-parallel scan.
//
// Design points:
//   - ParallelFor(n, fn) blocks until every fn(i) has returned; the calling
//     thread participates, so a pool of E executors spawns E-1 workers and
//     ThreadPool(1) degenerates to a plain serial loop with no threads.
//   - Work is claimed index-by-index under the pool mutex: shards are the
//     unit of scheduling, so callers should pass a handful of coarse shards
//     per executor, not one index per element.
//   - Concurrent ParallelFor calls from different threads serialize (one job
//     at a time); nested calls from inside fn are not allowed.
//   - TryPost enqueues a fire-and-forget task onto a *bounded* queue; when
//     the queue is full (or the pool has no workers) it refuses, which is
//     the backpressure signal: the caller runs the work itself instead of
//     piling up unbounded tasks. Blocking jobs take priority over queued
//     tasks, so posted work never delays a ParallelFor.
//   - All state is mutex/condvar protected (no lock-free cleverness), which
//     keeps the pool ThreadSanitizer-clean by construction — and, since the
//     migration to the annotated sync layer, provably lock-disciplined at
//     compile time: every job/queue field is GUARDED_BY(mu_), so an access
//     outside the lock is a -Wthread-safety error on Clang (DESIGN §3i).

#ifndef FUZZYDB_COMMON_THREAD_POOL_H_
#define FUZZYDB_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace fuzzydb {

/// Minimal task-submission interface. Schedule() runs `task` now (inline, on
/// the calling thread) or later (on any thread); every accepted task runs
/// exactly once, and implementations must not drop tasks silently while
/// callers can still observe their effects. The indirection exists so tests
/// can inject hostile schedulers (deferred, shuffled) under the query
/// server.
class TaskExecutor {
 public:
  virtual ~TaskExecutor() = default;
  virtual void Schedule(std::function<void()> task) = 0;
};

/// A TaskExecutor that always runs the task inline on the calling thread.
/// Stateless; Get() returns a process-wide instance.
class InlineExecutor final : public TaskExecutor {
 public:
  void Schedule(std::function<void()> task) override { task(); }
  static InlineExecutor* Get();
};

/// Fixed pool of worker threads for blocking parallel loops plus a bounded
/// queue of fire-and-forget tasks.
class ThreadPool : public TaskExecutor {
 public:
  /// A pool with `num_executors` total executors: the calling thread plus
  /// `num_executors - 1` workers. 0 is treated as 1 (fully serial).
  /// `max_queued_tasks` bounds the TryPost queue.
  explicit ThreadPool(size_t num_executors, size_t max_queued_tasks = 64);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executors, counting the thread that calls ParallelFor.
  size_t executors() const { return workers_.size() + 1; }

  /// Runs fn(i) for every i in [0, n), spread across the executors; returns
  /// once all calls have completed. `fn` must not throw and must not call
  /// ParallelFor on the same pool (jobs from *different* threads are safe
  /// and simply serialize).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Enqueues `task` to run on a worker thread. Returns false — without
  /// running or keeping the task — when the queue is at max_queued_tasks,
  /// the pool has no workers, or the pool is shut down; that refusal is the
  /// backpressure signal. Tasks still queued when Shutdown() (or the
  /// destructor) runs are drained, not dropped: refusal-after-stop plus
  /// drain-before-join is what lets a submitter reason "either my TryPost
  /// returned false, or my task ran".
  bool TryPost(std::function<void()> task);

  /// Stops accepting tasks, drains the queue, and joins the workers.
  /// Idempotent; the destructor calls it. After Shutdown, TryPost refuses
  /// and ParallelFor still works (degenerating to a serial loop on the
  /// calling thread, which claims every index itself).
  void Shutdown();

  /// TaskExecutor: TryPost, falling back to running inline on refusal (the
  /// backpressure path — the submitter absorbs the work itself).
  void Schedule(std::function<void()> task) override;

  /// Queued (not yet started) TryPost tasks; test/diagnostic aid.
  size_t queued_tasks() const;

  /// Process-wide shared pool sized to the hardware concurrency (always at
  /// least one executor). Never destroyed before exit.
  static ThreadPool* Shared();

  /// std::thread::hardware_concurrency clamped to >= 1 (the standard allows
  /// 0 for "unknown"). The single definition of "is this host actually
  /// parallel" — bench reports derive their contention_only flag from it.
  static size_t HardwareConcurrency();

 private:
  void WorkerLoop();

  mutable Mutex mu_;
  CondVar job_cv_;   // workers: a new job or task is ready
  CondVar done_cv_;  // submitters: job finished / slot free
  // null = no job
  const std::function<void(size_t)>* job_fn_ GUARDED_BY(mu_) = nullptr;
  size_t job_n_ GUARDED_BY(mu_) = 0;     // total indices in the current job
  size_t job_next_ GUARDED_BY(mu_) = 0;  // next unclaimed index
  size_t job_done_ GUARDED_BY(mu_) = 0;  // indices whose fn() has returned
  // bumps per job so workers never re-enter one
  uint64_t job_id_ GUARDED_BY(mu_) = 0;
  // TryPost queue (bounded)
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  const size_t max_queued_tasks_;
  bool stop_ GUARDED_BY(mu_) = false;
  // Written only before the workers start and joined in the destructor;
  // never touched by a worker, so it needs no guard.
  std::vector<std::thread> workers_;
};

/// Contiguous index range [begin, end) of one shard.
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Splits [0, n) into `shards` near-equal contiguous ranges (the first
/// n % shards ranges get one extra element). Deterministic in (n, shards)
/// only — the basis for bit-identical sharded scans at any thread count.
/// Empty ranges are kept so indices align with shard numbers.
std::vector<ShardRange> MakeShards(size_t n, size_t shards);

}  // namespace fuzzydb

#endif  // FUZZYDB_COMMON_THREAD_POOL_H_
