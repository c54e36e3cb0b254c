// ThreadPool / MakeShards unit tests. The pool is the substrate for the
// sharded embedding kernels, so the properties pinned here — every index
// runs exactly once, callers participate, a job that finds the pool busy or
// is nested in another runs inline, and shard geometry depends only on
// (n, shards) — are what the bit-identical guarantees in
// image/embedding_store.h stand on.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace fuzzydb {
namespace {

// Condition-variable latch for synchronizing with fire-and-forget tasks.
// Tests must never sleep-and-hope: they wait on an explicit signal.
class Latch {
 public:
  explicit Latch(size_t count) : remaining_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (remaining_ > 0 && --remaining_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t remaining_;
};

TEST(MakeShardsTest, SplitsEvenlyWithRemainderUpFront) {
  std::vector<ShardRange> shards = MakeShards(10, 3);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].begin, 0u);
  EXPECT_EQ(shards[0].end, 4u);  // first shard takes the extra element
  EXPECT_EQ(shards[1].begin, 4u);
  EXPECT_EQ(shards[1].end, 7u);
  EXPECT_EQ(shards[2].begin, 7u);
  EXPECT_EQ(shards[2].end, 10u);
}

TEST(MakeShardsTest, CoversEveryIndexExactlyOnce) {
  for (size_t n : {0u, 1u, 2u, 7u, 64u, 1000u}) {
    for (size_t s : {1u, 2u, 3u, 7u, 8u, 200u}) {
      std::vector<ShardRange> shards = MakeShards(n, s);
      ASSERT_EQ(shards.size(), s) << "n=" << n << " s=" << s;
      size_t covered = 0;
      size_t expect_begin = 0;
      for (const ShardRange& r : shards) {
        EXPECT_EQ(r.begin, expect_begin);
        EXPECT_LE(r.begin, r.end);
        covered += r.size();
        expect_begin = r.end;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(shards.back().end, n);
    }
  }
}

TEST(MakeShardsTest, ZeroShardsClampsToOne) {
  std::vector<ShardRange> shards = MakeShards(5, 0);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].begin, 0u);
  EXPECT_EQ(shards[0].end, 5u);
}

TEST(ThreadPoolTest, SingleExecutorRunsSeriallyOnCallingThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.executors(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(16);
  pool.ParallelFor(16, [&](size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ZeroExecutorsTreatedAsOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.executors(), 1u);
  size_t count = 0;
  pool.ParallelFor(5, [&](size_t) { ++count; });
  EXPECT_EQ(count, 5u);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  for (size_t executors : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(executors);
    EXPECT_EQ(pool.executors(), executors);
    for (size_t n : {0u, 1u, 2u, 5u, 100u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "executors=" << executors
                                     << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ManySmallJobsBackToBack) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int job = 0; job < 200; ++job) {
    pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200u * 8u);
}

TEST(ThreadPoolTest, ConcurrentSubmittersAllComplete) {
  ThreadPool pool(3);
  constexpr size_t kSubmitters = 4;
  constexpr size_t kIndices = 64;
  std::vector<std::vector<std::atomic<int>>> hits(kSubmitters);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kIndices);
  }
  std::vector<std::thread> submitters;
  for (size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int rep = 0; rep < 20; ++rep) {
        pool.ParallelFor(kIndices,
                         [&, s](size_t i) { hits[s][i].fetch_add(1); });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (size_t s = 0; s < kSubmitters; ++s) {
    for (size_t i = 0; i < kIndices; ++i) {
      EXPECT_EQ(hits[s][i].load(), 20) << "submitter " << s << " i " << i;
    }
  }
}

// A ParallelFor called from inside another's body runs inline on the
// calling thread: on the same pool it used to wait forever for the job it
// was part of. Every (outer, inner) index pair must still run exactly once.
void ExpectNestedRunsInline(ThreadPool& outer_pool, ThreadPool& inner_pool) {
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 32;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> off_thread{0};
  outer_pool.ParallelFor(kOuter, [&](size_t o) {
    const std::thread::id caller = std::this_thread::get_id();
    inner_pool.ParallelFor(kInner, [&](size_t i) {
      if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
      hits[o * kInner + i].fetch_add(1);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPoolTest, NestedCallOnTheSamePoolRunsInline) {
  ThreadPool pool(4);
  ExpectNestedRunsInline(pool, pool);
  // The pool is still usable, and runs jobs on its workers again.
  std::atomic<size_t> count{0};
  pool.ParallelFor(64, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64u);
}

TEST(ThreadPoolTest, NestedCallOnAnotherPoolRunsInline) {
  ThreadPool outer(4);
  ThreadPool inner(3);
  ExpectNestedRunsInline(outer, inner);
  ExpectNestedRunsInline(outer, *ThreadPool::Shared());
}

// A caller that finds another thread's job running does not wait for it:
// it runs its own loop on itself. Thread A's job holds the pool until B's
// call has returned, so B can only finish by running inline.
TEST(ThreadPoolTest, CallerFindingAnotherJobRunningRunsInline) {
  ThreadPool pool(4);
  Latch started(1);
  Latch b_done(1);
  std::atomic<int> off_thread{0};
  std::atomic<int> b_hits{0};
  std::thread a([&] {
    pool.ParallelFor(2, [&](size_t i) {
      if (i != 0) return;
      started.CountDown();
      b_done.Wait();
    });
  });
  started.Wait();
  EXPECT_FALSE(pool.CanFanOut());
  const std::thread::id b = std::this_thread::get_id();
  pool.ParallelFor(16, [&](size_t) {
    if (std::this_thread::get_id() != b) off_thread.fetch_add(1);
    b_hits.fetch_add(1);
  });
  b_done.CountDown();
  a.join();
  EXPECT_EQ(b_hits.load(), 16);
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_TRUE(pool.CanFanOut());
}

TEST(ThreadPoolTest, CanFanOutOnlyFromOutsideABodyOfAPoolWithWorkers) {
  ThreadPool serial(1);
  EXPECT_FALSE(serial.CanFanOut());
  ThreadPool pool(3);
  ThreadPool other(2);
  EXPECT_TRUE(pool.CanFanOut());
  std::atomic<int> could{0};
  other.ParallelFor(4, [&](size_t) {
    if (pool.CanFanOut()) could.fetch_add(1);
  });
  EXPECT_EQ(could.load(), 0);
  EXPECT_TRUE(pool.CanFanOut());
}

TEST(ThreadPoolTaskTest, PostedTaskRunsExactlyOnce) {
  ThreadPool pool(3);
  std::atomic<int> runs{0};
  Latch done(1);
  ASSERT_TRUE(pool.TryPost([&] {
    runs.fetch_add(1);
    done.CountDown();
  }));
  done.Wait();
  EXPECT_EQ(runs.load(), 1);
}

TEST(ThreadPoolTaskTest, WorkerlessPoolRefusesAndScheduleFallsBackInline) {
  ThreadPool pool(1);  // caller-only: no worker to ever drain a queue
  EXPECT_FALSE(pool.TryPost([] {}));
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.Schedule([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);  // Schedule ran the task inline, synchronously
  EXPECT_EQ(pool.queued_tasks(), 0u);
}

TEST(ThreadPoolTaskTest, FullQueueRefusesWithoutRunningOrKeepingTheTask) {
  // One worker, capacity two. A gate task blocks the worker so the queue
  // fills deterministically; the refused task must not run, ever.
  ThreadPool pool(2, 2);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  Latch worker_blocked(1);

  ASSERT_TRUE(pool.TryPost([&] {
    worker_blocked.CountDown();
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  }));
  worker_blocked.Wait();  // the worker is now inside the gate task

  std::atomic<int> queued_runs{0};
  Latch queued_done(2);
  ASSERT_TRUE(pool.TryPost([&] {
    queued_runs.fetch_add(1);
    queued_done.CountDown();
  }));
  ASSERT_TRUE(pool.TryPost([&] {
    queued_runs.fetch_add(1);
    queued_done.CountDown();
  }));
  EXPECT_EQ(pool.queued_tasks(), 2u);

  std::atomic<bool> refused_ran{false};
  EXPECT_FALSE(pool.TryPost([&] { refused_ran.store(true); }));

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  queued_done.Wait();  // both accepted tasks ran once unblocked
  EXPECT_EQ(queued_runs.load(), 2);
  EXPECT_FALSE(refused_ran.load());
}

TEST(ThreadPoolTaskTest, DestructorDrainsAcceptedTasks) {
  std::atomic<int> runs{0};
  {
    ThreadPool pool(2, 16);
    std::mutex gate_mu;
    std::condition_variable gate_cv;
    bool gate_open = false;
    Latch worker_blocked(1);
    ASSERT_TRUE(pool.TryPost([&] {
      worker_blocked.CountDown();
      std::unique_lock<std::mutex> lock(gate_mu);
      gate_cv.wait(lock, [&] { return gate_open; });
    }));
    worker_blocked.Wait();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(pool.TryPost([&] { runs.fetch_add(1); }));
    }
    {
      std::lock_guard<std::mutex> lock(gate_mu);
      gate_open = true;
    }
    gate_cv.notify_all();
    // Pool destroyed here with tasks possibly still queued.
  }
  EXPECT_EQ(runs.load(), 8);  // drained, not dropped
}

TEST(ThreadPoolTaskTest, TasksDoNotStarveBlockingJobs) {
  // Jobs take priority over queued tasks; both complete.
  ThreadPool pool(3, 64);
  std::atomic<int> task_runs{0};
  Latch tasks_done(32);
  for (int i = 0; i < 32; ++i) {
    pool.Schedule([&] {
      task_runs.fetch_add(1);
      tasks_done.CountDown();
    });
  }
  std::atomic<size_t> job_hits{0};
  pool.ParallelFor(64, [&](size_t) { job_hits.fetch_add(1); });
  EXPECT_EQ(job_hits.load(), 64u);
  tasks_done.Wait();
  EXPECT_EQ(task_runs.load(), 32);
}

TEST(ThreadPoolTaskTest, InlineExecutorRunsSynchronously) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  int order = 0;
  InlineExecutor::Get()->Schedule([&] {
    ran_on = std::this_thread::get_id();
    order = 1;
  });
  EXPECT_EQ(ran_on, caller);
  EXPECT_EQ(order, 1);  // completed before Schedule returned
  EXPECT_EQ(InlineExecutor::Get(), InlineExecutor::Get());
}

TEST(ThreadPoolShutdownTest, TryPostRefusesAfterShutdown) {
  // Regression: TryPost racing shutdown used to be only implicitly pinned
  // (stop_ was set by the destructor alone). The contract is refusal: after
  // Shutdown returns, no TryPost may accept, so a submitter can reason
  // "either my TryPost returned false, or my task ran".
  ThreadPool pool(3);
  std::atomic<int> runs{0};
  Latch done(1);
  ASSERT_TRUE(pool.TryPost([&] {
    runs.fetch_add(1);
    done.CountDown();
  }));
  done.Wait();
  pool.Shutdown();
  std::atomic<bool> late_ran{false};
  EXPECT_FALSE(pool.TryPost([&] { late_ran.store(true); }));
  EXPECT_EQ(runs.load(), 1);
  EXPECT_FALSE(late_ran.load());
  pool.Shutdown();  // idempotent
  EXPECT_FALSE(pool.TryPost([] {}));
}

TEST(ThreadPoolShutdownTest, ShutdownDrainsQueuedTasksBeforeJoining) {
  ThreadPool pool(2, 16);
  std::atomic<int> runs{0};
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  Latch worker_blocked(1);
  ASSERT_TRUE(pool.TryPost([&] {
    worker_blocked.CountDown();
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  }));
  worker_blocked.Wait();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.TryPost([&] { runs.fetch_add(1); }));
  }
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  pool.Shutdown();
  EXPECT_EQ(runs.load(), 8);  // accepted before stop → drained, not dropped
}

TEST(ThreadPoolShutdownTest, ParallelForStillWorksAfterShutdown) {
  ThreadPool pool(3);
  pool.Shutdown();
  std::vector<int> hits(32, 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(32);
  pool.ParallelFor(32, [&](size_t i) {
    ++hits[i];
    ran[i] = std::this_thread::get_id();
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << i;
    EXPECT_EQ(ran[i], caller) << i;  // submitter claimed every index itself
  }
}

TEST(ThreadPoolShutdownTest, ConcurrentTryPostVsShutdownNeverDropsAccepted) {
  // Hammer the race the fix pins: submitters TryPost while another thread
  // shuts the pool down. Every accepted task must run exactly once — no
  // silent drops, no double runs — and every post after shutdown refuses.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(3, 8);
    std::atomic<int> accepted{0};
    std::atomic<int> ran{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> submitters;
    for (int s = 0; s < 4; ++s) {
      submitters.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < 50; ++i) {
          if (pool.TryPost([&] { ran.fetch_add(1); })) {
            accepted.fetch_add(1);
          }
        }
      });
    }
    std::thread stopper([&] {
      while (!go.load()) std::this_thread::yield();
      pool.Shutdown();
    });
    go.store(true);
    for (std::thread& t : submitters) t.join();
    stopper.join();
    pool.Shutdown();  // ensure fully drained before counting
    EXPECT_EQ(ran.load(), accepted.load()) << "round " << round;
  }
}

TEST(ThreadPoolTest, SharedPoolExistsAndWorks) {
  ThreadPool* pool = ThreadPool::Shared();
  ASSERT_NE(pool, nullptr);
  EXPECT_GE(pool->executors(), 1u);
  EXPECT_EQ(pool, ThreadPool::Shared());  // same instance every time
  std::atomic<size_t> count{0};
  pool->ParallelFor(32, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32u);
}

}  // namespace
}  // namespace fuzzydb
