// QueryServer determinism and admission tests (DESIGN §3j).
//
// The load-bearing property: every admitted query's answer — items, grades,
// consumed access counts, truncation point — is bit-identical to a serial
// ExecuteTopK of the same plan, at every pool size, tie-storms and budget
// truncations included. Concurrency lives between queries, never inside
// one, so the algorithms' determinism lifts to the server.

#include "server/query_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "middleware/optimizer.h"
#include "sim/workload.h"

namespace fuzzydb {
namespace {

// A query template: a shape over one of the shared workloads.
struct Template {
  QueryPtr query;
  const Workload* workload;
  size_t k;
};

QueryPtr MakeShape(size_t shape) {
  switch (shape % 4) {
    case 0:  // conjunctive
      return Query::And({Query::Atomic("A", "t"), Query::Atomic("B", "t")});
    case 1:  // disjunctive (flat max: the m·k shortcut plan)
      return Query::Or({Query::Atomic("A", "t"), Query::Atomic("B", "t"),
                        Query::Atomic("C", "t")});
    case 2: {  // weighted conjunction
      Result<Weighting> theta = Weighting::Create({0.7, 0.3});
      Result<QueryPtr> q = Query::WeightedAnd(
          {Query::Atomic("A", "t"), Query::Atomic("B", "t")}, *theta);
      return *q;
    }
    default:  // nested monotone tree
      return Query::And(
          {Query::Atomic("A", "t"),
           Query::Or({Query::Atomic("B", "t"), Query::Atomic("C", "t")})});
  }
}

// Per-query execution context: fresh sources (VectorSource carries cursor
// state, so concurrent queries must never share instances) plus a resolver
// over them. Must outlive the query's ticket.
struct QueryCtx {
  std::unique_ptr<std::vector<VectorSource>> sources;
  SourceResolver resolver;
};

QueryCtx MakeCtx(const Workload& w) {
  QueryCtx ctx;
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  EXPECT_TRUE(sources.ok());
  ctx.sources =
      std::make_unique<std::vector<VectorSource>>(std::move(*sources));
  std::vector<VectorSource>* raw = ctx.sources.get();
  ctx.resolver = [raw](const Query& atom) -> Result<GradedSource*> {
    if (atom.attribute() == "A") return &(*raw)[0];
    if (atom.attribute() == "B") return &(*raw)[1];
    if (atom.attribute() == "C") return &(*raw)[2];
    return Status::NotFound("unknown attribute " + atom.attribute());
  };
  return ctx;
}

// The server's execution path run on the calling thread: same plan choice,
// optional same budget — the reference every concurrent answer must match
// bit for bit.
ExecutionResult SerialReference(const QueryPtr& query, const Workload& w,
                                size_t k, uint64_t budget = 0) {
  QueryCtx ctx = MakeCtx(w);
  Result<PlanChoice> plan = ChoosePlan(*query, w.n(), k, CostModel{});
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  ExecutorOptions opts;
  opts.algorithm = plan->algorithm;
  opts.combined_period = plan->combined_period;
  opts.governor = std::make_shared<AccessGovernor>(budget);
  Result<ExecutionResult> r = ExecuteTopK(query, ctx.resolver, k, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

void ExpectBitIdentical(const TopKResult& got, const TopKResult& want,
                        const std::string& label) {
  ASSERT_EQ(got.items.size(), want.items.size()) << label;
  for (size_t i = 0; i < want.items.size(); ++i) {
    EXPECT_EQ(got.items[i].id, want.items[i].id) << label << " rank " << i;
    EXPECT_EQ(got.items[i].grade, want.items[i].grade)
        << label << " rank " << i;
  }
  EXPECT_EQ(got.cost.sorted, want.cost.sorted) << label;
  EXPECT_EQ(got.cost.random, want.cost.random) << label;
  EXPECT_EQ(got.grades_exact, want.grades_exact) << label;
  ASSERT_EQ(got.per_source.size(), want.per_source.size()) << label;
  for (size_t j = 0; j < want.per_source.size(); ++j) {
    EXPECT_EQ(got.per_source[j].sorted, want.per_source[j].sorted)
        << label << " source " << j;
    EXPECT_EQ(got.per_source[j].random, want.per_source[j].random)
        << label << " source " << j;
  }
}

class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4242);
    smooth_ = IndependentUniform(&rng, 150, 3);
    // 4 grade levels over 150 objects: every list is a tie storm, the
    // regime where a nondeterministic tiebreak would show instantly.
    ties_ = QuantizedUniform(&rng, 150, 3, 4);
  }

  std::vector<Template> MakeBurst(size_t count) {
    std::vector<Template> burst;
    burst.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const Workload& w = (i % 2 == 0) ? smooth_ : ties_;
      burst.push_back({MakeShape(i), &w, 3 + (i % 6)});
    }
    return burst;
  }

  Workload smooth_;
  Workload ties_;
};

TEST_F(QueryServerTest, BurstMatchesSerialBitwiseAtEveryPoolSize) {
  const std::vector<Template> burst = MakeBurst(500);

  // Serial references, one per distinct (shape, workload, k) — shapes cycle
  // mod 4 and k mod 6, so 24 distinct templates per workload parity.
  std::vector<ExecutionResult> reference;
  reference.reserve(burst.size());
  for (const Template& t : burst) {
    reference.push_back(SerialReference(t.query, *t.workload, t.k));
  }

  const std::vector<size_t> pool_sizes = {1, 2, 7,
                                          ThreadPool::HardwareConcurrency()};
  for (size_t pool_size : pool_sizes) {
    ThreadPool pool(pool_size, /*max_queued_tasks=*/burst.size() + 8);
    QueryServerOptions options;
    options.pool = &pool;
    // Off so every query executes — the point is the execution path, and a
    // cache hit would skip it.
    options.cache_results = false;
    QueryServer server(options);

    std::vector<QueryCtx> ctxs;
    std::vector<std::shared_ptr<Ticket<ServedResult>>> tickets;
    ctxs.reserve(burst.size());
    tickets.reserve(burst.size());
    for (const Template& t : burst) {
      ctxs.push_back(MakeCtx(*t.workload));
      Result<Submission> sub =
          server.Submit(t.query, t.k, ctxs.back().resolver);
      ASSERT_TRUE(sub.ok()) << "pool=" << pool_size << ": "
                            << sub.status().ToString();
      tickets.push_back(sub->ticket);
    }
    server.Drain();

    for (size_t i = 0; i < burst.size(); ++i) {
      const ServedResult& got = tickets[i]->Wait();
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      EXPECT_TRUE(got.completion.ok());
      EXPECT_FALSE(got.from_cache);
      ExpectBitIdentical(got.topk, reference[i].topk,
                         "pool=" + std::to_string(pool_size) + " query " +
                             std::to_string(i));
      EXPECT_EQ(got.algorithm_used, reference[i].algorithm_used)
          << "pool=" << pool_size << " query " << i;
    }
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, burst.size());
    EXPECT_EQ(stats.admitted, burst.size());
    EXPECT_EQ(stats.rejected_queue_full, 0u);
    EXPECT_EQ(stats.rejected_cost, 0u);
  }
}

TEST_F(QueryServerTest, BudgetExhaustedMatchesSerialTruncation) {
  QueryPtr query =
      Query::And({Query::Atomic("A", "t"), Query::Atomic("B", "t")});
  const size_t k = 5;
  const uint64_t budget = 12;  // far below what the full TA run consumes

  ExecutionResult full = SerialReference(query, smooth_, k);
  ASSERT_GT(full.topk.cost.sorted, budget);

  ExecutionResult truncated = SerialReference(query, smooth_, k, budget);
  EXPECT_EQ(truncated.completion.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(truncated.topk.cost.sorted, budget);

  for (size_t pool_size : {size_t{1}, size_t{3}}) {
    ThreadPool pool(pool_size, 64);
    QueryServerOptions options;
    options.pool = &pool;
    options.cache_results = false;
    QueryServer server(options);
    QueryCtx ctx = MakeCtx(smooth_);
    SubmitOptions submit;
    submit.sorted_access_budget = budget;
    Result<Submission> sub = server.Submit(query, k, ctx.resolver, submit);
    ASSERT_TRUE(sub.ok());
    ASSERT_NE(sub->governor, nullptr);
    const ServedResult& got = sub->ticket->Wait();
    ASSERT_TRUE(got.status.ok());
    // The documented partial-result Status: the call succeeded, the answer
    // is the top-k of the consumed prefix, and it is the *same* prefix the
    // serial budgeted run consumed.
    EXPECT_EQ(got.completion.code(), StatusCode::kResourceExhausted)
        << got.completion.ToString();
    ExpectBitIdentical(got.topk, truncated.topk,
                       "budgeted pool=" + std::to_string(pool_size));
    server.Drain();
  }
}

TEST_F(QueryServerTest, DerivedBudgetTruncatesPlanBlowups) {
  // PathologicalMiddle forces every sorted-access algorithm ~n/2 deep; the
  // plan's independent-grades estimate predicts far less. With headroom
  // set, the server truncates the blowup instead of letting it starve the
  // pool — and the truncation is the deterministic budget prefix.
  Workload hard = PathologicalMiddle(400);
  QueryPtr query =
      Query::And({Query::Atomic("A", "t"), Query::Atomic("B", "t")});
  const size_t k = 3;

  QueryServerOptions options;
  options.budget_headroom = 2.0;
  options.cache_results = false;
  QueryServer server(options);  // no pool: inline

  QueryCtx ctx;
  Result<std::vector<VectorSource>> sources = hard.MakeSources();
  ASSERT_TRUE(sources.ok());
  ctx.sources =
      std::make_unique<std::vector<VectorSource>>(std::move(*sources));
  std::vector<VectorSource>* raw = ctx.sources.get();
  ctx.resolver = [raw](const Query& atom) -> Result<GradedSource*> {
    return atom.attribute() == "A" ? &(*raw)[0] : &(*raw)[1];
  };

  Result<Submission> sub = server.Submit(query, k, ctx.resolver);
  ASSERT_TRUE(sub.ok());
  const ServedResult& got = sub->ticket->Wait();
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(got.completion.code(), StatusCode::kResourceExhausted)
      << got.completion.ToString();
  // The budget the server derived: headroom × the plan's sorted estimate.
  Result<PlanChoice> plan = ChoosePlan(*query, hard.n(), k, CostModel{});
  ASSERT_TRUE(plan.ok());
  Result<AccessMix> mix =
      EstimateAccessMix(plan->algorithm, hard.n(), 2, k, CostModel{});
  ASSERT_TRUE(mix.ok());
  EXPECT_EQ(got.topk.cost.sorted,
            static_cast<uint64_t>(std::ceil(2.0 * mix->sorted)));
}

TEST_F(QueryServerTest, QueueFullIsExplicitRejectionNeverSilentDrop) {
  // One worker, queue capacity 1. A gate task blocks the worker, a first
  // submission fills the queue, and the second must be *rejected with a
  // Status* — counted, nothing enqueued, nothing dropped.
  ThreadPool pool(2, 1);
  QueryServerOptions options;
  options.pool = &pool;
  options.cache_results = false;
  QueryServer server(options);

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<bool> worker_blocked{false};
  ASSERT_TRUE(pool.TryPost([&] {
    worker_blocked.store(true);
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  }));
  while (!worker_blocked.load()) std::this_thread::yield();

  QueryPtr query =
      Query::And({Query::Atomic("A", "t"), Query::Atomic("B", "t")});
  QueryCtx first = MakeCtx(smooth_);
  Result<Submission> accepted = server.Submit(query, 5, first.resolver);
  ASSERT_TRUE(accepted.ok());  // sits in the queue behind the gate

  QueryCtx second = MakeCtx(smooth_);
  Result<Submission> rejected = server.Submit(query, 5, second.resolver);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  server.Drain();

  // The accepted query still completed correctly (not dropped).
  const ServedResult& got = accepted->ticket->Wait();
  ASSERT_TRUE(got.status.ok());
  ExpectBitIdentical(got.topk, SerialReference(query, smooth_, 5).topk,
                     "accepted-behind-gate");
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
}

TEST_F(QueryServerTest, AdmissionControlRejectsOnEstimatedCost) {
  QueryServerOptions options;
  options.admission_max_cost = 1.0;  // below any real plan's estimate
  QueryServer server(options);
  QueryPtr query =
      Query::And({Query::Atomic("A", "t"), Query::Atomic("B", "t")});
  QueryCtx ctx = MakeCtx(smooth_);
  Result<Submission> sub = server.Submit(query, 5, ctx.resolver);
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.stats().rejected_cost, 1u);
  EXPECT_EQ(server.stats().admitted, 0u);
}

// A TaskExecutor that defers every task until told to run — gives tests a
// deterministic window between Submit and execution.
class DeferredExecutor final : public TaskExecutor {
 public:
  void Schedule(std::function<void()> task) override {
    tasks_.push_back(std::move(task));
  }
  void RunAll() {
    std::vector<std::function<void()>> tasks = std::move(tasks_);
    tasks_.clear();
    for (auto& t : tasks) t();
  }

 private:
  std::vector<std::function<void()>> tasks_;
};

TEST_F(QueryServerTest, CancelBeforeExecutionMatchesSerialCancelledRun) {
  DeferredExecutor executor;
  QueryServerOptions options;
  options.executor = &executor;
  options.cache_results = false;
  QueryServer server(options);

  QueryPtr query =
      Query::And({Query::Atomic("A", "t"), Query::Atomic("B", "t")});
  QueryCtx ctx = MakeCtx(smooth_);
  SubmitOptions submit;
  submit.sorted_access_budget = 1000;  // ensures a governor exists
  Result<Submission> sub = server.Submit(query, 5, ctx.resolver, submit);
  ASSERT_TRUE(sub.ok());
  ASSERT_NE(sub->governor, nullptr);
  EXPECT_FALSE(sub->ticket->done());

  sub->governor->Cancel();
  executor.RunAll();
  server.Drain();

  const ServedResult& got = sub->ticket->Wait();
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(got.completion.code(), StatusCode::kCancelled)
      << got.completion.ToString();
  // Serial reference: same plan, governor cancelled before the run — zero
  // admitted sorted accesses either way.
  QueryCtx ref_ctx = MakeCtx(smooth_);
  Result<PlanChoice> plan = ChoosePlan(*query, smooth_.n(), 5, CostModel{});
  ASSERT_TRUE(plan.ok());
  ExecutorOptions opts;
  opts.algorithm = plan->algorithm;
  opts.combined_period = plan->combined_period;
  opts.governor = std::make_shared<AccessGovernor>(1000);
  opts.governor->Cancel();
  Result<ExecutionResult> ref = ExecuteTopK(query, ref_ctx.resolver, 5, opts);
  ASSERT_TRUE(ref.ok());
  ExpectBitIdentical(got.topk, ref->topk, "cancelled");
}

TEST_F(QueryServerTest, ResultCacheServesRepeatBitwise) {
  QueryServerOptions options;  // inline, cache on
  QueryServer server(options);
  QueryPtr query =
      Query::And({Query::Atomic("A", "t"), Query::Atomic("B", "t")});
  QueryCtx ctx = MakeCtx(smooth_);

  Result<Submission> first = server.Submit(query, 5, ctx.resolver);
  ASSERT_TRUE(first.ok());
  const ServedResult& a = first->ticket->Wait();
  ASSERT_TRUE(a.status.ok());
  EXPECT_FALSE(a.from_cache);

  Result<Submission> second = server.Submit(query, 5, ctx.resolver);
  ASSERT_TRUE(second.ok());
  const ServedResult& b = second->ticket->Wait();
  ASSERT_TRUE(b.status.ok());
  EXPECT_TRUE(b.from_cache);
  ASSERT_EQ(a.topk.items.size(), b.topk.items.size());
  for (size_t i = 0; i < a.topk.items.size(); ++i) {
    EXPECT_EQ(a.topk.items[i].id, b.topk.items[i].id);
    EXPECT_EQ(a.topk.items[i].grade, b.topk.items[i].grade);
  }
  EXPECT_EQ(server.stats().served_from_cache, 1u);
  EXPECT_GE(server.cache_stats().hits, 1u);
}

TEST_F(QueryServerTest, InvalidSubmissionsFailFast) {
  QueryServer server;
  QueryCtx ctx = MakeCtx(smooth_);
  EXPECT_EQ(server.Submit(nullptr, 5, ctx.resolver).status().code(),
            StatusCode::kInvalidArgument);
  QueryPtr query = Query::Atomic("A", "t");
  EXPECT_EQ(server.Submit(query, 0, ctx.resolver).status().code(),
            StatusCode::kInvalidArgument);
  QueryPtr unknown = Query::Atomic("Nope", "t");
  EXPECT_EQ(server.Submit(unknown, 5, ctx.resolver).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace fuzzydb
