// Robustness fuzzing: randomized hostile inputs must produce error Statuses
// (never crashes, hangs, or silent corruption).

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "middleware/optimizer.h"
#include "relational/btree.h"
#include "server/query_server.h"
#include "sim/experiment.h"
#include "sim/workload.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace fuzzydb {
namespace {

TEST(SqlFuzzTest, RandomBytesNeverCrashTheLexer) {
  Rng rng(1301);
  for (int trial = 0; trial < 2000; ++trial) {
    size_t len = rng.NextBounded(60);
    std::string input;
    for (size_t i = 0; i < len; ++i) {
      input.push_back(static_cast<char>(rng.NextBounded(96) + 32));
    }
    Result<std::vector<Token>> tokens = Lex(input);  // ok or error, never UB
    if (tokens.ok()) {
      EXPECT_EQ(tokens->back().type, TokenType::kEnd);
    }
  }
}

TEST(SqlFuzzTest, RandomTokenSoupNeverCrashesTheParser) {
  // Well-lexed but structurally random statements.
  static const char* kFragments[] = {
      "SELECT", "EXPLAIN", "TOP",    "FROM",  "WHERE", "AND",  "OR",
      "NOT",    "USING",   "WEIGHTS", "VIA",  "(",     ")",    ",",
      "=",      "~",       ";",      "5",     "0.5",   "ident", "'str'",
      "min",    "owa",     "fagin"};
  Rng rng(1303);
  size_t parsed_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string input;
    size_t len = 1 + rng.NextBounded(16);
    for (size_t i = 0; i < len; ++i) {
      input += kFragments[rng.NextBounded(std::size(kFragments))];
      input += " ";
    }
    Result<SelectStatement> stmt = ParseSelect(input);
    if (stmt.ok()) {
      ++parsed_ok;
      EXPECT_NE(stmt->query, nullptr);
      EXPECT_GE(stmt->k, 1u);
    }
  }
  // Sanity: the harness occasionally produces valid statements too.
  (void)parsed_ok;
}

TEST(SqlFuzzTest, DeeplyNestedParenthesesParse) {
  std::string deep = "SELECT TOP 1 FROM db WHERE ";
  for (int i = 0; i < 200; ++i) deep += "(";
  deep += "a~'1'";
  for (int i = 0; i < 200; ++i) deep += ")";
  Result<SelectStatement> stmt = ParseSelect(deep);
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->query->kind(), Query::Kind::kAtomic);
}

TEST(BTreeFuzzTest, MixedInsertEraseLookupAgainstReference) {
  Rng rng(1307);
  BTreeIndex index(ValueType::kInt64, 6);
  std::multimap<int64_t, ObjectId> reference;
  for (int op = 0; op < 20000; ++op) {
    int64_t key = rng.NextInt(0, 80);
    double dice = rng.NextDouble();
    if (dice < 0.6) {
      ObjectId id = static_cast<ObjectId>(op);
      ASSERT_TRUE(index.Insert(Value(key), id).ok());
      reference.emplace(key, id);
    } else if (dice < 0.85 && !reference.empty()) {
      // Erase a random existing posting of this key, if any.
      auto [lo, hi] = reference.equal_range(key);
      if (lo != hi) {
        ASSERT_TRUE(index.Erase(Value(key), lo->second).ok());
        reference.erase(lo);
      } else {
        EXPECT_EQ(index.Erase(Value(key), 424242).code(),
                  StatusCode::kNotFound);
      }
    } else {
      Result<std::vector<ObjectId>> hits = index.Lookup(Value(key));
      ASSERT_TRUE(hits.ok());
      auto [lo, hi] = reference.equal_range(key);
      EXPECT_EQ(hits->size(),
                static_cast<size_t>(std::distance(lo, hi)))
          << "key " << key << " at op " << op;
    }
  }
  EXPECT_EQ(index.size(), reference.size());
  // Final full verification, including range-scan order.
  int64_t prev_key = -1;
  size_t scanned = 0;
  ASSERT_TRUE(index
                  .RangeScan(Value(), Value(),
                             [&](const Value& k, ObjectId) {
                               EXPECT_GE(k.AsInt64(), prev_key);
                               prev_key = k.AsInt64();
                               ++scanned;
                             })
                  .ok());
  EXPECT_EQ(scanned, reference.size());
}

TEST(BTreeFuzzTest, AdversarialInsertionOrders) {
  // Ascending, descending, and organ-pipe orders must all produce correct
  // trees (splits exercise different paths).
  for (int mode = 0; mode < 3; ++mode) {
    BTreeIndex index(ValueType::kInt64, 4);
    const int n = 500;
    for (int i = 0; i < n; ++i) {
      int64_t key;
      switch (mode) {
        case 0:
          key = i;
          break;
        case 1:
          key = n - i;
          break;
        default:
          key = (i % 2 == 0) ? i / 2 : n - i / 2;
          break;
      }
      ASSERT_TRUE(index.Insert(Value(key), static_cast<ObjectId>(i)).ok());
    }
    EXPECT_EQ(index.size(), static_cast<size_t>(n));
    size_t scanned = 0;
    int64_t prev = -1;
    ASSERT_TRUE(index
                    .RangeScan(Value(), Value(),
                               [&](const Value& k, ObjectId) {
                                 EXPECT_GE(k.AsInt64(), prev);
                                 prev = k.AsInt64();
                                 ++scanned;
                               })
                    .ok());
    EXPECT_EQ(scanned, static_cast<size_t>(n)) << "mode " << mode;
  }
}

// A hostile single-threaded TaskExecutor for the query server: accepted
// tasks land in a pending list and run in seeded-random order at
// seeded-random moments — some immediately, some long after the work that
// scheduled them finished, the rest at destruction. Per the TaskExecutor
// contract every task runs exactly once; everything else (order, delay) is
// adversarial.
class ShuffledExecutor final : public TaskExecutor {
 public:
  explicit ShuffledExecutor(uint64_t seed) : rng_(seed) {}
  ~ShuffledExecutor() override { Drain(); }

  void Schedule(std::function<void()> task) override {
    pending_.push_back(std::move(task));
    while (!pending_.empty() && rng_.NextDouble() < 0.4) {
      RunRandomPending();
    }
  }

  /// Runs everything still deferred (tasks may schedule follow-ups, which
  /// also run).
  void Drain() {
    while (!pending_.empty()) RunRandomPending();
  }

 private:
  void RunRandomPending() {
    size_t i = rng_.NextBounded(pending_.size());
    std::function<void()> task = std::move(pending_[i]);
    pending_.erase(pending_.begin() +
                   static_cast<std::ptrdiff_t>(i));
    task();  // may re-enter Schedule; the list is already consistent
  }

  Rng rng_;
  std::vector<std::function<void()>> pending_;
};

// --- Server fuzzing ---------------------------------------------------------

// One fuzz query: its private sources (VectorSource carries cursor state,
// never shared across in-flight queries), resolver, shape, and submission.
struct FuzzQuery {
  std::unique_ptr<std::vector<VectorSource>> sources;
  SourceResolver resolver;
  QueryPtr query;
  size_t k = 1;
  uint64_t budget = 0;
  Submission submission;
  bool cancelled = false;
};

FuzzQuery MakeFuzzQuery(const Workload& w, Rng* rng) {
  FuzzQuery fq;
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  EXPECT_TRUE(sources.ok());
  fq.sources =
      std::make_unique<std::vector<VectorSource>>(std::move(*sources));
  std::vector<VectorSource>* raw = fq.sources.get();
  fq.resolver = [raw](const Query& atom) -> Result<GradedSource*> {
    if (atom.attribute() == "A") return &(*raw)[0];
    if (atom.attribute() == "B") return &(*raw)[1];
    return &(*raw)[2];
  };
  switch (rng->NextBounded(4)) {
    case 0:
      fq.query =
          Query::And({Query::Atomic("A", "t"), Query::Atomic("B", "t")});
      break;
    case 1:
      fq.query = Query::Or({Query::Atomic("A", "t"), Query::Atomic("B", "t"),
                            Query::Atomic("C", "t")});
      break;
    case 2:
      fq.query = Query::And(
          {Query::Atomic("A", "t"),
           Query::Or({Query::Atomic("B", "t"), Query::Atomic("C", "t")})});
      break;
    default:
      fq.query = Query::Atomic("A", "t");
      break;
  }
  fq.k = 1 + rng->NextBounded(8);
  if (rng->NextDouble() < 0.4) fq.budget = 1 + rng->NextBounded(40);
  return fq;
}

// The server's execution path run serially with the same budget — what
// every completed (uncancelled) fuzz answer must match bit for bit.
ExecutionResult ServerSerialReference(const FuzzQuery& fq, const Workload& w) {
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  EXPECT_TRUE(sources.ok());
  auto raw = std::make_shared<std::vector<VectorSource>>(std::move(*sources));
  SourceResolver resolver = [raw](const Query& atom) -> Result<GradedSource*> {
    if (atom.attribute() == "A") return &(*raw)[0];
    if (atom.attribute() == "B") return &(*raw)[1];
    return &(*raw)[2];
  };
  Result<PlanChoice> plan = ChoosePlan(*fq.query, w.n(), fq.k, CostModel{});
  EXPECT_TRUE(plan.ok());
  ExecutorOptions opts;
  opts.algorithm = plan->algorithm;
  opts.combined_period = plan->combined_period;
  opts.governor = std::make_shared<AccessGovernor>(fq.budget);
  Result<ExecutionResult> r = ExecuteTopK(fq.query, resolver, fq.k, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(ServerFuzzTest, HostileSchedulesPreserveDeterminismUnderSubmitCancel) {
  // The server driven by the hostile single-threaded scheduler: seeded
  // schedules interleave submission, random cancellation, and deferred
  // execution. Every ticket completes exactly once; every run that reached
  // its halting condition (or its budget) matches the serial reference bit
  // for bit; every cancelled run matches a serial run with a pre-cancelled
  // governor (cancellation is single-threaded here, so it always lands
  // between tasks — before execution starts, or after it finished).
  for (uint64_t seed = 0; seed < 15; ++seed) {
    Rng rng(11000 + seed);
    size_t n = 40 + rng.NextBounded(120);
    Workload w = (seed % 2 == 0) ? IndependentUniform(&rng, n, 3)
                                 : QuantizedUniform(&rng, n, 3, 4);

    ShuffledExecutor executor(12000 + seed);
    QueryServerOptions options;
    options.executor = &executor;
    options.cache_results = false;  // every query must execute
    QueryServer server(options);

    std::vector<FuzzQuery> queries;
    queries.reserve(30);
    for (int q = 0; q < 30; ++q) {
      queries.push_back(MakeFuzzQuery(w, &rng));
      FuzzQuery& fq = queries.back();
      SubmitOptions submit;
      submit.sorted_access_budget = fq.budget;
      Result<Submission> sub =
          server.Submit(fq.query, fq.k, fq.resolver, submit);
      ASSERT_TRUE(sub.ok()) << sub.status().ToString();
      fq.submission = std::move(sub).value();
      // Randomly cancel an earlier (possibly already-run) query.
      if (rng.NextDouble() < 0.3) {
        FuzzQuery& victim = queries[rng.NextBounded(queries.size())];
        if (victim.submission.governor != nullptr && !victim.cancelled) {
          victim.submission.governor->Cancel();
          victim.cancelled = true;
        }
      }
    }
    executor.Drain();  // must come before server.Drain(): it runs the tasks
    server.Drain();

    for (size_t q = 0; q < queries.size(); ++q) {
      const FuzzQuery& fq = queries[q];
      ASSERT_TRUE(fq.submission.ticket->done()) << "seed " << seed;
      const ServedResult& got = fq.submission.ticket->Wait();
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      const bool was_cancelled =
          got.completion.code() == StatusCode::kCancelled;
      EXPECT_TRUE(fq.cancelled || !was_cancelled) << "seed " << seed;

      ExecutionResult want = ServerSerialReference(fq, w);
      if (was_cancelled) {
        // Cancel landed before execution: the reference is a run whose
        // governor was cancelled up front.
        Result<PlanChoice> plan =
            ChoosePlan(*fq.query, w.n(), fq.k, CostModel{});
        ASSERT_TRUE(plan.ok());
        ExecutorOptions opts;
        opts.algorithm = plan->algorithm;
        opts.combined_period = plan->combined_period;
        opts.governor = std::make_shared<AccessGovernor>(fq.budget);
        opts.governor->Cancel();
        Result<std::vector<VectorSource>> ref_sources = w.MakeSources();
        ASSERT_TRUE(ref_sources.ok());
        auto raw = std::make_shared<std::vector<VectorSource>>(
            std::move(*ref_sources));
        SourceResolver resolver =
            [raw](const Query& atom) -> Result<GradedSource*> {
          if (atom.attribute() == "A") return &(*raw)[0];
          if (atom.attribute() == "B") return &(*raw)[1];
          return &(*raw)[2];
        };
        Result<ExecutionResult> ref =
            ExecuteTopK(fq.query, resolver, fq.k, opts);
        ASSERT_TRUE(ref.ok());
        want = std::move(ref).value();
      }
      ASSERT_EQ(got.topk.items.size(), want.topk.items.size())
          << "seed " << seed << " query " << q;
      for (size_t r = 0; r < want.topk.items.size(); ++r) {
        EXPECT_EQ(got.topk.items[r].id, want.topk.items[r].id)
            << "seed " << seed << " query " << q;
        EXPECT_EQ(got.topk.items[r].grade, want.topk.items[r].grade)
            << "seed " << seed << " query " << q;
      }
      EXPECT_EQ(got.topk.cost.sorted, want.topk.cost.sorted)
          << "seed " << seed << " query " << q;
      EXPECT_EQ(got.topk.cost.random, want.topk.cost.random)
          << "seed " << seed << " query " << q;
    }
  }
}

TEST(ServerFuzzTest, RealThreadsConcurrentSubmitCancelDrain) {
  // Real worker threads, concurrent cancellation from another thread.
  // Cancel timing is racy by design, so the assertions split: queries no
  // one cancelled must match serial bit for bit; cancelled ones must
  // complete with a sane partial answer (exactly once, valid grades,
  // completion one of OK/Cancelled/ResourceExhausted).
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(13000 + seed);
    size_t n = 40 + rng.NextBounded(120);
    Workload w = (seed % 2 == 0) ? IndependentUniform(&rng, n, 3)
                                 : QuantizedUniform(&rng, n, 3, 4);

    ThreadPool pool(3, 256);
    QueryServerOptions options;
    options.pool = &pool;
    options.cache_results = false;
    QueryServer server(options);

    std::vector<FuzzQuery> queries;
    queries.reserve(40);
    for (int q = 0; q < 40; ++q) queries.push_back(MakeFuzzQuery(w, &rng));

    // Submit everything, snapshotting the even-indexed governors (the
    // cancel candidates; odd ones are left alone so their determinism can
    // be asserted). The canceller then races *execution*, not submission —
    // cancellation synchronizes through the governor's atomics alone.
    for (FuzzQuery& fq : queries) {
      SubmitOptions submit;
      submit.sorted_access_budget = fq.budget;
      Result<Submission> sub =
          server.Submit(fq.query, fq.k, fq.resolver, submit);
      ASSERT_TRUE(sub.ok()) << sub.status().ToString();
      fq.submission = std::move(sub).value();
    }
    std::vector<std::shared_ptr<AccessGovernor>> victims;
    for (size_t q = 0; q < queries.size(); q += 2) {
      if (queries[q].submission.governor != nullptr) {
        victims.push_back(queries[q].submission.governor);
      }
    }
    std::thread canceller([&] {
      Rng crng(14000 + seed);
      for (int shots = 0; shots < 200 && !victims.empty(); ++shots) {
        victims[crng.NextBounded(victims.size())]->Cancel();
        std::this_thread::yield();
      }
    });
    canceller.join();
    server.Drain();

    for (size_t q = 0; q < queries.size(); ++q) {
      const FuzzQuery& fq = queries[q];
      ASSERT_TRUE(fq.submission.ticket->done()) << "seed " << seed;
      const ServedResult& got = fq.submission.ticket->Wait();
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      for (const GradedObject& item : got.topk.items) {
        EXPECT_GE(item.grade, 0.0);
        EXPECT_LE(item.grade, 1.0);
      }
      EXPECT_LE(got.topk.items.size(), fq.k);
      const StatusCode code = got.completion.code();
      EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kCancelled ||
                  code == StatusCode::kResourceExhausted)
          << got.completion.ToString();
      if (q % 2 == 1) {
        // Never cancelled: full determinism holds.
        EXPECT_NE(code, StatusCode::kCancelled);
        ExecutionResult want = ServerSerialReference(fq, w);
        ASSERT_EQ(got.topk.items.size(), want.topk.items.size())
            << "seed " << seed << " query " << q;
        for (size_t r = 0; r < want.topk.items.size(); ++r) {
          EXPECT_EQ(got.topk.items[r].id, want.topk.items[r].id)
              << "seed " << seed << " query " << q;
          EXPECT_EQ(got.topk.items[r].grade, want.topk.items[r].grade)
              << "seed " << seed << " query " << q;
        }
        EXPECT_EQ(got.topk.cost.sorted, want.topk.cost.sorted)
            << "seed " << seed << " query " << q;
      }
    }
  }
}

}  // namespace
}  // namespace fuzzydb
