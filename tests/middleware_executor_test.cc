#include "middleware/executor.h"

#include <gtest/gtest.h>

#include <set>

#include "middleware/composite_rule.h"
#include "middleware/cost.h"
#include "middleware/naive.h"
#include "sim/experiment.h"
#include "sim/workload.h"

namespace fuzzydb {
namespace {

// A fixture with three attribute sources (A, B, C) over one universe.
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(307);
    workload_ = IndependentUniform(&rng, 250, 3);
    Result<std::vector<VectorSource>> sources = workload_.MakeSources();
    ASSERT_TRUE(sources.ok());
    sources_ = std::move(*sources);
    resolver_ = [this](const Query& atom) -> Result<GradedSource*> {
      if (atom.attribute() == "A") return &sources_[0];
      if (atom.attribute() == "B") return &sources_[1];
      if (atom.attribute() == "C") return &sources_[2];
      return Status::NotFound("unknown attribute " + atom.attribute());
    };
  }

  std::vector<GradedSource*> Ptrs() { return SourcePtrs(sources_); }

  Workload workload_;
  std::vector<VectorSource> sources_;
  SourceResolver resolver_;
};

TEST_F(ExecutorTest, AutoPicksShortcutForPureMaxDisjunction) {
  QueryPtr q = Query::Or({Query::Atomic("A", "x"), Query::Atomic("B", "y")});
  Result<ExecutionResult> r = ExecuteTopK(q, resolver_, 5);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->algorithm_used, Algorithm::kDisjunctionShortcut);
  EXPECT_EQ(r->topk.cost.sorted, 10u);  // m*k
}

TEST_F(ExecutorTest, AutoPicksThresholdForMonotoneConjunction) {
  QueryPtr q = Query::And({Query::Atomic("A", "x"), Query::Atomic("B", "y")});
  Result<ExecutionResult> r = ExecuteTopK(q, resolver_, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->algorithm_used, Algorithm::kThreshold);
}

TEST_F(ExecutorTest, AutoFallsBackToNaiveForNegation) {
  QueryPtr q = Query::And(
      {Query::Atomic("A", "x"), Query::Not(Query::Atomic("B", "y"))});
  Result<ExecutionResult> r = ExecuteTopK(q, resolver_, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->algorithm_used, Algorithm::kNaive);
}

TEST_F(ExecutorTest, ForcingMonotoneAlgorithmOnNegationFails) {
  QueryPtr q = Query::Not(Query::Atomic("A", "x"));
  ExecutorOptions options;
  options.algorithm = Algorithm::kThreshold;
  Result<ExecutionResult> r = ExecuteTopK(q, resolver_, 5, options);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExecutorTest, AllAlgorithmsReturnTheSameAnswerSet) {
  QueryPtr q = Query::And({Query::Atomic("A", "x"), Query::Atomic("B", "y"),
                           Query::Atomic("C", "z")});
  ScoringRulePtr rule = CompositeQueryRule(q);
  std::vector<GradedSource*> ptrs = Ptrs();
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *rule);
  ASSERT_TRUE(truth.ok());
  for (Algorithm algo :
       {Algorithm::kNaive, Algorithm::kFagin, Algorithm::kThreshold,
        Algorithm::kFilteredSimulation}) {
    ExecutorOptions options;
    options.algorithm = algo;
    Result<ExecutionResult> r = ExecuteTopK(q, resolver_, 7, options);
    ASSERT_TRUE(r.ok()) << AlgorithmName(algo);
    EXPECT_EQ(r->algorithm_used, algo);
    EXPECT_TRUE(IsValidTopK(r->topk.items, *truth, 7)) << AlgorithmName(algo);
  }
}

TEST_F(ExecutorTest, NestedMonotoneTreeRunsViaCompositeRule) {
  // (A AND (B OR C)): monotone though not strict; TA must handle it.
  QueryPtr q = Query::And(
      {Query::Atomic("A", "x"),
       Query::Or({Query::Atomic("B", "y"), Query::Atomic("C", "z")})});
  Result<ExecutionResult> r = ExecuteTopK(q, resolver_, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->algorithm_used, Algorithm::kThreshold);

  ScoringRulePtr rule = CompositeQueryRule(q);
  std::vector<GradedSource*> ptrs = Ptrs();
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *rule);
  ASSERT_TRUE(truth.ok());
  EXPECT_TRUE(IsValidTopK(r->topk.items, *truth, 5));
}

TEST_F(ExecutorTest, WeightedConjunctionEndToEnd) {
  Result<Weighting> theta = Weighting::Create({0.7, 0.3});
  ASSERT_TRUE(theta.ok());
  Result<QueryPtr> q = Query::WeightedAnd(
      {Query::Atomic("A", "x"), Query::Atomic("B", "y")}, *theta);
  ASSERT_TRUE(q.ok());
  Result<ExecutionResult> r = ExecuteTopK(*q, resolver_, 5);
  ASSERT_TRUE(r.ok());
  ScoringRulePtr rule = CompositeQueryRule(*q);
  std::vector<GradedSource*> two{&sources_[0], &sources_[1]};
  Result<GradedSet> truth = NaiveAllGrades(two, *rule);
  ASSERT_TRUE(truth.ok());
  EXPECT_TRUE(IsValidTopK(r->topk.items, *truth, 5));
}

TEST_F(ExecutorTest, VerificationCatchesLyingUserRule) {
  // Garlic issue (§4.2): a user-defined rule claiming monotonicity must be
  // vetted; this one lies.
  ScoringRulePtr liar = UserDefinedRule(
      "liar",
      [](std::span<const double> s) { return 1.0 - s[0]; },
      /*claims_monotone=*/true, /*claims_strict=*/false);
  QueryPtr q = Query::And(
      {Query::Atomic("A", "x"), Query::Atomic("B", "y")}, liar);
  ExecutorOptions options;
  options.verify_rule_claims = true;
  Result<ExecutionResult> r = ExecuteTopK(q, resolver_, 5, options);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);

  // An honest custom rule passes verification.
  ScoringRulePtr honest = UserDefinedRule(
      "honest-avg",
      [](std::span<const double> s) {
        double t = 0.0;
        for (double v : s) t += v;
        return t / static_cast<double>(s.size());
      },
      /*claims_monotone=*/true, /*claims_strict=*/true);
  QueryPtr q2 = Query::And(
      {Query::Atomic("A", "x"), Query::Atomic("B", "y")}, honest);
  EXPECT_TRUE(ExecuteTopK(q2, resolver_, 5, options).ok());
}

TEST_F(ExecutorTest, ShortcutRefusesNonDisjunctions) {
  QueryPtr q = Query::And({Query::Atomic("A", "x"), Query::Atomic("B", "y")});
  ExecutorOptions options;
  options.algorithm = Algorithm::kDisjunctionShortcut;
  EXPECT_EQ(ExecuteTopK(q, resolver_, 5, options).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ExecutorTest, UnknownAttributeSurfacesResolverError) {
  QueryPtr q = Query::Atomic("Nope", "x");
  Result<ExecutionResult> r = ExecuteTopK(q, resolver_, 5);
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, SingleAtomTopK) {
  QueryPtr q = Query::Atomic("A", "x");
  Result<ExecutionResult> r = ExecuteTopK(q, resolver_, 3);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->topk.items.size(), 3u);
  // Must be the 3 best grades of source A.
  std::vector<GradedSource*> one{&sources_[0]};
  Result<GradedSet> truth = NaiveAllGrades(one, *MinRule());
  ASSERT_TRUE(truth.ok());
  EXPECT_TRUE(IsValidTopK(r->topk.items, *truth, 3));
}

TEST_F(ExecutorTest, CombinedRunsThroughExecutorAndStaysCorrect) {
  QueryPtr q = Query::And({Query::Atomic("A", "x"), Query::Atomic("B", "y")});
  ScoringRulePtr rule = CompositeQueryRule(q);
  std::vector<GradedSource*> ptrs = {&sources_[0], &sources_[1]};
  Result<GradedSet> truth = NaiveAllGrades(ptrs, *rule);
  ASSERT_TRUE(truth.ok());
  for (size_t h : {size_t{1}, size_t{3}}) {
    ExecutorOptions options;
    options.algorithm = Algorithm::kCombined;
    options.combined_period = h;
    Result<ExecutionResult> r = ExecuteTopK(q, resolver_, 7, options);
    ASSERT_TRUE(r.ok()) << "h=" << h;
    EXPECT_EQ(r->algorithm_used, Algorithm::kCombined);
    EXPECT_TRUE(IsValidTopK(r->topk.items, *truth, 7)) << "h=" << h;
  }
}

TEST(ExecutorEdgeTest, NullQueryRejected) {
  Result<ExecutionResult> r = ExecuteTopK(
      nullptr, [](const Query&) -> Result<GradedSource*> { return nullptr; },
      1);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(AlgorithmNameTest, AllNamesDistinct) {
  std::set<std::string> names;
  for (Algorithm a :
       {Algorithm::kAuto, Algorithm::kNaive, Algorithm::kFagin,
        Algorithm::kThreshold, Algorithm::kNoRandomAccess,
        Algorithm::kFilteredSimulation, Algorithm::kDisjunctionShortcut}) {
    EXPECT_TRUE(names.insert(AlgorithmName(a)).second);
  }
}

}  // namespace
}  // namespace fuzzydb
