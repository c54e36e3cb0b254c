// Tests for the paper-invariant contract layer (DESIGN §3d): the
// FUZZYDB_DCHECK/FUZZYDB_INVARIANT macros, the src/analysis property
// auditors on every shipped scoring function / norm pair / cascade
// configuration, and — the negative paths — proof that a deliberately
// broken scorer, an inflated cascade bound, and a mis-sorted source are
// all detected with actionable messages.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/cascade_audit.h"
#include "analysis/norm_audit.h"
#include "analysis/scoring_audit.h"
#include "analysis/source_audit.h"
#include "common/contract.h"
#include "common/random.h"
#include "core/scoring.h"
#include "image/embedding_store.h"
#include "image/quadratic_distance.h"
#include "middleware/cost.h"
#include "middleware/threshold.h"
#include "middleware/vector_source.h"

namespace fuzzydb {
namespace {

// ---------------------------------------------------------------------------
// Contract macros.

int g_violations = 0;
std::string g_last_message;
std::vector<std::string> g_messages;

void CountingHandler(const char* /*file*/, int /*line*/, const char* /*expr*/,
                     const std::string& message) {
  ++g_violations;
  g_last_message = message;
  g_messages.push_back(message);
}

class ContractHandlerScope {
 public:
  ContractHandlerScope() : prev_(SetContractViolationHandler(CountingHandler)) {
    g_violations = 0;
    g_last_message.clear();
    g_messages.clear();
  }
  ~ContractHandlerScope() { SetContractViolationHandler(prev_); }

 private:
  ContractViolationHandler prev_;
};

TEST(ContractMacroTest, DcheckFiresExactlyWhenChecksAreCompiledIn) {
  ContractHandlerScope scope;
  FUZZYDB_DCHECK(1 + 1 == 3, "arithmetic is broken");
  EXPECT_EQ(g_violations, ContractChecksEnabled() ? 1 : 0);
  if (ContractChecksEnabled()) {
    EXPECT_EQ(g_last_message, "arithmetic is broken");
  }
  FUZZYDB_DCHECK(true, "a passing check never fires");
  FUZZYDB_INVARIANT(2 < 3, "nor does a passing invariant");
  EXPECT_EQ(g_violations, ContractChecksEnabled() ? 1 : 0);
}

TEST(ContractMacroTest, DisabledChecksEvaluateNothing) {
  if (ContractChecksEnabled()) GTEST_SKIP() << "build has checks on";
  int evaluations = 0;
  FUZZYDB_DCHECK((++evaluations, true), "side effect must not run");
  FUZZYDB_INVARIANT((++evaluations, false), "not even a failing one");
  EXPECT_EQ(evaluations, 0);
}

// ---------------------------------------------------------------------------
// Positive paths: every shipped contract holds.

TEST(NormAuditTest, AllRegisteredNormPairsSatisfyTheAxioms) {
  AuditReport report = AuditRegisteredNormPairs();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks_run(), 1000u);
  EXPECT_TRUE(report.ToStatus().ok());
}

TEST(ScoringAuditTest, AllShippedRulesHonorTheirDeclarations) {
  AuditReport report = AuditShippedScoringRules();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks_run(), 10000u);
}

class CascadeAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1234);
    palette_ = Palette::Uniform(27, &rng);
    qfd_ = *QuadraticFormDistance::Create(palette_);
    std::vector<Histogram> database;
    for (size_t i = 0; i < 80; ++i) {
      database.push_back(RandomHistogram(&rng, 27));
    }
    store_ = *EmbeddingStore::Build(qfd_, database);
  }

  Palette palette_;
  QuadraticFormDistance qfd_;
  EmbeddingStore store_;
};

TEST_F(CascadeAuditTest, EveryPrefixLevelLowerBoundsTheExactDistance) {
  CascadeAuditOptions options;
  options.pairs = 64;
  AuditReport report = AuditCascadeLevels(qfd_, /*levels=*/{}, options);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(CascadeAuditTest, CascadeAnswersMatchExactKnnBitForBit) {
  CascadeAuditOptions options;
  options.pairs = 32;
  AuditReport report =
      AuditCascadeEquivalence(store_, /*k=*/7, CascadeOptions{.prefix_dim = 3}, options);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(CascadeAuditTest, QuantizedTierLowerBoundsEveryPair) {
  CascadeAuditOptions options;
  options.pairs = 32;
  AuditReport report = AuditQuantizedLowerBound(store_, options);
  EXPECT_TRUE(report.ok()) << report.ToString();
  // 4 queries x 80 rows, plus the precondition check.
  EXPECT_GT(report.checks_run(), 300u);
}

TEST_F(CascadeAuditTest, QuantizedAuditRejectsAStoreWithoutTheCompanion) {
  // A hand-assembled store that never calls BuildQuantized(): the audit
  // must refuse the precondition, not vacuously pass.
  Rng rng(4321);
  EmbeddingStore bare(4, 27);
  std::vector<double> row(27);
  for (size_t i = 0; i < 4; ++i) {
    qfd_.EmbedInto(RandomHistogram(&rng, 27), row);
    bare.SetRow(i, row);
  }
  AuditReport report = AuditQuantizedLowerBound(bare);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.findings().size(), 1u);
  EXPECT_EQ(report.findings()[0].contract, "precondition");
}

TEST_F(CascadeAuditTest, GenuineLowerBoundPassesTheFilterAudit) {
  // The 3-dim prefix of the embedding is the paper's formula (2) filter.
  auto cheap = [this](const Histogram& x, const Histogram& y) {
    std::vector<double> ex = qfd_.Embed(x);
    std::vector<double> ey = qfd_.Embed(y);
    double sum = 0.0;
    for (size_t j = 0; j < 3; ++j) {
      const double d = ex[j] - ey[j];
      sum += d * d;
    }
    return std::sqrt(sum);
  };
  auto exact = [this](const Histogram& x, const Histogram& y) {
    return qfd_.Distance(x, y);
  };
  AuditReport report =
      AuditFilterLowerBound("prefix-3 filter", cheap, exact, /*bins=*/27);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(CascadeAuditTest, NanTargetTripsTheCascadeBoundInvariant) {
  // The walk's (bound, index) selection heap is only ordered when no bound
  // is NaN; both bound passes check that before a bound enters the heap.
  if (!ContractChecksEnabled()) {
    GTEST_SKIP() << "contract checks compiled out in this build";
  }
  std::vector<double> target(store_.dim(), 0.1);
  target[0] = std::nan("");
  for (bool int8 : {true, false}) {
    SCOPED_TRACE(int8 ? "int8 level -1" : "float prefix");
    ContractHandlerScope scope;
    CascadeOptions options;
    options.use_quantized = int8;
    store_.CascadeKnn(target, 5, options);
    EXPECT_GE(g_violations, 1);
    EXPECT_TRUE(std::any_of(g_messages.begin(), g_messages.end(),
                            [](const std::string& m) {
                              return m.find("bound is NaN") !=
                                     std::string::npos;
                            }))
        << ::testing::PrintToString(g_messages);
  }
}

TEST(SourceAuditTest, VectorSourcePassesTheAccessContract) {
  Rng rng(99);
  std::vector<GradedObject> items;
  for (ObjectId id = 1; id <= 200; ++id) {
    items.push_back({id, rng.NextDouble()});
  }
  Result<VectorSource> source = VectorSource::Create(items, "uniform");
  ASSERT_TRUE(source.ok());
  AuditReport report = AuditSortedAccess(&*source);
  EXPECT_TRUE(report.ok()) << report.ToString();
  // The audit must leave the source rewound and reusable.
  EXPECT_TRUE(source->NextSorted().has_value());
}

// ---------------------------------------------------------------------------
// Negative paths: violated contracts are detected, with actionable messages.

TEST(ScoringAuditTest, NonMonotoneScorerClaimingMonotonicityIsRejected) {
  // "Contrarian" scores high exactly when the first component is low — a
  // textbook monotonicity violation hiding behind a monotone claim.
  ScoringRulePtr broken = UserDefinedRule(
      "contrarian",
      [](std::span<const double> scores) { return 1.0 - scores[0]; },
      /*claims_monotone=*/true, /*claims_strict=*/false);
  AuditReport report = AuditScoringRule(*broken);
  ASSERT_FALSE(report.ok());
  const std::string text = report.ToString();
  // Actionable: names the rule, the violated contract, and a witness pair.
  EXPECT_NE(text.find("contrarian"), std::string::npos) << text;
  EXPECT_NE(text.find("monotonicity"), std::string::npos) << text;
  EXPECT_NE(text.find("pointwise"), std::string::npos) << text;
  Status status = report.ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ScoringAuditTest, NonStrictScorerClaimingStrictnessIsRejected) {
  // max is monotone but not strict; claim strictness anyway.
  ScoringRulePtr broken = UserDefinedRule(
      "max-claiming-strict",
      [](std::span<const double> scores) {
        return *std::max_element(scores.begin(), scores.end());
      },
      /*claims_monotone=*/true, /*claims_strict=*/true);
  AuditReport report = AuditScoringRule(*broken);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("strict"), std::string::npos)
      << report.ToString();
}

TEST(CascadeNegativeTest, InflatedBoundIsRejectedWithAWitness) {
  Rng rng(4321);
  Palette palette = Palette::Uniform(16, &rng);
  QuadraticFormDistance qfd = *QuadraticFormDistance::Create(palette);
  // A "cheap" level that overshoots the exact distance by 5% — it would
  // falsely dismiss true neighbors, voiding the no-false-dismissal claim.
  auto inflated = [&qfd](const Histogram& x, const Histogram& y) {
    return 1.05 * qfd.Distance(x, y);
  };
  auto exact = [&qfd](const Histogram& x, const Histogram& y) {
    return qfd.Distance(x, y);
  };
  AuditReport report =
      AuditFilterLowerBound("inflated level", inflated, exact, /*bins=*/16);
  ASSERT_FALSE(report.ok());
  const std::string text = report.ToString();
  EXPECT_NE(text.find("lower-bound"), std::string::npos) << text;
  EXPECT_NE(text.find("falsely dismiss"), std::string::npos) << text;
  EXPECT_EQ(report.ToStatus().code(), StatusCode::kFailedPrecondition);
}

// A source whose stream violates the grade-descending contract.
class MisSortedSource final : public GradedSource {
 public:
  size_t Size() const override { return 3; }
  std::optional<GradedObject> NextSorted() override {
    // 0.9 after 0.5: the violation sits at the second read so even a
    // k-item-halting consumer must stream across it.
    static constexpr double kGrades[] = {0.5, 0.9, 0.2};
    if (pos_ >= 3) return std::nullopt;
    GradedObject obj{pos_ + 1, kGrades[pos_]};
    ++pos_;
    return obj;
  }
  void RestartSorted() override { pos_ = 0; }
  double RandomAccess(ObjectId id) override {
    static constexpr double kGrades[] = {0.5, 0.9, 0.2};
    return (id >= 1 && id <= 3) ? kGrades[id - 1] : 0.0;
  }
  std::vector<GradedObject> AtLeast(double threshold) override {
    std::vector<GradedObject> out;
    for (ObjectId id = 1; id <= 3; ++id) {
      if (RandomAccess(id) >= threshold) out.push_back({id, RandomAccess(id)});
    }
    return out;
  }
  std::string name() const override { return "mis-sorted"; }

 private:
  ObjectId pos_ = 0;
};

TEST(SourceAuditTest, MisSortedStreamIsRejected) {
  MisSortedSource source;
  AuditReport report = AuditSortedAccess(&source);
  ASSERT_FALSE(report.ok());
  const std::string text = report.ToString();
  EXPECT_NE(text.find("sorted order"), std::string::npos) << text;
  EXPECT_NE(text.find("grade-descending"), std::string::npos) << text;
}

TEST(InstrumentationTest, MisSortedSourceTripsTheMiddlewareContract) {
  // End-to-end: the CountingSource wrapper inside TA must flag the broken
  // stream when contract checks are compiled in.
  if (!ContractChecksEnabled()) {
    GTEST_SKIP() << "contract checks compiled out in this build";
  }
  ContractHandlerScope scope;
  MisSortedSource broken;
  std::vector<GradedSource*> sources{&broken};
  Result<TopKResult> result = ThresholdTopK(sources, *MinRule(), 2);
  EXPECT_GE(g_violations, 1);
  // Both instrumented layers flag the broken stream: the CountingSource
  // wrapper (order violation) and TA itself (its threshold rose).
  auto any_contains = [](const std::string& needle) {
    for (const std::string& m : g_messages) {
      if (m.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(any_contains("sorted-access order"))
      << "messages: " << ::testing::PrintToString(g_messages);
  EXPECT_TRUE(any_contains("threshold rose"))
      << "messages: " << ::testing::PrintToString(g_messages);
}

}  // namespace
}  // namespace fuzzydb
