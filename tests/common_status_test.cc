#include "common/status.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace fuzzydb {
namespace {

// OK is a null pointer; an error owns its code and message on the heap.
static_assert(sizeof(Status) == sizeof(void*));

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, OkCodeMakesAPlainOkStatus) {
  Status s(StatusCode::kOk, "ignored");
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s, Status::OK());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ToStringNamesEveryCode) {
  const std::vector<std::pair<Status, std::string>> cases{
      {Status::InvalidArgument("m"), "InvalidArgument: m"},
      {Status::NotFound("m"), "NotFound: m"},
      {Status::OutOfRange("m"), "OutOfRange: m"},
      {Status::AlreadyExists("m"), "AlreadyExists: m"},
      {Status::FailedPrecondition("m"), "FailedPrecondition: m"},
      {Status::Unimplemented("m"), "Unimplemented: m"},
      {Status::Internal("m"), "Internal: m"},
      {Status::ResourceExhausted("m"), "ResourceExhausted: m"},
      {Status::Cancelled("m"), "Cancelled: m"},
      {Status::DeadlineExceeded("m"), "DeadlineExceeded: m"},
      {Status::DataLoss("m"), "DataLoss: m"},
  };
  for (const auto& [status, text] : cases) {
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.ToString(), text);
  }
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

TEST(StatusTest, CopyIsDeepAndIndependent) {
  Status original = Status::NotFound("gone");
  Status copy(original);
  EXPECT_EQ(copy, original);
  EXPECT_NE(&copy.message(), &original.message());
  original = Status::Internal("changed");
  EXPECT_EQ(copy.code(), StatusCode::kNotFound);
  EXPECT_EQ(copy.message(), "gone");

  Status assigned;
  assigned = copy;
  EXPECT_EQ(assigned, copy);
  assigned = Status::OK();
  EXPECT_TRUE(assigned.ok());
  EXPECT_EQ(assigned.message(), "");
  EXPECT_FALSE(copy.ok());

  Status ok_copy(Status::OK());
  EXPECT_TRUE(ok_copy.ok());
}

TEST(StatusTest, MoveTransfersTheErrorAndLeavesOk) {
  Status source = Status::DataLoss("bad page");
  Status moved(std::move(source));
  EXPECT_EQ(moved.code(), StatusCode::kDataLoss);
  EXPECT_EQ(moved.message(), "bad page");

  Status target = Status::Cancelled("old");
  target = std::move(moved);
  EXPECT_EQ(target.code(), StatusCode::kDataLoss);
  EXPECT_EQ(target.message(), "bad page");
}

TEST(StatusTest, SelfAssignmentKeepsTheStatus) {
  Status s = Status::OutOfRange("k too large");
  Status& alias = s;
  s = alias;
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.message(), "k too large");
  s = std::move(alias);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.message(), "k too large");

  Status ok;
  Status& ok_alias = ok;
  ok = ok_alias;
  EXPECT_TRUE(ok.ok());
}

TEST(StatusTest, EqualityTreatsOkAsCodeAndEmptyMessage) {
  EXPECT_EQ(Status(), Status::OK());
  EXPECT_FALSE(Status() == Status::Internal(""));
  EXPECT_EQ(Status::Internal(""), Status::Internal(""));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

Status Inner(bool fail) {
  if (fail) return Status::Internal("inner failed");
  return Status::OK();
}

Status Outer(bool fail) {
  FUZZYDB_RETURN_NOT_OK(Inner(fail));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(Outer(false).ok());
  EXPECT_EQ(Outer(true).code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace fuzzydb
