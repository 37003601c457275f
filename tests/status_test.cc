#include "common/status.h"

#include <gtest/gtest.h>

#include "common/result.h"

namespace cdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: key 42");
}

TEST(StatusTest, EachFactoryMapsToItsPredicate) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
}

TEST(StatusTest, ServingCodesStringify) {
  EXPECT_EQ(Status::Unavailable("flaky disk").ToString(),
            "Unavailable: flaky disk");
}

Status FailsThrough() {
  CDB_RETURN_IF_ERROR(Status::IOError("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = FailsThrough();
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.message(), "inner");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

}  // namespace
}  // namespace cdb
