#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "common/check.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace sbrl {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Internal("a"), Status::Internal("a"));
  EXPECT_FALSE(Status::Internal("a") == Status::Internal("b"));
}

Status FailIfNegative(int v) {
  if (v < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chained(int v) {
  SBRL_RETURN_IF_ERROR(FailIfNegative(v));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Chained(1).ok());
  EXPECT_FALSE(Chained(-1).ok());
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::OutOfRange("must be positive");
  return v * 2;
}

TEST(StatusOrTest, ValueAndErrorStates) {
  StatusOr<int> good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(*good, 42);
  StatusOr<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST(StatusOrTest, ValueOnErrorDies) {
  StatusOr<int> bad = ParsePositive(0);
  EXPECT_DEATH(bad.value(), "value\\(\\) on error");
}

StatusOr<int> DoubleOf(int v) {
  SBRL_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed + 1;
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  auto ok = DoubleOf(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 11);
  EXPECT_FALSE(DoubleOf(-5).ok());
}

TEST(CheckTest, PassingCheckIsSilent) {
  SBRL_CHECK(1 + 1 == 2) << "never shown";
  SBRL_CHECK_EQ(4, 4);
  SBRL_CHECK_LT(1, 2);
  SBRL_CHECK_GE(2.0, 2.0);
}

TEST(CheckTest, FailingCheckAborts) {
  EXPECT_DEATH(SBRL_CHECK(false) << "ctx 42", "ctx 42");
  EXPECT_DEATH(SBRL_CHECK_EQ(1, 2), "1 vs 2");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringUtilTest, FormatDoubleAndMeanStd) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
  EXPECT_EQ(FormatMeanStd(0.4567, 0.0123), "0.457 ±0.012");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("# comment", "#"));
  EXPECT_FALSE(StartsWith("x# comment", "#"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("a", "ab"));
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) {
    sink = sink + static_cast<double>(i);
  }
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
  EXPECT_GT(timer.ElapsedMillis(), timer.ElapsedSeconds());
  const double before = timer.ElapsedSeconds();
  timer.Restart();
  EXPECT_LE(timer.ElapsedSeconds(), before + 1.0);
}

TEST(EnvTest, ParseInt64AcceptsStrictBase10) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_EQ(*ParseInt64("+5"), 5);  // strtol-era knobs accepted this
  EXPECT_EQ(*ParseInt64("  12  "), 12);
  EXPECT_EQ(*ParseInt64("0"), 0);
  EXPECT_EQ(*ParseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(*ParseInt64("-9223372036854775808"), INT64_MIN);
}

TEST(EnvTest, ParseInt64RejectsJunkAndOverflow) {
  EXPECT_EQ(ParseInt64("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt64("   ").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt64("abc").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt64("12x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt64("1.5").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt64("0x10").status().code(),
            StatusCode::kInvalidArgument);
  // Unchecked strtoll silently saturated these to LLONG_MAX.
  EXPECT_EQ(ParseInt64("9223372036854775808").status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ParseInt64("99999999999999999999").status().code(),
            StatusCode::kOutOfRange);
}

TEST(EnvTest, ParseEnvInt64ResolutionSemantics) {
  const char* name = "SBRL_TEST_ENV_KNOB";
  unsetenv(name);
  EXPECT_EQ(ParseEnvInt64(name, 1, 37), 37);  // unset -> fallback
  setenv(name, "", /*overwrite=*/1);
  EXPECT_EQ(ParseEnvInt64(name, 1, 37), 37);  // empty -> fallback
  setenv(name, "12", 1);
  EXPECT_EQ(ParseEnvInt64(name, 1, 37), 12);
  setenv(name, "garbage", 1);
  EXPECT_EQ(ParseEnvInt64(name, 1, 37), 37);  // malformed -> fallback
  setenv(name, "9223372036854775808", 1);
  EXPECT_EQ(ParseEnvInt64(name, 1, 37), 37);  // overflow -> fallback
  setenv(name, "0", 1);
  EXPECT_EQ(ParseEnvInt64(name, 1, 37), 37);  // below min -> fallback
  setenv(name, "-4", 1);
  EXPECT_EQ(ParseEnvInt64(name, -10, 37), -4);  // min is a parameter
  unsetenv(name);
}

TEST(LoggingTest, LevelFilterRoundTrips) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SBRL_LOG(Info) << "filtered out, not visible";
  SetLogLevel(original);
}

}  // namespace
}  // namespace sbrl
