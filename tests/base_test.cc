// Tests for the base utilities: Result<T>, deterministic RNG, units and alignment helpers,
// cost-model arithmetic.
#include <gtest/gtest.h>

#include <set>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/machine/cost_model.h"

namespace ufork {
namespace {

// --- Result<T> -----------------------------------------------------------------------------

Result<int> ParsePositive(int v) {
  if (v <= 0) {
    return Error{Code::kErrInval, "not positive"};
  }
  return v;
}

Result<int> Doubled(int v) {
  UF_ASSIGN_OR_RETURN(const int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  auto ok = ParsePositive(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  EXPECT_EQ(ok.code(), Code::kOk);

  auto err = ParsePositive(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.code(), Code::kErrInval);
  EXPECT_EQ(err.error().message, "not positive");
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_EQ(Doubled(-3).code(), Code::kErrInval);
}

TEST(ResultTest, VoidSpecialization) {
  Result<void> ok = OkResult();
  EXPECT_TRUE(ok.ok());
  Result<void> err = Code::kErrNoMem;
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), Code::kErrNoMem);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(9));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> taken = std::move(r).value();
  EXPECT_EQ(*taken, 9);
}

TEST(ResultTest, CodeNamesAreStable) {
  EXPECT_STREQ(CodeName(Code::kOk), "OK");
  EXPECT_STREQ(CodeName(Code::kFaultBounds), "FAULT_BOUNDS");
  EXPECT_STREQ(CodeName(Code::kFaultCapLoadPage), "FAULT_CAP_LOAD_PAGE");
  EXPECT_STREQ(CodeName(Code::kErrNoSpc), "ENOSPC");
}

// --- Rng -----------------------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  Rng c(124);
  Rng d(123);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    differing += c.NextU64() != d.NextU64() ? 1 : 0;
  }
  EXPECT_GT(differing, 90);
}

TEST(RngTest, NextBelowInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::array<int, 10> histogram{};
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t v = rng.NextBelow(10);
    ASSERT_LT(v, 10u);
    ++histogram[v];
  }
  for (int count : histogram) {
    EXPECT_GT(count, 800);  // ~1000 expected
    EXPECT_LT(count, 1200);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// --- units ---------------------------------------------------------------------------------

TEST(UnitsTest, TimeConversionsRoundTrip) {
  EXPECT_EQ(Microseconds(54), 135'000u);
  EXPECT_DOUBLE_EQ(ToMicroseconds(Microseconds(54)), 54.0);
  EXPECT_DOUBLE_EQ(ToMilliseconds(Milliseconds(245)), 245.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(10)), 10.0);
}

TEST(UnitsTest, AlignmentHelpers) {
  EXPECT_EQ(AlignUp(0, 16), 0u);
  EXPECT_EQ(AlignUp(1, 16), 16u);
  EXPECT_EQ(AlignUp(16, 16), 16u);
  EXPECT_EQ(AlignDown(31, 16), 16u);
  EXPECT_TRUE(IsAligned(4096, 4096));
  EXPECT_FALSE(IsAligned(4097, 4096));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(4096));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(12));
  EXPECT_EQ(CeilDiv(10, 4), 3u);
  EXPECT_EQ(CeilDiv(8, 4), 2u);
}

// --- cost model ----------------------------------------------------------------------------

TEST(CostModelTest, SyscallEntryFlavours) {
  CostModel costs;
  EXPECT_EQ(costs.SyscallEntry(SyscallEntryKind::kSealedEntry), costs.syscall_sealed_entry);
  EXPECT_EQ(costs.SyscallEntry(SyscallEntryKind::kTrap), costs.syscall_trap);
  // The design's core asymmetry: sealed entry is dramatically cheaper than a trap (§4.4).
  EXPECT_LT(costs.syscall_sealed_entry * 5, costs.syscall_trap);
}

TEST(CostModelTest, TransferCostsScaleLinearly) {
  CostModel costs;
  EXPECT_EQ(costs.BulkCopy(0), 0u);
  EXPECT_NEAR(static_cast<double>(costs.BulkCopy(3'000'000)),
              3'000'000 / costs.bulk_bytes_per_cycle, 1.0);
  EXPECT_GT(costs.TocttouCopy(1024), costs.tocttou_fixed);
}

}  // namespace
}  // namespace ufork
