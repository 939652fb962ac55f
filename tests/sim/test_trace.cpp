#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace vds::sim {
namespace {

TEST(Trace, RecordsInOrder) {
  Trace trace;
  trace.record(1.0, "V1", TraceKind::kRoundStart, "round 1");
  trace.record(2.0, "V2", TraceKind::kRoundEnd);
  ASSERT_EQ(trace.records().size(), 2u);
  EXPECT_EQ(trace.records()[0].actor, "V1");
  EXPECT_EQ(trace.records()[1].kind, TraceKind::kRoundEnd);
}

TEST(Trace, DisabledRecordsNothing) {
  Trace trace(/*enabled=*/false);
  trace.record(1.0, "V1", TraceKind::kCompare);
  EXPECT_TRUE(trace.records().empty());
}

TEST(Trace, CapDropsExcess) {
  Trace trace(true, /*cap=*/2);
  for (int k = 0; k < 5; ++k) {
    trace.record(k, "x", TraceKind::kInfo);
  }
  EXPECT_EQ(trace.records().size(), 2u);
  std::ostringstream os;
  trace.dump(os);
  EXPECT_NE(os.str().find("(3 records dropped)"), std::string::npos);
}

TEST(Trace, CountByKind) {
  Trace trace;
  trace.record(1.0, "a", TraceKind::kCompare);
  trace.record(2.0, "a", TraceKind::kCompare);
  trace.record(3.0, "a", TraceKind::kCheckpoint);
  EXPECT_EQ(trace.count(TraceKind::kCompare), 2u);
  EXPECT_EQ(trace.count(TraceKind::kCheckpoint), 1u);
  EXPECT_EQ(trace.count(TraceKind::kRollback), 0u);
}

TEST(Trace, DumpContainsKindNamesAndActors) {
  Trace trace;
  trace.record(1.5, "V2", TraceKind::kCompareMismatch, "round 7");
  std::ostringstream os;
  trace.dump(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("compare_mismatch"), std::string::npos);
  EXPECT_NE(out.find("V2"), std::string::npos);
  EXPECT_NE(out.find("round 7"), std::string::npos);
}

TEST(TraceKindNames, AllDistinctAndNonEmpty) {
  for (int k = 0; k <= static_cast<int>(TraceKind::kInfo); ++k) {
    const auto name = to_string(static_cast<TraceKind>(k));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
  }
}

}  // namespace
}  // namespace vds::sim
