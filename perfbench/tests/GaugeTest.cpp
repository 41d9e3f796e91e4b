//===- perfbench/tests/GaugeTest.cpp - Host gauge tests -------------------===//
//
// Part of daecc's benchmark. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Each operation's relative latency must be its time over the gauge
// readings taken around its group of operations.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <gtest/gtest.h>

using namespace perfbench;

TEST(GaugedOps, OperationsAreDividedByTheReadingsAroundTheirGroup) {
  GaugedOps Ops;
  Ops.record(5.0); // Before any reading: not in relative().
  Ops.tick();
  Ops.record(100.0);
  Ops.record(200.0);
  Ops.tick();
  Ops.record(300.0); // After the last reading: divided by it alone.

  const std::vector<double> &R = Ops.readingsMs();
  ASSERT_EQ(R.size(), 2u);
  EXPECT_GT(R[0], 0.0);
  EXPECT_GT(R[1], 0.0);
  double Around = (R[0] + R[1]) / 2.0;
  std::vector<double> Rel = Ops.relative();
  ASSERT_EQ(Rel.size(), 3u);
  EXPECT_DOUBLE_EQ(Rel[0], 100.0 / Around);
  EXPECT_DOUBLE_EQ(Rel[1], 200.0 / Around);
  EXPECT_DOUBLE_EQ(Rel[2], 300.0 / R[1]);
  EXPECT_EQ(Ops.opMs().size(), 4u);
}

TEST(GaugedOps, EachTickAddsOneReading) {
  GaugedOps Ops(3);
  Ops.tick();
  Ops.tick();
  ASSERT_EQ(Ops.readingsMs().size(), 2u);
  EXPECT_GT(Ops.readingsMs()[1], 0.0);
}
