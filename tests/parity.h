// Parity helpers shared by the test suites: the CountersEqual contract as
// a gtest assertion, and the differential check of Zidian's answers
// against the SQL-over-NoSQL baseline (one PreparedQuery executed on the
// route Zidian picks and on RoutePolicy::kForceBaseline).
#ifndef ZIDIAN_TESTS_PARITY_H_
#define ZIDIAN_TESTS_PARITY_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/metrics.h"
#include "zidian/connection.h"

namespace zidian {

/// CountersEqual as an assertion; a failure prints both sides, every
/// non-zero field by name.
inline ::testing::AssertionResult SameCounters(const QueryMetrics& a,
                                               const QueryMetrics& b) {
  if (CountersEqual(a, b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "counters differ\n  " << a.ToString() << "\n  " << b.ToString();
}

/// Expects the same rows in any order. Numerics compare within 1e-9
/// relative: the two routes may sum an aggregate in different orders.
inline void ExpectSameRows(Relation a, Relation b, const std::string& what) {
  a.SortRows();
  b.SortRows();
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.rows()[i].size(), b.rows()[i].size()) << what;
    for (size_t j = 0; j < a.rows()[i].size(); ++j) {
      const Value& va = a.rows()[i][j];
      const Value& vb = b.rows()[i][j];
      if (va.IsNumeric() && vb.IsNumeric()) {
        double denom = std::max(1.0, std::abs(vb.Numeric()));
        EXPECT_NEAR(va.Numeric() / denom, vb.Numeric() / denom, 1e-9)
            << what << " row " << i << " col " << j;
      } else {
        EXPECT_EQ(va, vb) << what << " row " << i << " col " << j;
      }
    }
  }
}

/// Prepares `sql` once, executes it with `workers` on the automatic route
/// (metered into `info`) and on the forced TaaV baseline (into `base`),
/// and expects the same rows. `rows`, when given, receives the automatic
/// route's answer.
inline void ExpectRoutesAgree(Zidian& z, const std::string& sql, int workers,
                              AnswerInfo* info = nullptr,
                              AnswerInfo* base = nullptr,
                              Relation* rows = nullptr) {
  auto q = z.Connect().Prepare(sql);
  ASSERT_TRUE(q.ok()) << sql << "\n" << q.status().ToString();
  auto a = q->Execute({.workers = workers}, info);
  ASSERT_TRUE(a.ok()) << sql << "\n" << a.status().ToString();
  auto b = q->Execute(
      {.workers = workers, .route_policy = RoutePolicy::kForceBaseline}, base);
  ASSERT_TRUE(b.ok()) << sql << "\n" << b.status().ToString();
  ExpectSameRows(*a, *b, sql);
  if (rows != nullptr) *rows = std::move(*a);
}

}  // namespace zidian

#endif  // ZIDIAN_TESTS_PARITY_H_
