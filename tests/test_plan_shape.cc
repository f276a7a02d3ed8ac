// Plan-shape regression tests for module M2's scan joins:
//  * no workload plan joins without a key (a cross product) and no plan
//    copies a column-less constant leaf into a join — on TPC-H (two seeds),
//    MOT and AIRCA, none of whose queries has a disconnected join graph;
//  * a query whose join graph really is disconnected still plans its one
//    keyless join, and answers as the TaaV baseline does;
//  * a deterministic gate on TPC-H q9/q18's compute_values, the two
//    queries the connected scan-join order rescued from cross products;
//  * every TPC-H query answers as the baseline does, with identical
//    counters across parallel mode, fan-out mode and worker count.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "parity.h"
#include "sql/binder.h"
#include "workloads/workload.h"
#include "zidian/planner.h"
#include "zidian/preservation.h"
#include "zidian/zidian.h"

namespace zidian {
namespace {

/// A loaded workload: the generated data in both layouts.
struct Loaded {
  Workload workload;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Zidian> zidian;
};

std::unique_ptr<Loaded> Load(Result<Workload> w) {
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  if (!w.ok()) return nullptr;
  auto l = std::make_unique<Loaded>();
  l->workload = std::move(w).value();
  l->cluster =
      std::make_unique<Cluster>(ClusterOptions{.num_storage_nodes = 4});
  l->zidian = std::make_unique<Zidian>(&l->workload.catalog, l->cluster.get(),
                                       l->workload.baav);
  EXPECT_TRUE(l->zidian->LoadTaav(l->workload.data).ok());
  EXPECT_TRUE(l->zidian->BuildBaav(l->workload.data).ok());
  return l;
}

/// M2's plan for `sql`, or nullptr when the query is not result preserving
/// (it then runs on the TaaV route and has no KBA plan).
KbaPlanPtr PlanOf(const Loaded& l, const std::string& sql) {
  auto spec = ParseAndBind(sql, l.workload.catalog);
  EXPECT_TRUE(spec.ok()) << sql << "\n" << spec.status().ToString();
  if (!spec.ok()) return nullptr;
  auto preserve = CheckResultPreserving(*spec, l.workload.catalog,
                                        l.zidian->store().schema());
  EXPECT_TRUE(preserve.ok()) << sql;
  if (!preserve.ok() || !preserve->preserving) return nullptr;
  auto planned =
      GenerateKbaPlan(*spec, l.workload.catalog, l.zidian->store(), {});
  EXPECT_TRUE(planned.ok()) << sql << "\n" << planned.status().ToString();
  return planned.ok() ? planned->plan : nullptr;
}

/// Keyless joins anywhere in the plan.
int CrossProducts(const KbaPlan& p) {
  int n = p.op == KbaOp::kJoin && p.join_pairs.empty() ? 1 : 0;
  for (const auto& c : p.children) n += CrossProducts(*c);
  return n;
}

/// True iff a constant leaf without columns sits anywhere below a join.
bool ColumnlessConstUnderJoin(const KbaPlan& p, bool under_join = false) {
  if (p.op == KbaOp::kConst) {
    return under_join && p.const_inst.AllCols().empty();
  }
  for (const auto& c : p.children) {
    if (ColumnlessConstUnderJoin(*c, under_join || p.op == KbaOp::kJoin)) {
      return true;
    }
  }
  return false;
}

/// True iff the query's aliases form one component under its equi-joins.
bool JoinGraphConnected(const QuerySpec& spec) {
  std::map<std::string, std::string> parent;
  for (const auto& t : spec.tables) parent[t.alias] = t.alias;
  auto find = [&](std::string a) {
    while (parent[a] != a) a = parent[a];
    return a;
  };
  for (const auto& [a, b] : spec.eq_joins) parent[find(a.alias)] = find(b.alias);
  size_t roots = 0;
  for (const auto& [alias, up] : parent) roots += alias == up ? 1 : 0;
  return roots <= 1;
}

void ExpectNoAvoidableCrossProduct(const Loaded& l, const std::string& tag) {
  int with_scans = 0;
  for (const auto& q : l.workload.queries) {
    SCOPED_TRACE(tag + "/" + q.name);
    auto spec = ParseAndBind(q.sql, l.workload.catalog);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    EXPECT_TRUE(JoinGraphConnected(*spec)) << q.sql;
    KbaPlanPtr plan = PlanOf(l, q.sql);
    if (plan == nullptr) continue;
    with_scans += plan->IsScanFree() ? 0 : 1;
    EXPECT_EQ(CrossProducts(*plan), 0) << plan->ToString();
    EXPECT_FALSE(ColumnlessConstUnderJoin(*plan)) << plan->ToString();
  }
  // The checks above must meet plans that scan, or they prove nothing.
  EXPECT_GT(with_scans, 0) << tag;
}

TEST(PlanShape, NoWorkloadPlanHasACrossProduct) {
  for (uint64_t seed : {10010u, 77u}) {
    auto l = Load(MakeTpch(0.5, seed));
    ASSERT_NE(l, nullptr);
    ExpectNoAvoidableCrossProduct(*l, "tpch-" + std::to_string(seed));
  }
  auto mot = Load(MakeMot(0.2));
  ASSERT_NE(mot, nullptr);
  ExpectNoAvoidableCrossProduct(*mot, "mot");
  auto airca = Load(MakeAirca(0.2));
  ASSERT_NE(airca, nullptr);
  ExpectNoAvoidableCrossProduct(*airca, "airca");
}

TEST(PlanShape, DisconnectedJoinGraphKeepsItsCrossProduct) {
  auto l = Load(MakeTpch(0.5, 10010));
  ASSERT_NE(l, nullptr);
  // No equality links nation and region: the answer is their product.
  const std::string sql =
      "SELECT n.name, r.name FROM nation n, region r WHERE n.nationkey < 5";
  auto spec = ParseAndBind(sql, l->workload.catalog);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_FALSE(JoinGraphConnected(*spec));
  KbaPlanPtr plan = PlanOf(*l, sql);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(CrossProducts(*plan), 1) << plan->ToString();
  EXPECT_FALSE(ColumnlessConstUnderJoin(*plan)) << plan->ToString();
  EXPECT_NE(plan->ToString().find("join [cross product]"), std::string::npos)
      << plan->ToString();

  AnswerInfo info;
  Relation rows;
  ExpectRoutesAgree(*l->zidian, sql, /*workers=*/2, &info, nullptr, &rows);
  EXPECT_EQ(info.route, AnswerInfo::Route::kKbaWithScans);
  EXPECT_EQ(rows.size(), 5u * l->workload.data.at("region").size());
}

TEST(PlanShape, ConnectedOrderGateOnQ9AndQ18) {
  // compute_values of the plans that joined lineitem with nation (q9) and
  // customer with lineitem (q18) before the table linking them. This gate
  // may only tighten: each figure must stay at least 10x below them.
  const std::map<std::string, uint64_t> cross_product_values = {
      {"q9", 1609972}, {"q18", 2034363}};
  auto l = Load(MakeTpch(0.5, 10010));
  ASSERT_NE(l, nullptr);
  for (const auto& q : l->workload.queries) {
    auto it = cross_product_values.find(q.name);
    if (it == cross_product_values.end()) continue;
    SCOPED_TRACE(q.name);
    AnswerInfo info;
    ExpectRoutesAgree(*l->zidian, q.sql, /*workers=*/2, &info);
    EXPECT_EQ(info.route, AnswerInfo::Route::kKbaWithScans);
    EXPECT_LE(info.metrics.compute_values * 10, it->second)
        << info.plan_text;
  }
}

TEST(PlanShape, TpchRoutesAgreeAndCountersMatchAcrossModes) {
  auto l = Load(MakeTpch(0.5, 10010));
  ASSERT_NE(l, nullptr);
  Connection conn = l->zidian->Connect();
  for (const auto& q : l->workload.queries) {
    SCOPED_TRACE(q.name);
    ExpectRoutesAgree(*l->zidian, q.sql, /*workers=*/2);
    auto prepared = conn.Prepare(q.sql);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    for (int workers : {1, 2, 4}) {
      // A warm-up run first: with a cache attached, the first run fills
      // it and every later one hits, so only later runs compare.
      ASSERT_TRUE(prepared->Execute({.workers = workers}).ok());
      AnswerInfo reference;
      auto expected = prepared->Execute({.workers = workers}, &reference);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      for (ParallelMode mode : {ParallelMode::kSimulated,
                                ParallelMode::kThreads}) {
        for (FanoutMode fanout : {FanoutMode::kSerial,
                                  FanoutMode::kOverlapped}) {
          AnswerInfo info;
          auto r = prepared->Execute({.workers = workers,
                                      .parallel_mode = mode,
                                      .fanout = fanout},
                                     &info);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          EXPECT_EQ(r->ToString(1u << 20), expected->ToString(1u << 20))
              << "workers=" << workers;
          EXPECT_TRUE(SameCounters(info.metrics, reference.metrics))
              << "workers=" << workers;
        }
      }
    }
  }
}

}  // namespace
}  // namespace zidian
