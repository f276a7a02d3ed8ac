// Mode-parity tests for the stages PR 4 threaded: the TaaV baseline
// executor (per-tuple get scan, filters, join probes) and the parallel
// GroupAggregate — mirroring test_parallel_exec.cc's contract: byte-
// identical rows in identical order and CountersEqual-identical metrics
// between ParallelMode::kSimulated and kThreads, across repeated runs at
// workers = 8, on both KvBackend engines. Also covers the Connection-
// shared ThreadPool (used_shared_pool reporting, ExecOptions::pool
// override, effective parallel_mode at workers = 1).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "parity.h"
#include "ra/eval.h"
#include "storage/backend.h"
#include "storage/cluster.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/zidian.h"

namespace zidian {
namespace {

// ------------------------------------------------- TaaV baseline parity ---

class BaselineParityFixture : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    auto w = MakeMot(0.15, 23);
    ASSERT_TRUE(w.ok());
    workload_ = std::move(w).value();
    cluster_ = std::make_unique<Cluster>(ClusterOptions{
        .num_storage_nodes = 4, .backend = GetParam()});
    zidian_ = std::make_unique<Zidian>(&workload_.catalog, cluster_.get(),
                                       workload_.baav);
    ASSERT_TRUE(zidian_->LoadTaav(workload_.data).ok());
    ASSERT_TRUE(zidian_->BuildBaav(workload_.data).ok());
  }

  /// Reference run: the TaaV baseline in kSimulated at `workers`.
  Relation Reference(PreparedQuery* q, int workers, AnswerInfo* info) {
    auto r = q->Execute(
        ExecOptions{.workers = workers,
                    .route_policy = RoutePolicy::kForceBaseline},
        info);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  Workload workload_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Zidian> zidian_;
};

TEST_P(BaselineParityFixture, RepeatedThreadedBaselineRunsMatchSimulated) {
  // mot-q8: full scans of vehicle and mot_test, a filter, a join and a
  // GROUP BY without ORDER BY — every threaded baseline stage at once,
  // with the aggregate's first-appearance row order fully exposed.
  Connection conn = zidian_->Connect();
  auto prepared = conn.Prepare(workload_.queries[7].sql);  // mot-q8
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  AnswerInfo sim;
  Relation reference = Reference(&*prepared, 8, &sim);
  EXPECT_EQ(sim.parallel_mode, ParallelMode::kSimulated);
  EXPECT_FALSE(sim.used_shared_pool);
  std::string reference_text = reference.ToString(1u << 20);

  for (int run = 0; run < 30; ++run) {
    AnswerInfo thr;
    auto r = prepared->Execute(
        ExecOptions{.workers = 8,
                    .route_policy = RoutePolicy::kForceBaseline,
                    .parallel_mode = ParallelMode::kThreads},
        &thr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->ToString(1u << 20), reference_text) << "run " << run;
    ASSERT_TRUE(SameCounters(thr.metrics, sim.metrics)) << "run " << run;
    EXPECT_EQ(thr.parallel_mode, ParallelMode::kThreads);
    EXPECT_TRUE(thr.used_shared_pool);
    EXPECT_GT(thr.metrics.wall_seconds, 0.0);
  }
}

TEST_P(BaselineParityFixture, BaselineParityAcrossQueriesAndWorkerCounts) {
  Connection conn = zidian_->Connect();
  for (const auto& q : workload_.queries) {
    auto prepared = conn.Prepare(q.sql);
    ASSERT_TRUE(prepared.ok()) << q.name << ": "
                               << prepared.status().ToString();
    for (int workers : {1, 2, 4, 8}) {
      AnswerInfo sim;
      Relation reference = Reference(&*prepared, workers, &sim);
      AnswerInfo thr;
      auto r = prepared->Execute(
          ExecOptions{.workers = workers,
                      .route_policy = RoutePolicy::kForceBaseline,
                      .parallel_mode = ParallelMode::kThreads},
          &thr);
      ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
      EXPECT_EQ(r->ToString(1u << 20), reference.ToString(1u << 20))
          << q.name << " workers=" << workers;
      EXPECT_TRUE(SameCounters(thr.metrics, sim.metrics))
          << q.name << " workers=" << workers;
      // workers = 1 on one thread IS the simulated path; Explain must say
      // so instead of advertising threads that never existed.
      EXPECT_EQ(thr.parallel_mode, workers > 1 ? ParallelMode::kThreads
                                               : ParallelMode::kSimulated);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, BaselineParityFixture,
                         ::testing::Values(BackendKind::kLsm,
                                           BackendKind::kMem),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

// ---------------------------------------------- GroupAggregate parity ---

Relation MakeGroupedInput(size_t rows) {
  Relation in({"t.g", "t.v", "t.w"});
  for (size_t i = 0; i < rows; ++i) {
    // 97 groups, first appearances scattered, values with nulls mixed in.
    int64_t g = static_cast<int64_t>((i * 31) % 97);
    Value v = (i % 13 == 0) ? Value::Null()
                            : Value(static_cast<double>(i % 100) * 0.25);
    in.Add({Value(g), v, Value(static_cast<int64_t>(i))});
  }
  return in;
}

std::vector<SelectItem> AllAggItems() {
  std::vector<SelectItem> items;
  items.push_back({AggFn::kNone, Expr::Column("t", "g"), "t.g"});
  items.push_back({AggFn::kSum, Expr::Column("t", "v"), "s"});
  items.push_back({AggFn::kCount, nullptr, "c"});
  items.push_back({AggFn::kAvg, Expr::Column("t", "v"), "avg"});
  items.push_back({AggFn::kMin, Expr::Column("t", "v"), "mn"});
  items.push_back({AggFn::kMax, Expr::Column("t", "w"), "mx"});
  return items;
}

TEST(ParallelGroupAggregate, ThreadedRunsMatchSequentialAtEveryWorkerCount) {
  Relation in = MakeGroupedInput(20000);
  std::vector<AttrRef> group_by = {{"t", "g"}};
  auto items = AllAggItems();

  for (int workers : {2, 4, 8}) {
    QueryMetrics seq_m;
    auto seq = GroupAggregate(in, group_by, items, &seq_m, nullptr, workers);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    std::string seq_text = seq->ToString(1u << 20);

    ThreadPool pool(workers - 1);
    for (int run = 0; run < 20; ++run) {
      QueryMetrics thr_m;
      auto thr = GroupAggregate(in, group_by, items, &thr_m, &pool, workers);
      ASSERT_TRUE(thr.ok()) << thr.status().ToString();
      ASSERT_EQ(thr->ToString(1u << 20), seq_text)
          << "workers=" << workers << " run=" << run;
      ASSERT_TRUE(SameCounters(thr_m, seq_m))
          << "workers=" << workers << " run=" << run;
    }
  }
}

TEST(ParallelGroupAggregate, EmitsGroupsInFirstAppearanceOrder) {
  Relation in({"t.g", "t.v"});
  for (int64_t g : {7, 3, 7, 9, 3, 1}) {
    in.Add({Value(g), Value(int64_t{1})});
  }
  std::vector<SelectItem> items;
  items.push_back({AggFn::kNone, Expr::Column("t", "g"), "t.g"});
  items.push_back({AggFn::kCount, nullptr, "c"});
  // The canonical order holds at every worker count, pool or not.
  for (int workers : {1, 2, 4}) {
    ThreadPool pool(3);
    auto out = GroupAggregate(in, {{"t", "g"}}, items, nullptr, &pool, workers);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->size(), 4u);
    EXPECT_EQ(out->rows()[0][0].AsInt(), 7) << "workers=" << workers;
    EXPECT_EQ(out->rows()[1][0].AsInt(), 3);
    EXPECT_EQ(out->rows()[2][0].AsInt(), 9);
    EXPECT_EQ(out->rows()[3][0].AsInt(), 1);
    EXPECT_EQ(out->rows()[0][1].AsInt(), 2);  // two 7s merged across chunks
  }
}

// --------------------------------------------------- shared-pool reuse ---

TEST(SharedPool, ConnectionPoolServesEveryExecuteOnBothRoutes) {
  auto w = MakeMot(0.15, 23);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 4});
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  ASSERT_TRUE(z.BuildBaav(w->data).ok());

  Connection conn = z.Connect();
  auto prepared = conn.Prepare(w->queries[7].sql);  // mot-q8, KBA-routable
  ASSERT_TRUE(prepared.ok());

  AnswerInfo kba, taav;
  ASSERT_TRUE(prepared
                  ->Execute(ExecOptions{.workers = 4,
                                        .parallel_mode = ParallelMode::kThreads},
                            &kba)
                  .ok());
  ASSERT_TRUE(prepared
                  ->Execute(ExecOptions{.workers = 4,
                                        .route_policy =
                                            RoutePolicy::kForceBaseline,
                                        .parallel_mode = ParallelMode::kThreads},
                            &taav)
                  .ok());
  EXPECT_TRUE(kba.used_shared_pool);
  EXPECT_TRUE(taav.used_shared_pool);
  EXPECT_EQ(prepared->Explain().used_shared_pool, true);

  // An explicit ExecOptions::pool overrides the shared one.
  ThreadPool own(3);
  AnswerInfo overridden;
  ASSERT_TRUE(prepared
                  ->Execute(ExecOptions{.workers = 4,
                                        .parallel_mode = ParallelMode::kThreads,
                                        .pool = &own},
                            &overridden)
                  .ok());
  EXPECT_FALSE(overridden.used_shared_pool);
  EXPECT_EQ(overridden.parallel_mode, ParallelMode::kThreads);

  // kThreads at workers = 1 runs — and reports — the simulated path.
  AnswerInfo one;
  ASSERT_TRUE(prepared
                  ->Execute(ExecOptions{.workers = 1,
                                        .parallel_mode = ParallelMode::kThreads},
                            &one)
                  .ok());
  EXPECT_EQ(one.parallel_mode, ParallelMode::kSimulated);
  EXPECT_FALSE(one.used_shared_pool);

  // The pool survives the Connection: a PreparedQuery keeps the shared
  // state alive, so Executes after the session handle is gone stay safe.
  std::unique_ptr<PreparedQuery> survivor;
  {
    Connection temp = z.Connect();
    auto p = temp.Prepare(w->queries[7].sql);
    ASSERT_TRUE(p.ok());
    survivor = std::make_unique<PreparedQuery>(std::move(*p));
  }
  AnswerInfo after;
  ASSERT_TRUE(survivor
                  ->Execute(ExecOptions{.workers = 4,
                                        .parallel_mode = ParallelMode::kThreads},
                            &after)
                  .ok());
  EXPECT_TRUE(after.used_shared_pool);
}

}  // namespace
}  // namespace zidian
