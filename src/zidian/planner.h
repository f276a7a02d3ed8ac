// Module M2 (§6): deciding scan-free / bounded queries and generating KBA
// plans that are guaranteed scan-free (resp. bounded) whenever the query is
// (Theorems 4-6).
//
// The chase state mirrors the paper's (GET(Q,~R), VC(Q,~R)) computation:
//  * GET starts from the constant-bound attributes X^Q_C (rule a),
//    propagates along equality classes of min(Q) (rule b), and across KV
//    schemas whose key attributes are available (rule c). Every application
//    of rule (c) is recorded as a chase step — the step *is* an extension ∝,
//    so replaying the recorded sequence yields the scan-free plan directly
//    (the proof-to-plan translation of §6.2).
//  * VC collects, per KV schema fully inside GET, the equality-aware closure
//    of reachable attributes; Condition III holds iff every alias's
//    X^{min(Q)}_R fits inside one element of VC.
//
// For result-preserving but non-scan-free queries, unreached aliases fall
// back to KV-instance scans joined into the chain (§5.1 (3), §6.2 step (3)).
// The scans join in connected order: next comes the first remaining scan,
// in alias order, with a join pair to a column already available; a
// keyless join (a cross product) is planned only when none remains
// connected, i.e. when the query's join graph is disconnected. A chain that
// starts with a scan and has no constant columns starts from that scan,
// not from a join with a column-less constant leaf.
#ifndef ZIDIAN_ZIDIAN_PLANNER_H_
#define ZIDIAN_ZIDIAN_PLANNER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "baav/baav_store.h"
#include "baav/kv_schema.h"
#include "common/result.h"
#include "kba/kba_plan.h"
#include "ra/spc.h"
#include "relational/schema.h"
#include "sql/query_spec.h"

namespace zidian {

/// One application of GET rule (c): alias extended through a KV schema, with
/// the GET attribute feeding each key attribute of the schema.
struct ChaseStep {
  std::string alias;
  std::string kv_name;
  /// For each key attr x of the schema (in order): the already-available
  /// qualified attribute that supplies it (same attr, an equal attr, or a
  /// constant-bound attr).
  std::vector<std::pair<AttrRef, std::string>> bindings;
};

/// Outcome of the GET/VC chase over min(Q).
struct ChaseResult {
  std::set<AttrRef> get;                 ///< GET(Q, ~R)
  std::vector<std::set<AttrRef>> vc;     ///< VC(Q, ~R)
  std::vector<ChaseStep> steps;          ///< rule (c) applications, in order
  bool scan_free = false;                ///< Condition III verdict
  std::vector<std::string> unreached;    ///< aliases failing Condition III
};

/// Runs the chase for the minimized core of `spec` against `baav`.
Result<ChaseResult> ChaseGetVc(const QuerySpec& spec,
                               const MinimizedSPC& min_spc,
                               const BaavSchema& baav, const Catalog& catalog);

/// True iff the SPC core of `spec` is scan-free over `baav` (Condition III /
/// Theorem 4; Theorem 5 lifts it to RA_aggr via the max SPC sub-query).
Result<bool> IsScanFree(const QuerySpec& spec, const Catalog& catalog,
                        const BaavSchema& baav);

struct PlannerOptions {
  /// deg(~D) threshold under which a scan-free query counts as bounded.
  uint64_t bounded_degree_threshold = 64;
  /// Use per-block statistics headers for eligible grouped aggregates.
  bool enable_stats_pushdown = true;
};

struct PlannedQuery {
  KbaPlanPtr plan;
  bool scan_free = false;
  bool bounded = false;
  bool stats_pushdown = false;
  /// Aliases answered by instance scans (empty when scan_free).
  std::vector<std::string> scanned_aliases;
  /// The query rewritten onto min(Q)'s aliases and physically available
  /// columns; the facade finishes (aggregates/projects/orders) with it.
  QuerySpec exec_spec;
};

/// Generates a KBA plan for `spec` over the store's BaaV schema. Requires
/// the query to be result preserving (checked by the caller, module M1).
/// The plan is scan-free iff the query is; bounded queries additionally
/// need every extension target's degree under the threshold (§6.1).
Result<PlannedQuery> GenerateKbaPlan(const QuerySpec& spec,
                                     const Catalog& catalog,
                                     const BaavStore& store,
                                     const PlannerOptions& options = {});

}  // namespace zidian

#endif  // ZIDIAN_ZIDIAN_PLANNER_H_
