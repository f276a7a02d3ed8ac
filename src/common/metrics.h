// Cost accounting. The paper's experimental claims are phrased in terms of
// counts: #get invocations, #values accessed, bytes shipped (communication),
// and per-worker computation. Every storage and executor path increments
// these counters; the backend cost model (storage/backend.h) converts them
// into simulated seconds per SQL-over-NoSQL combination.
#ifndef ZIDIAN_COMMON_METRICS_H_
#define ZIDIAN_COMMON_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace zidian {

/// Schedule-shape summary of one overlapped fan-out (what
/// Cluster::MultiGet reports under FanoutMode::kOverlapped, and what a
/// worker accumulates across its fan-out rounds): how many modeled
/// nanoseconds the fan-out removed from its critical path by keeping every
/// touched node's batch in flight together (sum of per-node batch latencies
/// minus the max), and how many per-node batches were in flight at once. Pure functions
/// of the request stream — never of queueing or scheduling — so they are
/// bit-identical across parallel modes for a fixed partition.
struct FanoutStats {
  uint64_t overlap_ns = 0;
  uint64_t inflight_max = 0;

  /// Accumulates a later fan-out round: hidden time adds up along one
  /// worker's timeline; peak in-flight is a max.
  void Merge(const FanoutStats& o) {
    overlap_ns += o.overlap_ns;
    if (o.inflight_max > inflight_max) inflight_max = o.inflight_max;
  }
};

/// The kind column of the QueryMetrics table: a field's type and how
/// operator+= merges a later delta into it.
namespace metric_kind {
struct Sum {  ///< a volume: summed
  using Type = uint64_t;
  static void Merge(Type* into, Type from) { *into += from; }
};
struct Peak {  ///< a peak, not a volume: max-merged
  using Type = uint64_t;
  static void Merge(Type* into, Type from) { *into = std::max(*into, from); }
};
/// A per-storage-node histogram: summed elementwise, the shorter side
/// padded with zeros (a delta that only touched node 3 merges into an
/// 8-node total).
struct PerNode {
  using Type = std::vector<uint64_t>;
  static void Merge(Type* into, const Type& from) {
    if (into->size() < from.size()) into->resize(from.size(), 0);
    for (size_t i = 0; i < from.size(); ++i) (*into)[i] += from[i];
  }
};
struct Real {  ///< a cost in abstract units or seconds: summed
  using Type = double;
  static void Merge(Type* into, Type from) { *into += from; }
};
}  // namespace metric_kind

/// The parity column of the QueryMetrics table: what CountersEqual, the
/// determinism contract between ParallelMode::kSimulated and kThreads,
/// does with a field.
enum class MetricParity {
  kCompared,       ///< WHAT logical work was done: must match exactly
  kScheduleShape,  ///< HOW the fan-out overlapped its round trips: varies
                   ///< with the fan-out mode and worker partition
  kWall,           ///< measured wall clock: measures the machine
};

// The one list of QueryMetrics fields, as X(name, kind, parity) rows.
// The struct members, operator+=, CountersEqual and ToString all expand
// from it, and tools/lint_invariants.py reads it: adding a counter is one
// row here plus its docs/ARCHITECTURE.md glossary entry. Growing the
// kScheduleShape set is an API decision, not a convenience: a new
// counter is kCompared unless it is definitionally fan-out-schedule-shaped.
#define ZIDIAN_QUERY_METRICS_FIELDS(X)                                        \
  /* Storage-layer interaction. */                                            \
  /* point-key lookups (paper: #get); a MultiGet of K keys counts K */        \
  X(get_calls, Sum, kCompared)                                                \
  /* storage round trips: one per single Get, one per node batch in a         \
     MultiGet */                                                              \
  X(get_round_trips, Sum, kCompared)                                          \
  /* batched MultiGet invocations */                                          \
  X(multiget_calls, Sum, kCompared)                                           \
  /* scan iterator advances (blind scans) */                                  \
  X(next_calls, Sum, kCompared)                                               \
  X(put_calls, Sum, kCompared)                                                \
  X(delete_calls, Sum, kCompared)                                             \
  /* attribute values read (paper: #data) */                                  \
  X(values_accessed, Sum, kCompared)                                          \
  /* storage -> SQL layer traffic */                                          \
  X(bytes_from_storage, Sum, kCompared)                                       \
  /* SQL layer -> storage (puts/deletes) */                                   \
  X(bytes_to_storage, Sum, kCompared)                                         \
                                                                              \
  /* BlockCache interaction (all zero when the cache is off or bypassed). A   \
     cache hit still counts one logical get (paper-faithful #get) but no      \
     round trip and no storage bytes: the saving shows up as a round-trip     \
     delta and as bytes_from_cache instead of bytes_from_storage. */          \
  /* gets served by the BlockCache */                                         \
  X(cache_hits, Sum, kCompared)                                               \
  /* gets that fell through to a node */                                      \
  X(cache_misses, Sum, kCompared)                                             \
  /* entries evicted by this query's fills */                                 \
  X(cache_evictions, Sum, kCompared)                                          \
  /* cache -> SQL layer traffic (no comm) */                                  \
  X(bytes_from_cache, Sum, kCompared)                                         \
  /* gets answered "absent" by a cached negative entry (no round trip) */     \
  X(cache_negative_hits, Sum, kCompared)                                      \
                                                                              \
  /* NetworkModel interaction (all zero/empty when no network is              \
     configured; see storage/network_model.h). Everything here is metered     \
     in integers (requests, bytes, nanoseconds), so the totals are            \
     bit-identical between ParallelMode::kSimulated and kThreads no matter    \
     how worker deltas are chunked and merged. */                             \
  /* payload bytes charged per-byte transfer cost by the network */           \
  X(net_transfer_bytes, Sum, kCompared)                                       \
  /* summed modeled request latency (rtt + node busy), contention excluded */ \
  X(net_service_ns, Sum, kCompared)                                           \
  /* per-node histogram of network requests (Get / per-node MultiGet batch    \
     / Put / Delete / baseline per-tuple gets) */                             \
  X(net_node_round_trips, PerNode, kCompared)                                 \
  /* per-node serialized busy time (the queueing input) */                    \
  X(net_node_busy_ns, PerNode, kCompared)                                     \
                                                                              \
  /* Fault-injection / recovery accounting (all zero when no fault schedule   \
     is configured; see FaultScheduleOptions in storage/network_model.h).     \
     Counted PER KEY, not per wire request: a key's fault verdicts depend     \
     only on (seed, key, node, attempt), so these sums are invariant under    \
     how a batch is partitioned across workers: identical across              \
     kSimulated/kThreads AND across worker counts for a fixed seed. */        \
  /* attempts failed by the schedule (node down for the key's window, or      \
     the attempt hash lost it) */                                             \
  X(net_faults_injected, Sum, kCompared)                                      \
  /* re-sent attempts beyond a key's first */                                 \
  X(net_retries, Sum, kCompared)                                              \
  /* attempts abandoned by the per-request timeout (modeled latency           \
     exceeded it) */                                                          \
  X(net_timeouts, Sum, kCompared)                                             \
  /* keys whose slow primary estimate fired a hedged fetch against a          \
     replica */                                                               \
  X(net_hedges, Sum, kCompared)                                               \
  /* hedged keys the replica answered first */                                \
  X(net_hedge_wins, Sum, kCompared)                                           \
  /* whole queries that failed cleanly with a structured error (retries       \
     exhausted) */                                                            \
  X(failed_queries, Sum, kCompared)                                           \
                                                                              \
  /* SQL-layer work. */                                                       \
  /* compute-node <-> compute-node traffic */                                 \
  X(shuffle_bytes, Sum, kCompared)                                            \
  /* values touched by operators */                                           \
  X(compute_values, Sum, kCompared)                                           \
                                                                              \
  /* Simulated parallel makespan components, filled by the executors: max     \
     over workers of each cost category (in abstract cost units that the      \
     backend profile converts to seconds). */                                 \
  /* max per-worker #get that reached storage (cache hits are local memory    \
     and carry no per-get latency) */                                         \
  X(makespan_get, Real, kCompared)                                            \
  /* max per-worker #next (scan advances) */                                  \
  X(makespan_next, Real, kCompared)                                           \
  /* max per-worker bytes moved */                                            \
  X(makespan_bytes, Real, kCompared)                                          \
  /* max per-worker values computed */                                        \
  X(makespan_compute, Real, kCompared)                                        \
  /* slowest worker's modeled network time (from net_service_ns deltas) */    \
  X(makespan_net_seconds, Real, kCompared)                                    \
  /* modeled queueing delay: how far the bottleneck node's busy total         \
     exceeds the per-worker network makespan (kba/makespan.h                  \
     FinalizeNetworkQueue; deterministic, unlike wall_*) */                   \
  X(net_queue_seconds, Real, kCompared)                                       \
                                                                              \
  /* Schedule-shape observability for the overlapped fan-out                  \
     (FanoutMode::kOverlapped), set at the executors' merge points            \
     (kba/makespan.h ChargeFanoutOverlap). Deterministic (pure modeled        \
     time, never queueing): the async parity suite asserts them equal         \
     across kSimulated/kThreads at a fixed partition. */                      \
  /* modeled ns removed from the critical path by overlapping per-node        \
     batches (0 on every serial-fan-out run) */                               \
  X(net_overlap_ns, Sum, kScheduleShape)                                      \
  /* peak per-node batches in flight in one overlapped fan-out (0 when no     \
     async fan-out ran) */                                                    \
  X(net_inflight_max, Peak, kScheduleShape)                                   \
                                                                              \
  /* Measured wall-clock (seconds), stamped by the executors when they run    \
     for real; zero when not measured. */                                     \
  /* whole M3 execution */                                                    \
  X(wall_seconds, Real, kWall)                                                \
  /* extension fan-out (block fetches) */                                     \
  X(wall_fetch_seconds, Real, kWall)                                          \
  /* parallel operator regions (σ/π/⋈) */                                     \
  X(wall_compute_seconds, Real, kWall)

/// Counters for one query execution (or one storage workload run).
struct QueryMetrics {
#define ZIDIAN_METRIC_MEMBER(name, kind, parity) \
  metric_kind::kind::Type name{};
  ZIDIAN_QUERY_METRICS_FIELDS(ZIDIAN_METRIC_MEMBER)
#undef ZIDIAN_METRIC_MEMBER

  /// Total communication in bytes (paper's "comm" column).
  uint64_t CommBytes() const { return bytes_from_storage + shuffle_bytes; }

  QueryMetrics& operator+=(const QueryMetrics& o) {
#define ZIDIAN_METRIC_MERGE(name, kind, parity) \
  metric_kind::kind::Merge(&name, o.name);
    ZIDIAN_QUERY_METRICS_FIELDS(ZIDIAN_METRIC_MERGE)
#undef ZIDIAN_METRIC_MERGE
    return *this;
  }

  /// Every non-zero field as `name=value`, then `comm=`.
  std::string ToString() const;
};

/// Whether two runs did exactly the same logical work: every kCompared
/// field equal (per-node vectors zero-padded), the kScheduleShape and kWall
/// fields ignored.
bool CountersEqual(const QueryMetrics& a, const QueryMetrics& b);

}  // namespace zidian

#endif  // ZIDIAN_COMMON_METRICS_H_
