// Fixture: `stray_counter` is declared by hand, not as a row of the
// table, so operator+=, CountersEqual and ToString never see it.
#define ZIDIAN_QUERY_METRICS_FIELDS(X)      \
  X(get_calls, Sum, kCompared)              \
  X(node_trips, PerNode, kCompared)         \
  X(net_overlap_ns, Sum, kScheduleShape)    \
  X(net_inflight_max, Peak, kScheduleShape) \
  X(wall_seconds, Real, kWall)

struct QueryMetrics {
  ZIDIAN_QUERY_METRICS_FIELDS(ZIDIAN_METRIC_MEMBER)
  uint64_t stray_counter = 0;
};
