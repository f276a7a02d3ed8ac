// Fixture: the plain counter `get_calls` is marked kScheduleShape, which
// would drop it from CountersEqual; the schedule-shape rows are pinned.
#define ZIDIAN_QUERY_METRICS_FIELDS(X)      \
  X(get_calls, Sum, kScheduleShape)         \
  X(node_trips, PerNode, kCompared)         \
  X(net_overlap_ns, Sum, kScheduleShape)    \
  X(net_inflight_max, Peak, kScheduleShape) \
  X(wall_seconds, Real, kWall)

struct QueryMetrics {
  ZIDIAN_QUERY_METRICS_FIELDS(ZIDIAN_METRIC_MEMBER)
};
