bool CountersEqual(const QueryMetrics& a, const QueryMetrics& b) {
  ZIDIAN_QUERY_METRICS_FIELDS(ZIDIAN_METRIC_EQUAL)
  return true;
}
