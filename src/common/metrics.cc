#include "common/metrics.h"

#include <algorithm>
#include <sstream>

namespace zidian {

std::string QueryMetrics::ToString() const {
  std::ostringstream os;
  os << "gets=" << get_calls << " round_trips=" << get_round_trips
     << " multigets=" << multiget_calls << " nexts=" << next_calls
     << " values=" << values_accessed << " storage_bytes=" << bytes_from_storage
     << " shuffle_bytes=" << shuffle_bytes << " comm=" << CommBytes();
  if (cache_hits != 0 || cache_misses != 0 || cache_negative_hits != 0) {
    os << " cache_hits=" << cache_hits << " cache_misses=" << cache_misses
       << " cache_evictions=" << cache_evictions
       << " cache_bytes=" << bytes_from_cache
       << " cache_negative_hits=" << cache_negative_hits;
  }
  if (net_service_ns != 0 || net_transfer_bytes != 0) {
    os << " net_bytes=" << net_transfer_bytes
       << " net_service_s=" << static_cast<double>(net_service_ns) / 1e9
       << " net_makespan_s=" << makespan_net_seconds
       << " net_queue_s=" << net_queue_seconds << " net_trips=[";
    for (size_t i = 0; i < net_node_round_trips.size(); ++i) {
      os << (i == 0 ? "" : " ") << net_node_round_trips[i];
    }
    os << "] net_busy_ns=[";
    for (size_t i = 0; i < net_node_busy_ns.size(); ++i) {
      os << (i == 0 ? "" : " ") << net_node_busy_ns[i];
    }
    os << "]";
  }
  if (net_overlap_ns != 0 || net_inflight_max != 0) {
    os << " net_overlap_s=" << static_cast<double>(net_overlap_ns) / 1e9
       << " net_inflight_max=" << net_inflight_max;
  }
  if (net_faults_injected != 0 || net_retries != 0 || net_timeouts != 0 ||
      net_hedges != 0 || failed_queries != 0) {
    os << " net_faults_injected=" << net_faults_injected
       << " net_retries=" << net_retries << " net_timeouts=" << net_timeouts
       << " net_hedges=" << net_hedges
       << " net_hedge_wins=" << net_hedge_wins
       << " failed_queries=" << failed_queries;
  }
  if (wall_seconds != 0) {
    os << " wall_s=" << wall_seconds << " wall_fetch_s=" << wall_fetch_seconds
       << " wall_compute_s=" << wall_compute_seconds;
  }
  return os.str();
}

namespace {
/// Per-node vectors compare with zero-padding: a run that never resized
/// the histogram did the same logical work as one holding all-zero slots.
bool NodeVectorsEqual(const std::vector<uint64_t>& a,
                      const std::vector<uint64_t>& b) {
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    uint64_t va = i < a.size() ? a[i] : 0;
    uint64_t vb = i < b.size() ? b[i] : 0;
    if (va != vb) return false;
  }
  return true;
}
}  // namespace

bool CountersEqual(const QueryMetrics& a, const QueryMetrics& b) {
  return a.get_calls == b.get_calls &&
         a.get_round_trips == b.get_round_trips &&
         a.multiget_calls == b.multiget_calls &&
         a.next_calls == b.next_calls && a.put_calls == b.put_calls &&
         a.delete_calls == b.delete_calls &&
         a.values_accessed == b.values_accessed &&
         a.bytes_from_storage == b.bytes_from_storage &&
         a.bytes_to_storage == b.bytes_to_storage &&
         a.cache_hits == b.cache_hits && a.cache_misses == b.cache_misses &&
         a.cache_evictions == b.cache_evictions &&
         a.bytes_from_cache == b.bytes_from_cache &&
         a.cache_negative_hits == b.cache_negative_hits &&
         a.net_transfer_bytes == b.net_transfer_bytes &&
         a.net_service_ns == b.net_service_ns &&
         NodeVectorsEqual(a.net_node_round_trips, b.net_node_round_trips) &&
         NodeVectorsEqual(a.net_node_busy_ns, b.net_node_busy_ns) &&
         a.net_faults_injected == b.net_faults_injected &&
         a.net_retries == b.net_retries && a.net_timeouts == b.net_timeouts &&
         a.net_hedges == b.net_hedges &&
         a.net_hedge_wins == b.net_hedge_wins &&
         a.failed_queries == b.failed_queries &&
         a.shuffle_bytes == b.shuffle_bytes &&
         a.compute_values == b.compute_values &&
         a.makespan_get == b.makespan_get &&
         a.makespan_next == b.makespan_next &&
         a.makespan_bytes == b.makespan_bytes &&
         a.makespan_compute == b.makespan_compute &&
         a.makespan_net_seconds == b.makespan_net_seconds &&
         a.net_queue_seconds == b.net_queue_seconds;
  // Deliberately NOT compared: net_overlap_ns / net_inflight_max (the
  // schedule-shape fields — they describe how the fan-out overlapped its
  // round trips, which varies between the two fan-out modes by
  // design) and the wall_* timings (they measure the machine). The lint
  // (tools/lint_invariants.py) pins both exemption lists.
}

}  // namespace zidian
