#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory_resource>
#include <sstream>

namespace perfbench {

using namespace zidian;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * double(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - double(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / double(v.size());
}

SpeedProbe::SpeedProbe() : arena_(128 << 10) {}

namespace {

/// The probe's kernel: string-keyed map updates and small vector
/// allocations, all from `arena`. A kernel that outgrows the arena throws
/// rather than touch the heap.
void ProbeKernel(std::vector<std::byte>* arena) {
  static volatile int64_t sink = 0;
  std::pmr::monotonic_buffer_resource pool(arena->data(), arena->size(),
                                           std::pmr::null_memory_resource());
  std::pmr::map<std::pmr::string, int64_t> m(&pool);
  std::pmr::string key(&pool);
  for (int i = 0; i < 400; ++i) {
    key.assign(1, 'k');
    key += std::to_string((unsigned(i) * 7919u) % 257u);
    m[key] += i;
    std::pmr::vector<int64_t> row(8, i, &pool);
    sink = sink + row[3];
  }
}

}  // namespace

void SpeedProbe::Sample() {
  ProbeKernel(&arena_);  // untimed: brings the arena into the caches
  int64_t start = NowNs();
  ProbeKernel(&arena_);
  us_.push_back(double(NowNs() - start) / 1e3);
}

double SpeedProbe::Scale() const {
  return us_.empty() ? 1.0 : kReferenceUs / Median(us_);
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) value = 0;
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << metrics_[i].name << "\": {\"value\": " << metrics_[i].value
        << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void PrintMetric(const std::string& workload, const std::string& name,
                 double value, const std::string& unit) {
  std::printf("%-12s %-34s %16.6g %s\n", workload.c_str(), name.c_str(), value,
              unit.c_str());
}

bool SameAnswer(Relation a, Relation b, std::string* why) {
  a.SortRows();
  b.SortRows();
  if (a.size() != b.size()) {
    *why = "row count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  for (size_t r = 0; r < a.size(); ++r) {
    const Tuple& ra = a.rows()[r];
    const Tuple& rb = b.rows()[r];
    if (ra.size() != rb.size()) {
      *why = "arity differs in row " + std::to_string(r);
      return false;
    }
    for (size_t c = 0; c < ra.size(); ++c) {
      const Value& va = ra[c];
      const Value& vb = rb[c];
      bool same;
      if (va.IsNumeric() && vb.IsNumeric()) {
        double denom = std::max(1.0, std::abs(vb.Numeric()));
        same = std::abs(va.Numeric() / denom - vb.Numeric() / denom) <= 1e-9;
      } else {
        same = va == vb;
      }
      if (!same) {
        *why = "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": " + va.ToString() + " vs " + vb.ToString();
        return false;
      }
    }
  }
  return true;
}

void CheckAnswer(const Relation& got, const Relation& want,
                 const std::string& what) {
  std::string why;
  if (!SameAnswer(got, want, &why)) {
    Fail("wrong answer for " + what + ": " + why);
  }
}

void CorruptFirstRow(Relation* rel) {
  if (rel->empty()) Fail("nothing to corrupt");
  Value& v = rel->rows()[0][0];
  v = v.IsNumeric() ? Value(v.Numeric() + 1) : Value(v.ToString() + "#");
}

void Log(const std::string& what) {
  static const int64_t epoch = NowNs();
  std::fprintf(stderr, "[%8.3f] %s\n", SecondsSince(epoch), what.c_str());
}

void Fail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  std::exit(2);
}

void CheckOk(const Status& s, const std::string& what) {
  if (!s.ok()) Fail(what + ": " + s.ToString());
}

Instance LoadInstance(Workload workload, ClusterOptions options) {
  Instance inst;
  inst.workload = std::make_unique<Workload>(std::move(workload));
  for (const auto& [name, rel] : inst.workload->data) {
    for (const Tuple& t : rel.rows()) inst.user_bytes += TupleByteSize(t);
  }
  inst.cluster = std::make_unique<Cluster>(std::move(options));
  inst.zidian = std::make_unique<Zidian>(&inst.workload->catalog,
                                         inst.cluster.get(),
                                         inst.workload->baav);
  CheckOk(inst.zidian->LoadTaav(inst.workload->data), "LoadTaav");
  CheckOk(inst.zidian->BuildBaav(inst.workload->data), "BuildBaav");
  return inst;
}

double StoredBytesPerUserByte(const Instance& inst) {
  return double(inst.cluster->TotalBytes()) / double(inst.user_bytes);
}

void AddCounterLayers(const QueryMetrics& m, double ops, double result_rows,
                      Report* report) {
  auto per = [](double x, double base) { return base > 0 ? x / base : 0.0; };
  report->Set("kba.values_per_row",
              per(double(m.values_accessed), result_rows), "values/row");
  report->Set("kba.compute_values_per_op", per(double(m.compute_values), ops),
              "values/op");
  report->Set("storage.gets_per_op", per(double(m.get_calls), ops), "gets/op");
  report->Set("storage.round_trips_per_op", per(double(m.get_round_trips), ops),
              "trips/op");
  report->Set("storage.bytes_per_op", per(double(m.bytes_from_storage), ops),
              "B/op");
  report->Set("storage.cache_bytes_per_op",
              per(double(m.bytes_from_cache), ops), "B/op");
  report->Set("storage.nexts_per_op", per(double(m.next_calls), ops),
              "nexts/op");
  report->Set("storage.cache.hit_ratio",
              per(double(m.cache_hits),
                  double(m.cache_hits + m.cache_misses)),
              "hits/lookups");
  report->Set("storage.cache.evictions_per_op",
              per(double(m.cache_evictions), ops), "evictions/op");
  report->Set("storage.net.service_ms_per_op",
              per(double(m.net_service_ns) / 1e6, ops), "ms/op");
  report->Set("storage.net.queue_ms_per_op",
              per(m.net_queue_seconds * 1e3, ops), "ms/op");
  report->Set("storage.net.overlap_ms_per_op",
              per(double(m.net_overlap_ns) / 1e6, ops), "ms/op");
  uint64_t trips = 0, busiest = 0;
  for (uint64_t n : m.net_node_round_trips) {
    trips += n;
    busiest = std::max(busiest, n);
  }
  report->Set("storage.net.busiest_node_share",
              per(double(busiest), double(trips)), "node/all-trips");
}

}  // namespace perfbench
