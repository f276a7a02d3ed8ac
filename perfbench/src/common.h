// Shared pieces of the benchmark program: arguments, clocks, statistics,
// the metric report, answer comparison and instance set-up. Everything
// here calls the program only through its public headers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "relational/relation.h"
#include "storage/cluster.h"
#include "workloads/workload.h"
#include "zidian/zidian.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test hook: corrupt one expected answer in set-up, so the run
  /// must fail its answer check.
  bool corrupt_expected = false;
  /// Where a traced run writes its spans.
  std::string trace_dir = ".";
};

int64_t NowNs();
inline double SecondsSince(int64_t start_ns) {
  return double(NowNs() - start_ns) / 1e9;
}

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& v);

/// Machine-speed probe. On a shared machine the speed available to the
/// run drifts with other tenants' load, and that drift, not the program,
/// set most of the run-to-run spread of CPU-bound timings. The probe times
/// a fixed kernel of the benchmark's own code (string-keyed map updates
/// and small vector allocations, the middleware's mix) outside every timed
/// call. point_hot and olap_scan report their timings at the reference
/// speed: multiplied by Scale(). serve_mixed reports as measured and only
/// prints the probe: its timings mix modelled network sleep with CPU work
/// on four busy threads, which a single-threaded probe does not track.
///
/// The probe is kept from seeing the program's state where it can be: its
/// allocations come from its own preallocated arena, never the program's
/// heap, and each sample runs the kernel once untimed to bring that arena
/// into the caches before the timed run. It still shares the core with the
/// program, so a change that leaves the core in a slower state (frequency,
/// predictors) can move it a little; the as-measured values are printed
/// too.
class SpeedProbe {
 public:
  static constexpr double kReferenceUs = 60;
  SpeedProbe();
  void Sample();
  /// Reference kernel time over this run's median kernel time.
  double Scale() const;
  double MedianUs() const { return Median(us_); }

 private:
  std::vector<std::byte> arena_;
  std::vector<double> us_;
};

/// Peak resident set of this process so far, MiB.
double PeakRssMib();

/// One named value with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// The closing result line: {"correct", "attempted", "failed", "metrics"}.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Prints "  name  value unit" for a human reader (stdout, before the
/// result line).
void PrintMetric(const std::string& workload, const std::string& name,
                 double value, const std::string& unit);

/// The repository parity tests' comparison: rows sorted, equal counts,
/// numerics equal within 1e-9 relative, everything else exactly equal.
bool SameAnswer(zidian::Relation a, zidian::Relation b, std::string* why);

/// Progress note on stderr, stamped with seconds since the process began.
void Log(const std::string& what);

/// Fails the run unless SameAnswer(got, want).
void CheckAnswer(const zidian::Relation& got, const zidian::Relation& want,
                 const std::string& what);

/// Self-test hook: changes the first value of the first row.
void CorruptFirstRow(zidian::Relation* rel);

/// Aborts the run (non-zero exit, no result line) with a message.
[[noreturn]] void Fail(const std::string& what);

template <typename T>
T Check(zidian::Result<T> r, const std::string& what) {
  if (!r.ok()) Fail(what + ": " + r.status().ToString());
  return std::move(r).value();
}
void CheckOk(const zidian::Status& s, const std::string& what);

/// A generated workload loaded into a fresh cluster under both layouts.
struct Instance {
  /// Heap-held: the Zidian keeps pointers into its catalog, so the
  /// workload must not move when the Instance does.
  std::unique_ptr<zidian::Workload> workload;
  std::unique_ptr<zidian::Cluster> cluster;
  std::unique_ptr<zidian::Zidian> zidian;
  uint64_t user_bytes = 0;  ///< summed TupleByteSize of the generated rows
};

Instance LoadInstance(zidian::Workload workload,
                      zidian::ClusterOptions options);

/// Cluster::TotalBytes after set-up over the generated user bytes.
double StoredBytesPerUserByte(const Instance& inst);

/// Per-op counters from QueryMetrics summed over `ops` operations. Every
/// name is always printed, zero where the workload does no such work.
void AddCounterLayers(const zidian::QueryMetrics& sum, double ops,
                      double result_rows, Report* report);

/// The workloads. Each prints its metrics and the closing result line
/// and returns the exit code.
int RunPointHot(const Args& args);
int RunOlapScan(const Args& args);
int RunServeMixed(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
