// Tracing from outside the program: spans recorded around the benchmark's
// own calls into each layer's public functions, a key-recording storage
// engine that tells a replay which keys and prefixes an op touched, and
// the replays themselves (Prepare and Execute decomposed into the public
// entry points they call, then each op's storage traffic replayed through
// BaavStore, Cluster and DecodeBlock).
//
// Spans stay in memory and are written out when the run ends. A span's
// self time is its duration minus its children's.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.h"
#include "common/thread_pool.h"
#include "storage/kv_backend.h"
#include "zidian/planner.h"
#include "zidian/connection.h"

namespace perfbench {

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  ///< index of the enclosing span, -1 for a root
  uint32_t op;     ///< the op the span belongs to
};

/// Single-threaded span recorder: spans nest by call order.
class Tracer {
 public:
  int32_t Begin(const char* name, uint32_t op);
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations in microseconds of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Durations (us) of the direct children of span `root`, in order.
  std::vector<std::pair<std::string_view, double>> ChildrenUs(
      size_t root) const;
  /// Duration (us) of span `id`.
  double DurationUs(size_t id) const {
    return double(spans_[id].end_ns - spans_[id].start_ns) / 1e3;
  }
  /// Writes "op name parent start_ns end_ns" lines.
  void Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// A span over the enclosing scope; records nothing when `tracer` is null,
/// so a replay can also run untraced.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t op)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// What an op's storage traffic touched: point keys and scan prefixes.
class KeyLog {
 public:
  void SetRecording(bool on);
  void Clear();
  void AddKey(std::string_view key);
  void AddSeek(std::string_view prefix);
  std::vector<std::string> TakeKeys();
  std::vector<std::string> TakeSeeks();

 private:
  std::mutex mu_;
  bool recording_ = false;
  std::vector<std::string> keys_;
  std::vector<std::string> seeks_;
};

/// ClusterOptions::backend_factory for a traced instance: the default LSM
/// engine behind a wrapper that logs keys and scan prefixes while the
/// log records. Engines are unmetered, so the wrapper moves no counter.
std::function<std::unique_ptr<zidian::KvBackend>()> RecordingFactory(
    KeyLog* log);

/// The canonical per-layer metric list, every entry set to 0 so a traced
/// run prints all of them (zero where the workload has no such work).
void InitLayerMetrics(Report* report);

/// Prepare decomposed: ParseSelect, Bind, CheckResultPreserving and
/// GenerateKbaPlan, each in its own span.
struct ReplayPlan {
  zidian::QuerySpec spec;
  bool preserving = false;
  std::optional<zidian::PlannedQuery> planned;
};
ReplayPlan ReplayPrepare(Tracer* tracer, uint32_t op, const std::string& sql,
                         zidian::Zidian& z);

struct ReplayExec {
  int workers = 1;
  zidian::ParallelMode mode = zidian::ParallelMode::kSimulated;
  zidian::ThreadPool* pool = nullptr;  ///< set iff mode is kThreads
  zidian::FanoutMode fanout = zidian::FanoutMode::kSerial;
};

/// PreparedQuery::Execute's KBA route decomposed: KbaExecutor::Execute
/// (span kba.m3) then FinishQuery or OrderAndLimit (span kba.finish).
/// Scan prefixes and keys the execution reaches are logged when `log` is
/// non-null.
zidian::Relation ReplayKba(Tracer* tracer, uint32_t op,
                           const zidian::PlannedQuery& planned,
                           zidian::Zidian& z, const ReplayExec& exec,
                           KeyLog* log, zidian::QueryMetrics* m);

/// The forced-baseline route: TaavExecutor::Execute (span ra.taav).
zidian::Relation ReplayBaseline(Tracer* tracer, uint32_t op,
                                const zidian::QuerySpec& spec,
                                zidian::Zidian& z, const ReplayExec& exec,
                                KeyLog* log, zidian::QueryMetrics* m);

/// Which storage replays an op gets. Cache-touching replays are skipped
/// where the cache is smaller than the data, since moving LRU order would
/// change later ops' counters.
struct StorageReplay {
  bool point_reads = false;  ///< MultiGetBlocks + Cluster::MultiGet on/bypass
  bool scans = false;        ///< ScanPrefix, ScanInstance, DecodeBlock
};

/// Replays the keys and prefixes in `keys`/`seeks` through the storage
/// layers, each call in its own span under a "replay" root.
void ReplayStorage(Tracer* tracer, uint32_t op, zidian::Zidian& z,
                   const std::vector<std::string>& keys,
                   const std::vector<std::string>& seeks,
                   const StorageReplay& what, uint64_t* scan_rows,
                   uint64_t* decode_bytes);

/// Captures every key an already-planned KBA execution reads: the plan is
/// executed once more with the cache bypassed (which neither reads nor
/// fills the cache, so later ops see the same cache state).
void CaptureKbaKeys(const zidian::PlannedQuery& planned, zidian::Zidian& z,
                    const ReplayExec& exec, KeyLog* log,
                    std::vector<std::string>* keys);

/// Span-derived layer metrics shared by the workloads: medians of the
/// span durations, the storage replay rates, and the tracing overhead,
/// measured on one op stream: `traced_us` is the summed time of the ops'
/// replays with spans and `untraced_us` that of the same replays without
/// them (a null Tracer); the share is their difference over `untraced_us`.
void AddSpanLayers(const Tracer& tracer, uint64_t scan_rows,
                   uint64_t decode_bytes, double traced_us,
                   double untraced_us, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
