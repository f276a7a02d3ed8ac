#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>

#include "baav/block.h"
#include "common/coding.h"
#include "kba/kba_executor.h"
#include "kba/makespan.h"
#include "ra/eval.h"
#include "ra/taav.h"
#include "relational/value.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/lsm_store.h"
#include "zidian/preservation.h"

namespace perfbench {

using namespace zidian;

// ------------------------------------------------------------------ spans ---

int32_t Tracer::Begin(const char* name, uint32_t op) {
  int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent, op});
  int32_t id = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  stack_.pop_back();
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) out.push_back(DurationUs(i));
  }
  return out;
}

std::vector<std::pair<std::string_view, double>> Tracer::ChildrenUs(
    size_t root) const {
  std::vector<std::pair<std::string_view, double>> out;
  for (size_t i = root + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == static_cast<int32_t>(root)) {
      out.emplace_back(spans_[i].name, DurationUs(i));
    }
  }
  return out;
}

void Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "op\tname\tparent\tstart_ns\tend_ns\n";
  int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    out << s.op << '\t' << s.name << '\t' << s.parent << '\t'
        << s.start_ns - epoch << '\t' << s.end_ns - epoch << '\n';
  }
}

// ------------------------------------------------------ recording engine ---

void KeyLog::SetRecording(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  recording_ = on;
}

void KeyLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  keys_.clear();
  seeks_.clear();
}

void KeyLog::AddKey(std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (recording_) keys_.emplace_back(key);
}

void KeyLog::AddSeek(std::string_view prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  if (recording_) seeks_.emplace_back(prefix);
}

std::vector<std::string> KeyLog::TakeKeys() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(keys_);
}

std::vector<std::string> KeyLog::TakeSeeks() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(seeks_);
}

namespace {

class RecordingIterator : public KvIterator {
 public:
  RecordingIterator(std::unique_ptr<KvIterator> inner, KeyLog* log)
      : inner_(std::move(inner)), log_(log) {}
  void Seek(std::string_view target) override {
    log_->AddSeek(target);
    inner_->Seek(target);
  }
  void SeekToFirst() override { inner_->SeekToFirst(); }
  bool Valid() const override { return inner_->Valid(); }
  void Next() override { inner_->Next(); }
  std::string_view key() const override { return inner_->key(); }
  std::string_view value() const override { return inner_->value(); }

 private:
  std::unique_ptr<KvIterator> inner_;
  KeyLog* log_;
};

class RecordingBackend : public KvBackend {
 public:
  explicit RecordingBackend(KeyLog* log) : log_(log) {}
  std::string_view name() const override { return inner_.name(); }
  Status Put(std::string_view key, std::string_view value) override {
    return inner_.Put(key, value);
  }
  Status Delete(std::string_view key) override { return inner_.Delete(key); }
  Result<std::string> Get(std::string_view key) const override {
    log_->AddKey(key);
    return inner_.Get(key);
  }
  void MultiGet(std::span<const BatchedKey> keys,
                std::vector<std::optional<std::string>>* out) const override {
    for (const BatchedKey& k : keys) log_->AddKey(k.key);
    inner_.MultiGet(keys, out);
  }
  std::unique_ptr<KvIterator> NewIterator() const override {
    return std::make_unique<RecordingIterator>(inner_.NewIterator(), log_);
  }
  void Flush() override { inner_.Flush(); }
  void Compact() override { inner_.Compact(); }
  void Clear() override { inner_.Clear(); }
  size_t ApproximateBytes() const override { return inner_.ApproximateBytes(); }
  size_t NumLiveEntries() const override { return inner_.NumLiveEntries(); }

 private:
  LsmStore inner_;
  KeyLog* log_;
};

}  // namespace

std::function<std::unique_ptr<KvBackend>()> RecordingFactory(KeyLog* log) {
  return [log] { return std::make_unique<RecordingBackend>(log); };
}

// ---------------------------------------------------------- layer metrics ---

void InitLayerMetrics(Report* report) {
  const char* us_metrics[] = {
      "sql.parse_us",        "sql.bind_us",         "zidian.m1_us",
      "zidian.m2_us",        "zidian.prepare_us",   "zidian.prepare_self_us",
      "kba.execute_us",      "kba.m3_us",           "kba.finish_us",
      "baav.multiget_blocks_us", "baav.insert_us",  "storage.put_us",
      "storage.multiget_us", "storage.multiget_bypass_us"};
  for (const char* name : us_metrics) report->Set(name, 0, "us");
  report->Set("zidian.prepare_share", 0, "prepare/adhoc");
  for (int q = 1; q <= 22; ++q) {
    report->Set("kba.query_ms.q" + std::to_string(q), 0, "ms");
  }
  for (int q = 1; q <= 22; ++q) {
    report->Set("ra.taav_query_ms.q" + std::to_string(q), 0, "ms");
  }
  report->Set("kba.fetch_share", 0, "fetch/wall");
  AddCounterLayers(QueryMetrics{}, 0, 0, report);
  report->Set("baav.scan_rows_per_s", 0, "rows/s");
  report->Set("baav.decode_mb_per_s", 0, "MB/s");
  report->Set("storage.scan_prefix_ms", 0, "ms");
  report->Set("serve.rejected_share", 0, "rejected/offered");
  report->Set("serve.session_imbalance", 0, "max/min");
  report->Set("serve.write_gate_share", 0, "gate/wall");
  report->Set("trace.overhead_share", 0, "extra/untraced");
  report->Set("trace.span_coverage", 0, "spans/op");
  report->Set("trace.same_work_ops", 0, "count");
  report->Set("trace.spans", 0, "count");
}

void AddSpanLayers(const Tracer& tracer, uint64_t scan_rows,
                   uint64_t decode_bytes, double traced_us,
                   double untraced_us, Report* report) {
  auto median_us = [&](const char* span, const char* metric) {
    report->Set(metric, Median(tracer.DurationsUs(span)), "us");
  };
  median_us("sql.parse", "sql.parse_us");
  median_us("sql.bind", "sql.bind_us");
  median_us("zidian.m1", "zidian.m1_us");
  median_us("zidian.m2", "zidian.m2_us");
  median_us("zidian.prepare", "zidian.prepare_us");
  median_us("kba.execute", "kba.execute_us");
  median_us("kba.m3", "kba.m3_us");
  median_us("kba.finish", "kba.finish_us");
  median_us("baav.multiget_blocks", "baav.multiget_blocks_us");
  median_us("baav.insert", "baav.insert_us");
  median_us("storage.put", "storage.put_us");
  median_us("storage.multiget", "storage.multiget_us");
  median_us("storage.multiget_bypass", "storage.multiget_bypass_us");
  report->Set("storage.scan_prefix_ms",
              Median(tracer.DurationsUs("storage.scan_prefix")) / 1e3,
              "ms");
  auto total_s = [&](const char* span) {
    double us = 0;
    for (double d : tracer.DurationsUs(span)) us += d;
    return us / 1e6;
  };
  double scan_s = total_s("baav.scan_instance");
  double decode_s = total_s("baav.decode");
  report->Set("baav.scan_rows_per_s",
              scan_s > 0 ? double(scan_rows) / scan_s : 0, "rows/s");
  report->Set("baav.decode_mb_per_s",
              decode_s > 0 ? double(decode_bytes) / 1e6 / decode_s : 0,
              "MB/s");
  report->Set("trace.spans", double(tracer.spans().size()), "count");
  report->Set("trace.overhead_share",
              untraced_us > 0 ? (traced_us - untraced_us) / untraced_us : 0,
              "extra/untraced");
}

// ---------------------------------------------------------------- replays ---

ReplayPlan ReplayPrepare(Tracer* tracer, uint32_t op, const std::string& sql,
                         Zidian& z) {
  ReplayPlan out;
  SelectStmt stmt;
  {
    ScopedSpan span(tracer, "sql.parse", op);
    stmt = Check(ParseSelect(sql), "ParseSelect");
  }
  {
    ScopedSpan span(tracer, "sql.bind", op);
    out.spec = Check(Bind(stmt, z.catalog()), "Bind");
  }
  {
    ScopedSpan span(tracer, "zidian.m1", op);
    out.preserving = Check(CheckResultPreserving(out.spec, z.catalog(),
                                                 z.store().schema()),
                           "CheckResultPreserving")
                         .preserving;
  }
  if (out.preserving) {
    ScopedSpan span(tracer, "zidian.m2", op);
    out.planned = Check(GenerateKbaPlan(out.spec, z.catalog(), z.store(),
                                        z.options().planner),
                        "GenerateKbaPlan");
  }
  return out;
}

Relation ReplayKba(Tracer* tracer, uint32_t op, const PlannedQuery& planned,
                   Zidian& z, const ReplayExec& exec, KeyLog* log,
                   QueryMetrics* m) {
  KbaExecutor executor(&z.store());
  KvInst chain;
  {
    ScopedSpan span(tracer, "kba.m3", op);
    if (log != nullptr) log->SetRecording(true);
    auto r = executor.Execute(*planned.plan,
                              KbaExecOptions{.workers = exec.workers,
                                             .parallel_mode = exec.mode,
                                             .pool = exec.pool,
                                             .fanout = exec.fanout},
                              m);
    if (log != nullptr) log->SetRecording(false);
    chain = Check(std::move(r), "KbaExecutor::Execute");
  }
  ScopedSpan span(tracer, "kba.finish", op);
  Relation result;
  if (planned.stats_pushdown) {
    result = std::move(chain.rel);
    CheckOk(OrderAndLimit(planned.exec_spec.order_by, planned.exec_spec.limit,
                          &result),
            "OrderAndLimit");
  } else {
    result = Check(FinishQuery(chain.rel, planned.exec_spec, m, exec.pool,
                               exec.workers),
                   "FinishQuery");
  }
  SpreadMakespans(exec.workers, m);
  return result;
}

Relation ReplayBaseline(Tracer* tracer, uint32_t op, const QuerySpec& spec,
                        Zidian& z, const ReplayExec& exec, KeyLog* log,
                        QueryMetrics* m) {
  TaavExecutor baseline(&z.catalog(), &z.cluster());
  ScopedSpan span(tracer, "ra.taav", op);
  if (log != nullptr) log->SetRecording(true);
  auto r = baseline.Execute(spec,
                            TaavExecOptions{.workers = exec.workers,
                                            .parallel_mode = exec.mode,
                                            .pool = exec.pool,
                                            .fanout = exec.fanout},
                            m);
  if (log != nullptr) log->SetRecording(false);
  return Check(std::move(r), "TaavExecutor::Execute");
}

void CaptureKbaKeys(const PlannedQuery& planned, Zidian& z,
                    const ReplayExec& exec, KeyLog* log,
                    std::vector<std::string>* keys) {
  Cluster& cluster = z.cluster();
  bool was_bypassed = cluster.cache_bypassed();
  cluster.SetCacheBypass(true);
  log->Clear();
  log->SetRecording(true);
  QueryMetrics scratch;
  auto r = KbaExecutor(&z.store())
               .Execute(*planned.plan,
                        KbaExecOptions{.workers = exec.workers,
                                       .parallel_mode = exec.mode,
                                       .pool = exec.pool,
                                       .fanout = exec.fanout},
                        &scratch);
  log->SetRecording(false);
  cluster.SetCacheBypass(was_bypassed);
  Check(std::move(r), "key capture");
  *keys = log->TakeKeys();
  log->Clear();
}

namespace {

/// A BaaV segment key split into its instance, X tuple and segment number.
struct BlockKey {
  const KvSchema* kv = nullptr;
  Tuple x;
  int64_t segment = 0;
};

bool ParseBlockKey(std::string_view key, const BaavSchema& schema,
                   BlockKey* out) {
  if (key.empty() || key[0] != 'B') return false;
  key.remove_prefix(1);
  std::string name;
  if (!DecodeOrderedString(&key, &name)) return false;
  out->kv = schema.Find(name);
  if (out->kv == nullptr) return false;
  out->x.clear();
  for (size_t i = 0; i < out->kv->key_attrs.size(); ++i) {
    Value v;
    if (!Value::DecodeOrdered(&key, &v)) return false;
    out->x.push_back(std::move(v));
  }
  return DecodeOrderedInt64(&key, &out->segment);
}

/// The instance a scan prefix covers, or null for a TaaV table prefix. A
/// prefix that is neither fails the run: the replay re-derives BaavStore's
/// key format, and a change to that format must not silently empty the
/// scan and decode metrics.
const KvSchema* PrefixInstance(const std::string& prefix,
                               const Catalog& catalog,
                               const BaavSchema& schema) {
  for (const std::string& table : catalog.TableNames()) {
    if (prefix == TaavPrefix(table)) return nullptr;
  }
  std::string_view rest = prefix;
  std::string name;
  const KvSchema* kv = nullptr;
  if (!rest.empty() && rest[0] == 'B') {
    rest.remove_prefix(1);
    if (DecodeOrderedString(&rest, &name) && rest.empty()) {
      kv = schema.Find(name);
    }
  }
  if (kv == nullptr) Fail("scan prefix maps to no table or instance");
  return kv;
}

}  // namespace

void ReplayStorage(Tracer* tracer, uint32_t op, Zidian& z,
                   const std::vector<std::string>& keys,
                   const std::vector<std::string>& seeks,
                   const StorageReplay& what, uint64_t* scan_rows,
                   uint64_t* decode_bytes) {
  const BaavSchema& schema = z.store().schema();
  Cluster& cluster = z.cluster();
  ScopedSpan root(tracer, "replay", op);
  QueryMetrics m;
  if (what.point_reads && !keys.empty()) {
    std::map<const KvSchema*, std::vector<Tuple>> blocks;
    for (const std::string& key : keys) {
      BlockKey parsed;
      if (!ParseBlockKey(key, schema, &parsed)) Fail("unparsable block key");
      if (parsed.segment == 0) blocks[parsed.kv].push_back(parsed.x);
    }
    if (!blocks.empty()) {
      ScopedSpan span(tracer, "baav.multiget_blocks", op);
      for (const auto& [kv, xs] : blocks) {
        Check(z.store().MultiGetBlocks(*kv, xs, &m), "MultiGetBlocks");
      }
    }
    {
      ScopedSpan span(tracer, "storage.multiget", op);
      MultiGetResult r = cluster.MultiGet(keys, &m);
      CheckOk(r.status, "Cluster::MultiGet");
    }
    {
      bool was_bypassed = cluster.cache_bypassed();
      cluster.SetCacheBypass(true);
      ScopedSpan span(tracer, "storage.multiget_bypass", op);
      MultiGetResult r = cluster.MultiGet(keys, &m);
      cluster.SetCacheBypass(was_bypassed);
      CheckOk(r.status, "Cluster::MultiGet (bypassed)");
    }
  }
  if (what.scans) {
    std::set<std::string> prefixes(seeks.begin(), seeks.end());
    for (const std::string& prefix : prefixes) {
      std::vector<std::pair<std::string, std::string>> pairs;
      {
        ScopedSpan span(tracer, "storage.scan_prefix", op);
        cluster.ScanPrefix(prefix, &m,
                           [&](std::string_view k, std::string_view v) {
                             pairs.emplace_back(k, v);
                           });
      }
      const KvSchema* kv = PrefixInstance(prefix, z.catalog(), schema);
      if (kv == nullptr) continue;
      {
        ScopedSpan span(tracer, "baav.decode", op);
        std::vector<Tuple> rows;
        for (const auto& [k, v] : pairs) {
          BlockKey parsed;
          if (!ParseBlockKey(k, schema, &parsed)) Fail("unparsable block key");
          std::string_view data = v;
          uint64_t segments = 0;
          if (parsed.segment == 0 && !GetVarint64(&data, &segments)) {
            Fail("truncated segment header");
          }
          rows.clear();
          CheckOk(DecodeBlock(data, kv->value_attrs.size(), &rows),
                  "DecodeBlock");
          *decode_bytes += data.size();
        }
      }
      {
        ScopedSpan span(tracer, "baav.scan_instance", op);
        CheckOk(z.store().ScanInstance(
                    *kv, &m,
                    [&](const Tuple&, const std::vector<Tuple>& rows) {
                      *scan_rows += rows.size();
                    }),
                "ScanInstance");
      }
    }
  }
}

}  // namespace perfbench
