// BaaV store ~D (§4.1, §8.2): the physical realization of a BaaV schema on
// the same KV cluster that holds the TaaV data. Module M4's data plane.
//
// Key layout per KV instance ~R<X,Y>:
//   key   = "B" . ordered(instance name) . ordered(X values) . ordered(seg#)
//   value = [segment 0 only] varint total_segments, then the block encoding
//
// Blocks larger than `block_split_threshold_bytes` are split into segments
// that share the X value and carry consecutive segment numbers; they
// logically behave as a single keyed block (§8.2). A point access costs one
// get per segment (one get for degree-bounded blocks).
//
// The store also implements:
//  * the relational->BaaV mapping (BuildInstance / BuildAll, §4.1),
//  * incremental maintenance under insert/delete in O(|Δ| · deg(~D)) (§8.2),
//  * degree tracking (deg of each instance, §4.1) for boundedness checks,
//  * header-only statistics access for grouped aggregates (§8.2).
#ifndef ZIDIAN_BAAV_BAAV_STORE_H_
#define ZIDIAN_BAAV_BAAV_STORE_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "baav/block.h"
#include "baav/kv_schema.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "storage/cluster.h"

namespace zidian {

struct BaavStoreOptions {
  /// Split threshold per keyed block (paper default 500MB per relation;
  /// scaled to the simulator's data sizes — ablated in bench_ablation).
  size_t block_split_threshold_bytes = 256 << 10;
  BlockOptions block;
};

class BaavStore {
 public:
  BaavStore(Cluster* cluster, BaavSchema schema, const Catalog* catalog,
            BaavStoreOptions options = {});

  const BaavSchema& schema() const { return schema_; }
  const BaavStoreOptions& options() const { return options_; }

  /// Maps one relation's data (columns matching the relation schema,
  /// unqualified) onto one KV instance: project on XY, group by X, encode.
  Status BuildInstance(const KvSchema& kv, const Relation& data);

  /// Maps a whole database: builds every KV instance whose relation appears
  /// in `db` (relation name -> data).
  Status BuildAll(const std::map<std::string, Relation>& db);

  /// Fetches the block for `key` (X values, in key_attrs order). Returns the
  /// Y-tuples; empty NotFound if the key is absent. Meters one get per
  /// segment plus the shipped bytes and values.
  Result<std::vector<Tuple>> GetBlock(const KvSchema& kv, const Tuple& key,
                                      QueryMetrics* m) const;

  /// Batched block fetch (§7.2): all first segments in one Cluster::MultiGet
  /// round, overflow segments in a second. Returns one row vector per key,
  /// aligned with `keys` (empty for absent keys). Meters one get per segment
  /// key but only one round trip per touched storage node — the batched hot
  /// path the interleaved extension strategy runs on. `fanout` and
  /// `fanout_stats` pass through to both rounds' Cluster::MultiGet: rows
  /// and every CountersEqual field are identical across fan-out modes, and
  /// under kOverlapped each round's hidden network time is merged into
  /// `fanout_stats` (nullable) for the caller's ChargeFanoutOverlap fold.
  Result<std::vector<std::vector<Tuple>>> MultiGetBlocks(
      const KvSchema& kv, const std::vector<Tuple>& keys, QueryMetrics* m,
      FanoutMode fanout = FanoutMode::kSerial,
      FanoutStats* fanout_stats = nullptr) const;

  /// Header-only fetch: per-Y-column aggregates of the block. Meters one get
  /// per segment but only the header bytes / one value per column.
  Result<BlockStats> GetBlockStats(const KvSchema& kv, const Tuple& key,
                                   QueryMetrics* m) const;

  /// Batched header-only fetch: MultiGetBlocks' counterpart for the stats
  /// pushdown path, with the same fan-out pass-through. One BlockStats per
  /// key, aligned with `keys`.
  Result<std::vector<BlockStats>> MultiGetBlockStats(
      const KvSchema& kv, const std::vector<Tuple>& keys, QueryMetrics* m,
      FanoutMode fanout = FanoutMode::kSerial,
      FanoutStats* fanout_stats = nullptr) const;

  /// Full scan of a KV instance (the non-scan-free path): one next() per
  /// block segment plus the shipped bytes.
  Status ScanInstance(
      const KvSchema& kv, QueryMetrics* m,
      const std::function<void(const Tuple& key,
                               const std::vector<Tuple>& rows)>& fn) const;

  /// Data-parallel instance scan: key enumeration stays sequential (it
  /// fixes the block order), then block decode is chunked across
  /// `workers` on `pool` with per-worker QueryMetrics deltas; `fn` is
  /// invoked on the calling thread in the same block order as the
  /// sequential scan, with identical metering. Null pool or workers <= 1
  /// degrades to the sequential code path.
  Status ScanInstance(
      const KvSchema& kv, QueryMetrics* m, ThreadPool* pool, int workers,
      const std::function<void(const Tuple& key,
                               const std::vector<Tuple>& rows)>& fn) const;

  /// deg(~D) of one instance: max logical block size (tuples). Computed on
  /// first use (a full instance scan) and kept current by incremental
  /// maintenance. A failed scan propagates its error and caches nothing —
  /// it must not poison the degree cache with a partial count (the planner
  /// reads this for §6.1 boundedness; a silently-zero degree would claim
  /// bounded evaluation for an instance nobody measured).
  Result<uint64_t> Degree(const KvSchema& kv) const;
  /// deg over all instances; first scan failure propagates.
  Result<uint64_t> MaxDegree() const;

  /// Incremental maintenance: reflects one inserted/deleted tuple of
  /// `relation` (values in relation-schema column order) in every KV
  /// instance derived from it. O(deg) per instance.
  Status ApplyInsert(const std::string& relation, const Tuple& tuple);
  Status ApplyDelete(const std::string& relation, const Tuple& tuple);

  /// Storage footprint of one instance in bytes (for T2B's budget).
  uint64_t InstanceBytes(const KvSchema& kv) const;

  /// Storage node that owns the (first segment of the) block for `key`;
  /// used by the interleaved parallelizer (§7.2) to route partitions.
  int NodeForBlock(const KvSchema& kv, const Tuple& key) const;

  const Cluster* cluster() const { return cluster_; }

 private:
  std::string InstancePrefix(const KvSchema& kv) const;
  std::string SegmentKey(const KvSchema& kv, const Tuple& key,
                         uint64_t segment) const;
  /// Projects a relation-order tuple onto the given attribute names.
  Result<Tuple> ProjectTuple(const KvSchema& kv, const Tuple& tuple,
                             const std::vector<std::string>& attrs) const;
  /// Reads all segments of a key (unmetered), empty if absent.
  Result<std::vector<Tuple>> ReadBlockRaw(const KvSchema& kv,
                                          const Tuple& key) const;
  /// Rewrites the whole block for a key (re-splitting as needed).
  Status WriteBlock(const KvSchema& kv, const Tuple& key,
                    const std::vector<Tuple>& rows);

  Cluster* cluster_;
  BaavSchema schema_;
  const Catalog* catalog_;
  BaavStoreOptions options_;
  mutable std::map<std::string, uint64_t> degree_;  // instance -> max block
};

}  // namespace zidian

#endif  // ZIDIAN_BAAV_BAAV_STORE_H_
