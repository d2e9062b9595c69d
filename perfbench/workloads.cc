#include "workloads.h"

namespace hattrick {
namespace perfbench {

const std::vector<Workload>& Workloads() {
  // Every workload runs one T- and one A-client, so each reports every
  // end-to-end metric; engine and scale decide which layer dominates.
  // With the applier that is three threads, one fewer than the four
  // CPUs the benchmark is sized for, so a busy host steals less of a
  // client's time.
  static const std::vector<Workload> kWorkloads = {
      {"txn-shared",
       "write path: the T-client on the PostgreSQL-like shared row store "
       "(serializable, all indexes, SF1) spends its time in execute_txn "
       "over hot delta chains; 1 A-client beside it",
       bench::EngineKind::kPostgres, 1.0, PhysicalSchema::kAllIndexes, 1,
       1},
      {"olap-hybrid",
       "scan/join-bound: the A-client on the System-X hybrid (column copy, "
       "semi indexes, eager merge, SF10) spends its time in exec and the "
       "delta merge; 1 T-client beside it",
       bench::EngineKind::kSystemX, 10.0, PhysicalSchema::kSemiIndexes, 1,
       1},
      {"htap-dist",
       "shard + replication layers: 3 hash shards of TiDB hybrids with "
       "async standbys (SF1), 2PC writes beside scatter/gather reads",
       bench::EngineKind::kTidbDist, 1.0, PhysicalSchema::kSemiIndexes, 1,
       1},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

bench::BenchEnv MakeWorkloadEnv(const Workload& w) {
  return bench::MakeEnv(w.kind, w.scale_factor, w.physical, FaultConfig{},
                        MergeMode::kEager, bench::DistModel::kSharded,
                        /*shards=*/3);
}

}  // namespace perfbench
}  // namespace hattrick
