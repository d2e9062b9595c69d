// Micro-benchmarks of the analytical path (google-benchmark): each SSB
// query executed against the row store and against the column store at
// SF10 — the ablation behind the hybrid designs' analytical advantage —
// plus the HATtrick transactions against the shared engine and the
// morsel-parallel plans at dop 1/2/4 (BM_QueryColumnStoreDop /
// BM_QueryRowStoreDop, on a 10x larger fact table where the scan
// dominates thread startup).
//
// The *Batch variants run the executor at the default vector width;
// BM_QueryColumnStoreUnit runs it one row per batch (batch_rows=1), and
// the *BatchSweep variants sweep the width over 64/256/1024/4096 on the
// scan-dominated Q1.1 where batching matters most. Every width returns
// bit-identical checksums, so the pairs isolate pure interpretation
// overhead.

#include <benchmark/benchmark.h>

#include "engine/engine_factory.h"
#include "hattrick/datagen.h"
#include "hattrick/queries.h"
#include "hattrick/transactions.h"

namespace hattrick {
namespace {

struct Fixture {
  Fixture() {
    DatagenConfig config;
    config.scale_factor = 10.0;
    config.lineorders_per_sf = 2000;
    config.seed = 42;
    config.num_freshness_tables = 4;
    dataset = GenerateDataset(config);
    shared = MakeSharedEngine();
    (void)LoadDataset(dataset, PhysicalSchema::kAllIndexes, shared.get());
    hybrid = MakeHybridEngine(SystemXConfig());
    (void)LoadDataset(dataset, PhysicalSchema::kSemiIndexes, hybrid.get());
    context = std::make_unique<WorkloadContext>(dataset);
    handles = EngineHandles::Resolve(*shared->primary_catalog(), 4);
  }

  Dataset dataset;
  std::unique_ptr<HtapEngine> shared;
  std::unique_ptr<HtapEngine> hybrid;
  std::unique_ptr<WorkloadContext> context;
  EngineHandles handles;
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void RunQuerySerial(benchmark::State& state, HtapEngine* engine,
                    size_t batch_rows) {
  const int qid = static_cast<int>(state.range(0));
  for (auto _ : state) {
    WorkMeter meter;
    AnalyticsSession session = engine->BeginAnalytics(&meter);
    ExecContext ctx{&meter};
    if (batch_rows > 0) ctx.batch_rows = batch_rows;
    const QueryResult result = RunQuery(qid, *session.source, 4, &ctx);
    benchmark::DoNotOptimize(result.checksum);
  }
  state.SetLabel(QueryName(qid));
}

void BM_QueryRowStoreBatch(benchmark::State& state) {
  RunQuerySerial(state, GetFixture().shared.get(), 0);
}
BENCHMARK(BM_QueryRowStoreBatch)->DenseRange(0, kNumQueries - 1);

void BM_QueryColumnStoreBatch(benchmark::State& state) {
  RunQuerySerial(state, GetFixture().hybrid.get(), 0);
}
BENCHMARK(BM_QueryColumnStoreBatch)->DenseRange(0, kNumQueries - 1);

/// The column-store executor at one row per batch: the denominator of
/// the batch/unit gate (scripts/micro_ratio.py).
void BM_QueryColumnStoreUnit(benchmark::State& state) {
  RunQuerySerial(state, GetFixture().hybrid.get(), 1);
}
BENCHMARK(BM_QueryColumnStoreUnit)->DenseRange(0, kNumQueries - 1);

/// Vector-width sweep on Q1.1 (scan + filter + global aggregate): the
/// range argument is the batch size, so one run charts interpretation
/// overhead against batch granularity on both stores.
void RunBatchSweep(benchmark::State& state, HtapEngine* engine) {
  const size_t batch_rows = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    WorkMeter meter;
    AnalyticsSession session = engine->BeginAnalytics(&meter);
    ExecContext ctx{&meter};
    ctx.batch_rows = batch_rows;
    const QueryResult result = RunQuery(0, *session.source, 4, &ctx);
    benchmark::DoNotOptimize(result.checksum);
  }
  state.SetLabel("Q1.1/batch=" + std::to_string(batch_rows));
}

void BM_QueryRowStoreBatchSweep(benchmark::State& state) {
  RunBatchSweep(state, GetFixture().shared.get());
}
BENCHMARK(BM_QueryRowStoreBatchSweep)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_QueryColumnStoreBatchSweep(benchmark::State& state) {
  RunBatchSweep(state, GetFixture().hybrid.get());
}
BENCHMARK(BM_QueryColumnStoreBatchSweep)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

/// Larger fact table (~200k lineorders) for the intra-query parallelism
/// ablation: at the default micro size the whole scan fits in a couple of
/// morsels and thread startup dominates.
struct ParallelFixture {
  ParallelFixture() {
    DatagenConfig config;
    config.scale_factor = 10.0;
    config.lineorders_per_sf = 20000;
    config.seed = 42;
    config.num_freshness_tables = 4;
    dataset = GenerateDataset(config);
    shared = MakeSharedEngine();
    (void)LoadDataset(dataset, PhysicalSchema::kAllIndexes, shared.get());
    hybrid = MakeHybridEngine(SystemXConfig());
    (void)LoadDataset(dataset, PhysicalSchema::kSemiIndexes, hybrid.get());
  }

  Dataset dataset;
  std::unique_ptr<HtapEngine> shared;
  std::unique_ptr<HtapEngine> hybrid;
};

ParallelFixture& GetParallelFixture() {
  static ParallelFixture* fixture = new ParallelFixture();
  return *fixture;
}

void RunQueryAtDop(benchmark::State& state, HtapEngine* engine) {
  const int qid = static_cast<int>(state.range(0));
  const int dop = static_cast<int>(state.range(1));
  for (auto _ : state) {
    WorkMeter meter;
    AnalyticsSession session = engine->BeginAnalytics(&meter);
    ExecContext ctx{&meter};
    ctx.dop = dop;
    ctx.dynamic_morsels = true;
    ctx.session_pin = session.guard;
    const QueryResult result = RunQuery(qid, *session.source, 4, &ctx);
    benchmark::DoNotOptimize(result.checksum);
  }
  state.SetLabel(std::string(QueryName(qid)) + "/dop=" +
                 std::to_string(dop));
}

void BM_QueryColumnStoreDop(benchmark::State& state) {
  RunQueryAtDop(state, GetParallelFixture().hybrid.get());
}
BENCHMARK(BM_QueryColumnStoreDop)
    ->ArgsProduct({benchmark::CreateDenseRange(0, kNumQueries - 1, 1),
                   {1, 2, 4}});

void BM_QueryRowStoreDop(benchmark::State& state) {
  RunQueryAtDop(state, GetParallelFixture().shared.get());
}
BENCHMARK(BM_QueryRowStoreDop)
    ->ArgsProduct({benchmark::CreateDenseRange(0, kNumQueries - 1, 1),
                   {1, 2, 4}});

void BM_Transaction(benchmark::State& state) {
  Fixture& f = GetFixture();
  Rng rng(9);
  uint64_t txn_num = 0;
  for (auto _ : state) {
    const TxnParams params = GenerateTxnParams(f.context.get(), &rng);
    ++txn_num;
    WorkMeter meter;
    const TxnOutcome outcome = f.shared->ExecuteTransaction(
        MakeTxnBody(params, f.handles, 1, txn_num), 1, txn_num, &meter);
    benchmark::DoNotOptimize(outcome.status.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Transaction);

}  // namespace
}  // namespace hattrick

BENCHMARK_MAIN();
