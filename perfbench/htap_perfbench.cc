// Wall-clock HATtrick benchmark: one closed-loop workload per run, driven
// by the unmodified ThreadedDriver against an engine built by
// bench::MakeEnv and wrapped in the benchmark's ProbeEngine decorator.
//
//   htap_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out DIR]
//
// Each run first makes one discarded repetition. --trace 0 measures the
// end-to-end metrics with tracing off (the probe only timestamps
// commits): --seconds becomes twice as many 0.5 s repetitions, each on
// a freshly set-up engine; latency percentiles are taken over all their
// samples, and rates are the median of the per-repetition rates.
// --trace 1 runs one repetition untraced and then traced (detailed probe,
// span tracer, per-operator profiles) and reports the per-layer metrics.
// Every run is followed by output checks; a failed check prints
// `"correct": false` and exits 1. The last stdout line is one JSON object
// with every metric computed.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "exec/expression.h"
#include "exec/operator.h"
#include "hattrick/datagen.h"
#include "hattrick/driver.h"
#include "layer_metrics.h"
#include "probe_engine.h"
#include "workloads.h"

namespace hattrick {
namespace perfbench {
namespace {

// Measured per repetition. Short repetitions keep the hot delta chains
// (ROADMAP item 1) short, so that a host that is briefly slower changes
// less of what the next queries and transactions find.
constexpr double kRepetitionSeconds = 0.5;
constexpr double kWarmupSeconds = 0.1;
constexpr size_t kTraceCapacity = 1 << 18;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "htap_perfbench: %s\nusage: htap_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

/// CPUs this process may run on (what `nproc` prints).
int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one.empty() ? "unknown" : one + " " + five + " " + fifteen;
}

/// Bytes the allocator has handed out and not got back (live heap).
double HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

/// Page faults the process has taken so far (minor + major).
long PageFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt + usage.ru_majflt;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// SUM(column) over `table` through an analytical session, in exact
/// fixed-point units.
int64_t SumFixed(const DataSource& source, const std::string& table,
                 size_t column) {
  ScanSpec spec;
  spec.table = table;
  spec.projection = {column};
  OperatorPtr plan = MakeHashAggregate(
      source.Scan(spec), {}, {AggSpec{AggSpec::Kind::kSum, Col(0)}});
  WorkMeter meter;
  ExecContext ctx;
  ctx.meter = &meter;
  const std::vector<Row> rows = Collect(plan.get(), &ctx);
  return rows.size() == 1 ? QuantizeSumValue(rows[0].at(0).AsDouble())
                          : INT64_MIN;
}

/// The consistency oracle: SUM(S_YTD) - SUM(HISTORY.amount). Payment
/// raises both by the same amount in one transaction.
int64_t PaymentBalance(HtapEngine* engine) {
  WorkMeter meter;
  AnalyticsSession session = engine->BeginAnalytics(&meter);
  return SumFixed(*session.source, kSupplier, supp::kYtd) -
         SumFixed(*session.source, kHistory, hist::kAmount);
}

/// FRESHNESS_client's txn_num as the analytical side sees it.
int64_t FreshnessValue(HtapEngine* engine, uint32_t client) {
  WorkMeter meter;
  AnalyticsSession session = engine->BeginAnalytics(&meter);
  ScanSpec spec;
  spec.table = FreshnessTableName(client);
  spec.projection = {fresh::kTxnNum};
  OperatorPtr plan = session.source->Scan(spec);
  ExecContext ctx;
  ctx.meter = &meter;
  const std::vector<Row> rows = Collect(plan.get(), &ctx);
  return rows.size() == 1 ? rows[0].at(0).AsInt() : -1;
}

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    std::printf("# check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ok_ = false;
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

/// Output checks after one run on `engine` (the undecorated engine, so
/// the checks' own sessions are not counted as driver calls).
void CheckRun(const char* label, HtapEngine* engine, const Workload& w,
              const RunMetrics& run, const ProbeData& probe,
              int64_t base_balance, Checks* checks) {
  const std::string tag = std::string("[") + label + "] ";
  const int64_t balance = PaymentBalance(engine);
  checks->Expect(balance == base_balance,
                 tag + "SUM(S_YTD)-SUM(HISTORY.amount) " +
                     std::to_string(balance) + " == post-load " +
                     std::to_string(base_balance));
  const uint64_t engine_commits = run.observed.CountOf(obs::kTxnCommits);
  checks->Expect(run.committed <= engine_commits,
                 tag + "driver committed " + std::to_string(run.committed) +
                     " <= engine txn.commits " +
                     std::to_string(engine_commits));
  checks->Expect(run.committed > 0 && run.queries > 0,
                 tag + "both sides made progress");
  checks->Expect(probe.txn_nums_complete,
                 tag + "probe saw txn_num 1..N of every client");
  checks->Expect(probe.txn_calls >= run.committed + run.failed &&
                     probe.txn_commits >= run.committed,
                 tag + "probe saw " + std::to_string(probe.txn_calls) +
                     " txn calls, " + std::to_string(probe.txn_commits) +
                     " commits; driver measured " +
                     std::to_string(run.committed) + " + " +
                     std::to_string(run.failed) + " failed");
  checks->Expect(probe.begin_calls >= run.queries,
                 tag + "probe saw " + std::to_string(probe.begin_calls) +
                     " BeginAnalytics >= driver queries " +
                     std::to_string(run.queries));
  bool fresh_ok = true;
  for (int c = 1; c <= w.t_clients; ++c) {
    const int64_t seen = FreshnessValue(engine, static_cast<uint32_t>(c));
    if (seen != static_cast<int64_t>(probe.last_committed_txn_num[c])) {
      fresh_ok = false;
    }
  }
  checks->Expect(fresh_ok,
                 tag + "FRESHNESS_j holds client j's last committed txn_num");
}

/// Extra checks of a traced run: the driver's spans match the probe.
void CheckTrace(const std::vector<obs::Span>& spans, const ProbeData& probe,
                uint64_t dropped, Checks* checks) {
  uint64_t txn_spans = 0, query_spans = 0;
  for (const obs::Span& span : spans) {
    if (span.cat == "txn") ++txn_spans;
    if (span.cat == "query") ++query_spans;
  }
  checks->Expect(probe.query_releases == probe.begin_calls,
                 "[traced] every analytics session was released");
  if (dropped > 0) {
    std::printf("# note trace ring dropped %llu spans; span counts unchecked\n",
                static_cast<unsigned long long>(dropped));
    return;
  }
  checks->Expect(txn_spans == probe.txn_commits,
                 "[traced] driver txn spans " + std::to_string(txn_spans) +
                     " == probe commits " + std::to_string(probe.txn_commits));
  checks->Expect(query_spans == probe.begin_calls,
                 "[traced] driver query spans " +
                     std::to_string(query_spans) + " == probe sessions " +
                     std::to_string(probe.begin_calls));
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n# %-46s %14s %-6s %8s\n", title, "metric", "value",
              "unit", "n");
  for (const Metric& m : metrics) {
    std::printf("  %-46s %14.4f %-6s %8zu%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.n, m.note.empty() ? "" : "  ",
                m.note.c_str());
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"n\": %zu}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str(), metrics[i].n);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) Usage("unknown workload " + args.workload);
  const int cpus = AvailableCpus();
  if (ThreadBudget(*w) > cpus) {
    std::fprintf(stderr,
                 "htap_perfbench: %s needs %d threads (T %d + A %d + "
                 "applier) but nproc is %d\n",
                 w->name.c_str(), ThreadBudget(*w), w->t_clients,
                 w->a_clients, cpus);
    return 2;
  }
  std::printf("# workload %s: %s\n# engine %s sf %g T %d A %d dop 1 "
              "closed-loop\n# env nproc %d loadavg %s seed %llu seconds %g "
              "trace %d\n",
              w->name.c_str(), w->why.c_str(),
              bench::EngineKindName(w->kind), w->scale_factor, w->t_clients,
              w->a_clients, cpus, LoadAverage().c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::fflush(stdout);

  // Set-up is datagen + load + FinishLoad (all in MakeEnv) + the first
  // Reset. It is timed before every repetition, so its samples spread
  // over the run.
  Sampler setup_s, make_env_s;
  bench::BenchEnv env;
  int64_t base_balance = 0;
  double loaded_heap_bytes = 0;
  auto set_up = [&] {
    env = bench::BenchEnv{};  // free the previous copy before timing
    WallClock clock;
    env = MakeWorkloadEnv(*w);
    make_env_s.Add(clock.Now());
    const Status reset = env.engine->Reset();
    if (!reset.ok()) {
      std::fprintf(stderr, "reset failed: %s\n", reset.ToString().c_str());
      std::exit(1);
    }
    setup_s.Add(clock.Now());
    base_balance = PaymentBalance(env.engine.get());
    loaded_heap_bytes = HeapInUseBytes();
  };

  // --trace 0 measures --seconds as that many short repetitions; the
  // traced run is one repetition.
  const int repetitions =
      std::max(1, static_cast<int>(std::lround(args.seconds /
                                                kRepetitionSeconds)));
  WorkloadConfig config;
  config.t_clients = w->t_clients;
  config.a_clients = w->a_clients;
  config.warmup_seconds = kWarmupSeconds;
  config.measure_seconds = kRepetitionSeconds;
  config.dop = 1;
  const Window window{kWarmupSeconds, kWarmupSeconds + kRepetitionSeconds};
  Checks checks;
  auto run_untraced = [&](uint64_t seed, ProbeData* data) {
    config.seed = seed;
    HtapEngine* engine = env.engine.get();
    ProbeEngine plain(engine, w->t_clients, /*detailed=*/false);
    ThreadedDriver driver(&plain, env.context.get());
    const RunMetrics run = driver.Run(config);
    *data = plain.Collect();
    CheckRun(("untraced seed " + std::to_string(seed)).c_str(), engine, *w,
             run, *data, base_balance, &checks);
    return run;
  };

  // The process's first repetition runs at about half speed (fresh
  // threads, arenas and code); it is run once and discarded.
  {
    set_up();
    ProbeData discarded;
    run_untraced(args.seed * repetitions, &discarded);
  }

  if (args.trace == 0) {
    std::vector<Repetition> measured;
    Sampler heap_kib_per_txn;
    for (int r = 0; r < repetitions; ++r) {
      set_up();
      ProbeData data;
      const long faults_before = PageFaults();
      const RunMetrics run =
          run_untraced(args.seed * repetitions + r, &data);
      const long faults = PageFaults() - faults_before;
      // The repetition's data is still loaded: what it added to the heap,
      // per transaction committed (warm-up included).
      heap_kib_per_txn.Add((HeapInUseBytes() - loaded_heap_bytes) / 1024.0 /
                           static_cast<double>(std::max<uint64_t>(
                               data.txn_commits, 1)));
      std::printf("# repetition %d: tps %.1f qps %.1f page faults %ld\n",
                  r + 1, run.t_throughput, run.a_throughput, faults);
      measured.push_back({run, std::move(data.commit_times)});
    }
    const std::vector<Metric> metrics = RepeatedEndToEndMetrics(
        measured, window, setup_s.Percentile(0.5),
        heap_kib_per_txn.Percentile(0.5), PeakRssMiB());
    uint64_t attempted = 0, failed = 0;
    for (const Repetition& rep : measured) {
      attempted += rep.run.committed + rep.run.failed + rep.run.queries;
      failed += rep.run.failed;
    }
    PrintTable("end-to-end (tracing off, over all repetitions)", metrics);
    PrintJson(checks.ok(), attempted, failed, metrics);
    return checks.ok() ? 0 : 1;
  }

  // Traced: one untraced and one traced repetition of the same seed,
  // each on a freshly set-up engine like every measured repetition, so
  // that obs.trace_overhead_ratio compares like with like.
  set_up();
  ProbeData plain_data;
  const RunMetrics untraced =
      run_untraced(args.seed * repetitions, &plain_data);
  set_up();
  HtapEngine* engine = env.engine.get();
  obs::Tracer tracer(kTraceCapacity);
  ProbeEngine probe(engine, w->t_clients, /*detailed=*/true);
  ThreadedDriver traced_driver(&probe, env.context.get());
  traced_driver.SetTracer(&tracer);
  WorkloadConfig traced_config = config;
  traced_config.seed = args.seed * repetitions;
  traced_config.profile_queries = true;
  const RunMetrics traced = traced_driver.Run(traced_config);
  const ProbeData data = probe.Collect();
  CheckRun("traced", engine, *w, traced, data, base_balance, &checks);
  const std::vector<obs::Span> spans = tracer.Spans();
  CheckTrace(spans, data, tracer.dropped(), &checks);

  // Datagen alone, with MakeEnv's generator settings; load is the rest
  // of MakeEnv.
  DatagenConfig datagen;
  datagen.scale_factor = w->scale_factor;
  datagen.lineorders_per_sf = bench::kLineordersPerSf;
  datagen.seed = bench::kDatagenSeed;
  datagen.num_freshness_tables = bench::kFreshnessTables;
  WallClock datagen_clock;
  { const Dataset dataset = GenerateDataset(datagen); }
  const double datagen_s = datagen_clock.Now();

  LayerInputs in;
  in.run = &traced;
  in.probe = &data;
  in.window = window;
  in.sharded = w->kind == bench::EngineKind::kTidbDist;
  in.untraced_tps = untraced.t_throughput;
  in.datagen_s = datagen_s;
  in.load_s = make_env_s.Percentile(0.5) - datagen_s;
  in.driver_overhead = DriverOverhead(spans);
  in.dropped_spans = static_cast<double>(tracer.dropped());
  const std::vector<Metric> metrics = LayerMetrics(in);
  PrintTable("per-layer (traced run)", metrics);

  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/" + w->name + "-seed" +
                             std::to_string(args.seed) + ".trace.json";
    std::ofstream(path) << tracer.ToChromeJson();
    std::printf("# trace written to %s\n", path.c_str());
  }
  PrintJson(checks.ok(), traced.committed + traced.failed + traced.queries,
            traced.failed, metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace hattrick

int main(int argc, char** argv) {
  return hattrick::perfbench::Main(argc, argv);
}
