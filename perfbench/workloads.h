#ifndef HATTRICK_PERFBENCH_WORKLOADS_H_
#define HATTRICK_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench/support.h"

namespace hattrick {
namespace perfbench {

/// One named benchmark workload: an engine deployment plus a closed-loop
/// client mix (each client issues its next request only after the
/// previous one returned; the paper's 48/48/4 transaction mix and random
/// permutations of the 13 SSB queries, dop 1).
struct Workload {
  std::string name;
  std::string why;
  bench::EngineKind kind;
  double scale_factor;
  PhysicalSchema physical;
  int t_clients;
  int a_clients;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<Workload>& Workloads();

/// Workload by name; nullptr when unknown.
const Workload* FindWorkload(const std::string& name);

/// Threads one run needs: T-clients + A-clients + the driver's applier.
inline int ThreadBudget(const Workload& w) {
  return w.t_clients + w.a_clients + 1;
}

/// Builds and loads the workload's engine through bench::MakeEnv (eager
/// merge, real 3-shard deployment for the distributed system; no faults).
bench::BenchEnv MakeWorkloadEnv(const Workload& w);

}  // namespace perfbench
}  // namespace hattrick

#endif  // HATTRICK_PERFBENCH_WORKLOADS_H_
