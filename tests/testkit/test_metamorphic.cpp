// Metamorphic laws over the simulator: exact determinism, fault-plan
// attachment neutrality, tracing neutrality, scale monotonicity, and
// concurrency-relaxation monotonicity. All seeds here are fixed — the laws
// must hold on every seed, so any failure is a real defect, not flake.
#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "obs/trace.hpp"
#include "testkit/metamorphic.hpp"
#include "testkit/run.hpp"
#include "workloads/workloads.hpp"

namespace stellar::testkit {
namespace {

TEST(Metamorphic, LawsHoldOnFixedSeeds) {
  for (std::uint64_t i = 0; i < 20; ++i) {
    const std::uint64_t seed = util::mix64(0x5EED, i);
    for (const Violation& v : checkMetamorphic(generateShape(seed))) {
      ADD_FAILURE() << "seed 0x" << std::hex << seed << ": " << v.format();
    }
  }
}

TEST(Metamorphic, SameSeedIsBitIdentical) {
  const GeneratedCase cse = materialize(generateShape(0xD37E));
  const pfs::RunResult a = runCase(cse);
  const pfs::RunResult b = runCase(cse);
  const auto difference = describeDifference(a, b);
  EXPECT_FALSE(difference.has_value()) << *difference;
}

TEST(Metamorphic, CellifiedCaseIsBitIdenticalAcrossBackendsAndShards) {
  // The determinism contract across every engine configuration: scheduler
  // backend and shard count are pure performance choices. Compare full
  // RunAudits via describeDifference, not just wall times.
  const GeneratedCase base = materialize(generateShape(0xCE11));
  const GeneratedCase celled = cellify(base, 4);
  const pfs::RunResult reference =
      runCase(celled, sim::EngineOptions{.scheduler = sim::SchedulerKind::Calendar,
                                         .shards = 1});
  const sim::EngineOptions variants[] = {
      {.scheduler = sim::SchedulerKind::Heap, .shards = 1},
      {.scheduler = sim::SchedulerKind::Calendar, .shards = 2},
      {.scheduler = sim::SchedulerKind::Calendar, .shards = 4},
      {.scheduler = sim::SchedulerKind::Heap, .shards = 4},
  };
  for (const sim::EngineOptions& options : variants) {
    const auto difference = describeDifference(reference, runCase(celled, options));
    EXPECT_FALSE(difference.has_value())
        << sim::schedulerKindName(options.scheduler) << "/" << options.shards
        << " shards: " << *difference;
  }
}

/// Bit-identity over what describeDifference leaves out: per-file stats.
std::optional<std::string> describeFileDifference(const pfs::RunResult& a,
                                                  const pfs::RunResult& b) {
  if (a.files.size() != b.files.size()) return "results differ in file count";
  for (std::size_t i = 0; i < a.files.size(); ++i) {
    const pfs::FileStats& fa = a.files[i];
    const pfs::FileStats& fb = b.files[i];
    if (fa.bytesRead != fb.bytesRead || fa.bytesWritten != fb.bytesWritten ||
        fa.readOps != fb.readOps || fa.writeOps != fb.writeOps || fa.opens != fb.opens ||
        fa.stats != fb.stats || fa.readTime != fb.readTime ||
        fa.writeTime != fb.writeTime || fa.metaTime != fb.metaTime ||
        fa.accessCount != fb.accessCount) {
      return "results differ in file " + std::to_string(i) + " stats";
    }
  }
  return std::nullopt;
}

TEST(Metamorphic, TracingIsObservationOnly) {
  // ML-TRACE: tracing observes a run and never steers it. The same run
  // with no tracer, a disabled tracer and an enabled one is bit-identical,
  // so the traced-only RPC completion wrappers and tallies cannot feed
  // back into event order or timing. Covers a data and a metadata
  // workload, with and without RPC loss, and a federated cluster.
  workloads::WorkloadOptions opts;
  opts.ranks = 20;  // two client nodes: IOR reads cross nodes as RPCs
  opts.scale = 0.02;
  pfs::PfsConfig smallLockLru;  // re-stats/re-opens wait on the DLM
  smallLockLru.ldlm_lru_size = 16;
  struct Case {
    std::string label;
    pfs::ClusterSpec cluster;
    pfs::JobSpec job;
    pfs::PfsConfig config;
    std::uint64_t seed;
  };
  std::vector<Case> cases = {
      {"IOR_64K", pfs::defaultCluster(), workloads::byName("IOR_64K", opts), {}, 7},
      {"MDWorkbench_8K", pfs::defaultCluster(), workloads::byName("MDWorkbench_8K", opts),
       smallLockLru, 7},
  };
  const GeneratedCase celled = cellify(materialize(generateShape(0xCE11)), 4);
  cases.push_back({"cellified x4", celled.cluster, celled.job, celled.shape.config,
                   celled.shape.seed});
  const faults::FaultPlan flaky = faults::scenarioByName("flaky-network");

  for (const Case& c : cases) {
    for (const faults::FaultPlan* plan : {static_cast<const faults::FaultPlan*>(nullptr),
                                          &flaky}) {
      SCOPED_TRACE(c.label + (plan != nullptr ? " + flaky-network" : ""));
      const auto runWith = [&](obs::Tracer* tracer) {
        const pfs::PfsSimulator sim{{.cluster = c.cluster,
                                     .tracer = tracer,
                                     .faults = plan,
                                     .engine = {.shards = 2}}};
        return sim.run(c.job, c.config, c.seed);
      };
      obs::Tracer disabled{{.enabled = false}};
      obs::Tracer enabled{{.capacity = 1 << 12}};
      const pfs::RunResult reference = runWith(nullptr);
      for (obs::Tracer* tracer : {&disabled, &enabled}) {
        const char* arm = tracer->enabled() ? "enabled" : "disabled";
        const pfs::RunResult traced = runWith(tracer);
        const auto difference = describeDifference(reference, traced);
        EXPECT_FALSE(difference.has_value()) << arm << " tracer: " << *difference;
        const auto fileDifference = describeFileDifference(reference, traced);
        EXPECT_FALSE(fileDifference.has_value()) << arm << " tracer: " << *fileDifference;
      }
      EXPECT_EQ(disabled.recorded(), 0u);
      // The enabled arm really traced: its run span carries the tally.
      bool tallied = false;
      enabled.forEach([&](const obs::TraceRecord& record) {
        if (record.name.rfind("pfs.run:", 0) != 0) {
          return;
        }
        for (const obs::TraceArg& arg : record.args) {
          tallied = tallied || arg.key == "rpc";
        }
      });
      EXPECT_TRUE(tallied);
    }
  }
}

TEST(Metamorphic, CellifyPadsRanksToFullCells) {
  const GeneratedCase base = materialize(generateShape(0xCE11));
  const GeneratedCase celled = cellify(base, 3);
  EXPECT_EQ(celled.cluster.cells, 3u);
  EXPECT_EQ(celled.cluster.clientNodes % 3, 0u);
  EXPECT_EQ(celled.cluster.ossNodes, base.cluster.ossNodes * 3);
  EXPECT_EQ(celled.job.rankCount() % 3, 0u);
  EXPECT_EQ(celled.job.rankCount(), celled.cluster.totalRanks());
  EXPECT_EQ(celled.job.files.size(), base.job.files.size() * 3);
}

TEST(Metamorphic, DifferentSeedsDiffer) {
  // Sanity check on describeDifference itself: it must be able to see a
  // difference, or the determinism law above is vacuous.
  CaseShape shape = generateShape(0xD37E);
  const pfs::RunResult a = runCase(materialize(shape));
  shape.seed ^= 1;
  const pfs::RunResult b = runCase(materialize(shape));
  EXPECT_TRUE(describeDifference(a, b).has_value());
}

}  // namespace
}  // namespace stellar::testkit
