// The `rpc` aggregate a traced PfsSimulator::run attaches to its
// `pfs.run:<job>` span: per-op-kind counts, bytes and latency histograms
// of the client's RPCs and DLM lock waits. They must add up to the run's
// own counters, repeat byte for byte on the same seed, and, on a
// federated cluster, be the cell-order sum of the cells' tallies.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "faults/fault_plan.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "pfs/simulator.hpp"
#include "workloads/workloads.hpp"

namespace stellar {
namespace {

using pfs::RpcTally;

/// Two client nodes' worth of ranks, so IOR reads data another node wrote
/// (read RPCs rather than page-cache hits).
workloads::WorkloadOptions smallOpts() {
  workloads::WorkloadOptions opt;
  opt.ranks = 20;
  opt.scale = 0.02;
  return opt;
}

/// A DLM lock LRU far smaller than MDWorkbench's file set, so re-stats
/// and re-opens miss the lock cache and wait on the MDS.
pfs::PfsConfig smallLockLru() {
  pfs::PfsConfig config;
  config.ldlm_lru_size = 16;
  return config;
}

struct TracedRun {
  pfs::RunResult result;
  util::Json rpc;          ///< the pfs.run span's `rpc` arg (null if absent)
  util::Json dataRpcs;     ///< its `data_rpcs` arg (null if absent)
  util::Json metaRpcs;     ///< its `meta_rpcs` arg (null if absent)
  double lockWaits = 0.0;  ///< pfs.lock.waits from the run's registry flush
};

TracedRun runTraced(const pfs::JobSpec& job, std::uint64_t seed,
                    pfs::ClusterSpec cluster = pfs::defaultCluster(),
                    const faults::FaultPlan* plan = nullptr, std::uint32_t shards = 1,
                    const pfs::PfsConfig& config = {}) {
  obs::Tracer tracer{{.capacity = 1 << 14}};
  obs::CounterRegistry registry;
  const pfs::PfsSimulator sim{{.cluster = std::move(cluster),
                               .tracer = &tracer,
                               .counters = &registry,
                               .faults = plan,
                               .engine = {.shards = shards}}};
  TracedRun out;
  out.result = sim.run(job, config, seed);
  int runSpans = 0;
  tracer.forEach([&](const obs::TraceRecord& record) {
    if (record.name != "pfs.run:" + job.name) {
      return;
    }
    ++runSpans;
    for (const obs::TraceArg& arg : record.args) {
      if (arg.key == "rpc") {
        out.rpc = arg.value;
      } else if (arg.key == "data_rpcs") {
        out.dataRpcs = arg.value;
      } else if (arg.key == "meta_rpcs") {
        out.metaRpcs = arg.value;
      }
    }
  });
  EXPECT_EQ(runSpans, 1);
  EXPECT_EQ(tracer.dropped(), 0u);
  out.lockWaits = registry.counter("pfs.lock.waits").value();
  return out;
}

std::uint64_t count(const util::Json& rpc, const std::string& kind) {
  return rpc.contains(kind) ? static_cast<std::uint64_t>(rpc.at(kind).getNumber("count"))
                            : 0;
}

std::uint64_t bytes(const util::Json& rpc, const std::string& kind) {
  return rpc.contains(kind) ? static_cast<std::uint64_t>(rpc.at(kind).getNumber("bytes"))
                            : 0;
}

/// Every law the aggregate owes the run's own counters.
void expectMatchesCounters(const TracedRun& run) {
  const util::Json& rpc = run.rpc;
  ASSERT_TRUE(rpc.isObject()) << "pfs.run span carries no rpc arg";
  const pfs::RunCounters& c = run.result.counters;
  EXPECT_EQ(count(rpc, "read") + count(rpc, "write"), c.dataRpcs);
  EXPECT_EQ(bytes(rpc, "read"), c.readRpcBytes);
  EXPECT_EQ(bytes(rpc, "write"), c.writeRpcBytes);
  std::uint64_t meta = 0;
  for (std::size_t k = 0; k < RpcTally::kKinds; ++k) {
    const std::string name = RpcTally::kindName(k);
    if (name.rfind("meta:", 0) == 0) {
      meta += count(rpc, name);
    }
    if (!rpc.contains(name)) {
      continue;
    }
    const util::Json::Array& buckets = rpc.at(name).at("buckets").asArray();
    ASSERT_EQ(buckets.size(), RpcTally::kBuckets) << name;
    const double inBuckets = std::accumulate(
        buckets.begin(), buckets.end(), 0.0,
        [](double sum, const util::Json& n) { return sum + n.asNumber(); });
    EXPECT_EQ(inBuckets, rpc.at(name).getNumber("count")) << name;
    EXPECT_GT(rpc.at(name).getNumber("count"), 0.0) << name << ": empty kinds are left out";
  }
  EXPECT_EQ(meta, c.metaRpcs);
  EXPECT_EQ(static_cast<double>(count(rpc, "dlm-wait")), run.lockWaits);
  EXPECT_EQ(rpc.at("bounds_s").asArray().size(), RpcTally::kBuckets - 1);
}

TEST(RpcTally, BucketsFollowTheDefaultHistogramLadder) {
  const std::vector<double> bounds = obs::Histogram::defaultBounds();
  ASSERT_EQ(RpcTally::kBuckets, bounds.size() + 1);
  // Same bucket choice as obs::Histogram::observe: a value lands in the
  // first bucket whose upper bound is >= it; past the last bound is +inf.
  obs::Histogram reference{bounds};
  RpcTally tally;
  const double samples[] = {0.0,  bounds[0],     bounds[0] * 1.5,    bounds[7],
                            0.02, bounds.back(), bounds.back() * 2.0};
  for (const double s : samples) {
    tally.add(RpcTally::kRead, 1, s);
    reference.observe(s);
  }
  const obs::HistogramData expected = reference.data();
  const RpcTally::Cell& cell = tally.cells[RpcTally::kRead];
  EXPECT_TRUE(std::equal(cell.buckets.begin(), cell.buckets.end(),
                         expected.buckets.begin(), expected.buckets.end()));
  EXPECT_EQ(cell.count, std::size(samples));
  EXPECT_EQ(cell.bytes, std::size(samples));
  EXPECT_DOUBLE_EQ(cell.seconds, expected.sum);
}

TEST(RpcTally, KindNamesCoverEveryOp) {
  EXPECT_EQ(RpcTally::kindName(RpcTally::kRead), "read");
  EXPECT_EQ(RpcTally::kindName(RpcTally::kWrite), "write");
  EXPECT_EQ(RpcTally::kindName(RpcTally::meta(pfs::MetaOpKind::Create)), "meta:create");
  EXPECT_EQ(RpcTally::kindName(RpcTally::meta(pfs::MetaOpKind::Close)), "meta:close");
  EXPECT_EQ(RpcTally::kindName(RpcTally::kDlmWait), "dlm-wait");
  EXPECT_EQ(RpcTally::meta(pfs::MetaOpKind::Close) + 1, RpcTally::kDlmWait);
}

TEST(RpcTally, DataWorkloadMatchesRunCounters) {
  const TracedRun run = runTraced(workloads::byName("IOR_64K", smallOpts()), 3);
  ASSERT_TRUE(run.result.ok());
  expectMatchesCounters(run);
  EXPECT_GT(count(run.rpc, "read"), 0u);
  EXPECT_GT(count(run.rpc, "write"), 0u);
}

TEST(RpcTally, MetadataWorkloadMatchesRunCounters) {
  const TracedRun run = runTraced(workloads::byName("MDWorkbench_8K", smallOpts()), 3,
                                  pfs::defaultCluster(), nullptr, 1, smallLockLru());
  ASSERT_TRUE(run.result.ok());
  expectMatchesCounters(run);
  EXPECT_GT(count(run.rpc, "meta:create"), 0u);
  EXPECT_GT(count(run.rpc, "dlm-wait"), 0u);
}

TEST(RpcTally, FaultedRunMatchesRunCounters) {
  // Retried and given-up RPCs still complete once, so they count once.
  const faults::FaultPlan plan = faults::scenarioByName("flaky-network");
  for (const char* name : {"IOR_64K", "MDWorkbench_8K"}) {
    SCOPED_TRACE(name);
    const TracedRun run = runTraced(workloads::byName(name, smallOpts()), 5,
                                    pfs::defaultCluster(), &plan, 1, smallLockLru());
    EXPECT_GT(run.result.counters.rpcRetries, 0u);
    expectMatchesCounters(run);
  }
}

TEST(RpcTally, SameSeedGivesByteIdenticalArgs) {
  const pfs::JobSpec job = workloads::byName("MDWorkbench_8K", smallOpts());
  const std::string a = runTraced(job, 9).rpc.dump();
  const std::string b = runTraced(job, 9).rpc.dump();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, runTraced(job, 10).rpc.dump()) << "latencies should follow the seed";
}

TEST(RpcTally, UntracedRuntimeTalliesNothing) {
  const pfs::ClusterSpec cluster = pfs::defaultCluster();
  const pfs::JobSpec job = workloads::byName("MDWorkbench_8K", smallOpts());
  obs::Tracer disabled{{.enabled = false}};
  for (obs::Tracer* tracer : {static_cast<obs::Tracer*>(nullptr), &disabled}) {
    sim::SimEngine engine{sim::EngineOptions{}};
    pfs::ClientRuntime runtime{engine, cluster, pfs::PfsConfig{}, job, tracer};
    runtime.start();
    (void)engine.run();
    ASSERT_GT(runtime.counters().metaRpcs, 0u);
    for (const RpcTally::Cell& cell : runtime.rpcTally().cells) {
      EXPECT_EQ(cell.count, 0u);
    }
  }
}

// ------------------------------------------------------------- federated

pfs::ClusterSpec federatedCluster(std::uint32_t cells) {
  pfs::ClusterSpec cl;
  cl.name = "rpc-federated";
  cl.clientNodes = cells;  // one client node per cell
  cl.ranksPerNode = 2;
  cl.ossNodes = cells;     // one OSS (one OST) per cell
  cl.cells = cells;
  return cl;
}

/// File-per-process job (files partition cleanly into cells) with data
/// and metadata RPCs and lock waits on re-opens.
pfs::JobSpec fppJob(std::uint32_t ranks) {
  pfs::JobSpec job;
  job.name = "fpp-rpc";
  job.ranks.resize(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    const auto f = job.addFile("/fpp/rank" + std::to_string(r));
    auto& prog = job.ranks[r];
    prog.push_back(pfs::IoOp::create(f));
    for (std::uint64_t i = 0; i < 4; ++i) {
      prog.push_back(pfs::IoOp::write(f, i * util::kMiB, util::kMiB));
    }
    prog.push_back(pfs::IoOp::fsync(f));
    prog.push_back(pfs::IoOp::close(f));
    prog.push_back(pfs::IoOp::barrier());
    prog.push_back(pfs::IoOp::stat(f));
    for (std::uint64_t i = 0; i < 4; ++i) {
      prog.push_back(pfs::IoOp::read(f, i * util::kMiB, util::kMiB));
    }
    prog.push_back(pfs::IoOp::unlink(f));
  }
  return job;
}

TEST(RpcTally, FederatedRunIsTheCellOrderSum) {
  constexpr std::uint32_t kCells = 4;
  constexpr std::uint32_t kRanksPerCell = 2;
  constexpr std::uint64_t kSeed = 13;
  const pfs::JobSpec job = fppJob(kCells * kRanksPerCell);
  const TracedRun federated = runTraced(job, kSeed, federatedCluster(kCells));
  ASSERT_TRUE(federated.result.ok());
  expectMatchesCounters(federated);
  // The federated span carries the run's RPC totals like a one-cell run's:
  // equal to the counters, which expectMatchesCounters ties to the `rpc`
  // sums.
  const pfs::RunCounters& c = federated.result.counters;
  ASSERT_TRUE(federated.dataRpcs.isNumber()) << "pfs.run span carries no data_rpcs arg";
  ASSERT_TRUE(federated.metaRpcs.isNumber()) << "pfs.run span carries no meta_rpcs arg";
  EXPECT_EQ(federated.dataRpcs.asNumber(), static_cast<double>(c.dataRpcs));
  EXPECT_EQ(federated.metaRpcs.asNumber(), static_cast<double>(c.metaRpcs));

  // Each cell replayed alone, exactly as PfsSimulator::run partitions it:
  // its own one-node sub-cluster, its slice of ranks and files, its global
  // node/OST offsets. Cells are shared-nothing, so a cell's tally does not
  // depend on which engine hosts it.
  pfs::ClusterSpec cellCluster = federatedCluster(kCells);
  cellCluster.clientNodes = 1;
  cellCluster.ossNodes = 1;
  cellCluster.cells = 1;
  obs::Tracer tracer{{.capacity = 16}};
  RpcTally expected;
  for (std::uint32_t c = 0; c < kCells; ++c) {
    pfs::JobSpec cellJob;
    cellJob.name = job.name + "@cell" + std::to_string(c);
    cellJob.dirs = job.dirs;
    for (std::uint32_t r = c * kRanksPerCell; r < (c + 1) * kRanksPerCell; ++r) {
      std::vector<pfs::IoOp> program = job.ranks[r];
      const auto local = cellJob.addFile(job.files[program.front().file].name);
      for (pfs::IoOp& op : program) {
        if (op.file != pfs::kInvalidFile) {
          op.file = local;
        }
      }
      cellJob.ranks.push_back(std::move(program));
    }
    sim::SimEngine engine{sim::EngineOptions{}};
    pfs::ClientRuntime runtime{engine, cellCluster, pfs::PfsConfig{}, cellJob, &tracer,
                               nullptr, pfs::RunScope{kSeed, c, c}};
    runtime.start();
    (void)engine.run();
    expected += runtime.rpcTally();
  }
  EXPECT_EQ(federated.rpc.dump(), expected.toJson().dump());

  // The sum is taken in cell order, so the shard count cannot move it.
  for (const std::uint32_t shards : {2u, 4u}) {
    EXPECT_EQ(runTraced(job, kSeed, federatedCluster(kCells), nullptr, shards).rpc.dump(),
              federated.rpc.dump())
        << shards << " shards";
  }
}

}  // namespace
}  // namespace stellar
