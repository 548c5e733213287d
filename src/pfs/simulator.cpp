#include "pfs/simulator.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "faults/fault_injector.hpp"
#include "sim/sharded_engine.hpp"
#include "util/strings.hpp"

namespace stellar::pfs {

namespace {

/// Seed mix tag for the post-run measurement noise stream.
constexpr std::uint64_t kNoiseTag = 0x9F0A5EEDULL;

void accumulateCounters(RunCounters& into, const RunCounters& from) {
  into.dataRpcs += from.dataRpcs;
  into.metaRpcs += from.metaRpcs;
  into.lockHits += from.lockHits;
  into.lockMisses += from.lockMisses;
  into.readaheadHitBytes += from.readaheadHitBytes;
  into.readaheadMissBytes += from.readaheadMissBytes;
  into.pageCacheHitBytes += from.pageCacheHitBytes;
  into.stataheadServed += from.stataheadServed;
  into.extentConflicts += from.extentConflicts;
  into.rpcTimeouts += from.rpcTimeouts;
  into.rpcRetries += from.rpcRetries;
  into.rpcGaveUp += from.rpcGaveUp;
  into.writeRpcBytes += from.writeRpcBytes;
  into.readRpcBytes += from.readRpcBytes;
  into.dirtyDiscardedBytes += from.dirtyDiscardedBytes;
}

/// One federation cell's slice of a job. A one-cell run hosts the caller's
/// job itself: no program is copied and file and rank ids keep their
/// values (renumbering files would shift their striping).
struct CellJob {
  const JobSpec* whole = nullptr;  ///< the caller's job (one-cell runs)
  JobSpec part;                    ///< this cell's ranks and files otherwise
  std::vector<FileId> localToGlobal;  ///< cell-local file id -> job file id
  std::uint32_t rankOffset = 0;       ///< job rank id of the cell's rank 0

  [[nodiscard]] const JobSpec& job() const noexcept {
    return whole != nullptr ? *whole : part;
  }
};

/// Splits `job` into `cells` shared-nothing slices by rank placement; a
/// cell no rank lands in stays empty. A file touched from two cells would
/// couple them (cross-cell data paths do not exist in the federation
/// model), so that is a malformed job, reported like any other validation
/// failure.
std::vector<std::optional<CellJob>> partitionJob(const JobSpec& job,
                                                 const ClusterSpec& cl,
                                                 std::uint32_t cells) {
  std::vector<std::optional<CellJob>> cellJobs(cells);
  if (cells == 1) {
    CellJob& only = cellJobs.front().emplace();
    only.whole = &job;
    only.localToGlobal.resize(job.files.size());
    std::iota(only.localToGlobal.begin(), only.localToGlobal.end(), FileId{0});
    return cellJobs;
  }
  const std::uint32_t nodesPerCell = cl.nodesPerCell();
  std::vector<std::int64_t> fileOwner(job.files.size(), -1);
  std::vector<FileId> fileLocal(job.files.size(), kInvalidFile);
  for (std::uint32_t r = 0; r < job.rankCount(); ++r) {
    const std::uint32_t c = (r / cl.ranksPerNode) / nodesPerCell;
    auto& slot = cellJobs[c];
    if (!slot) {
      slot.emplace();
      slot->part.name = job.name + "@cell" + std::to_string(c);
      slot->part.dirs = job.dirs;
      slot->rankOffset = c * cl.ranksPerCell();
    }
    std::vector<IoOp> program = job.ranks[r];
    for (IoOp& op : program) {
      if (op.file == kInvalidFile) {
        continue;
      }
      if (fileOwner[op.file] < 0) {
        fileOwner[op.file] = c;
        fileLocal[op.file] =
            slot->part.addFile(job.files[op.file].name, job.files[op.file].dir);
        slot->localToGlobal.push_back(op.file);
      } else if (fileOwner[op.file] != static_cast<std::int64_t>(c)) {
        throw std::invalid_argument(
            "invalid job '" + job.name + "': file '" + job.files[op.file].name +
            "' is touched from more than one federation cell");
      }
      op.file = fileLocal[op.file];
    }
    slot->part.ranks.push_back(std::move(program));
  }
  return cellJobs;
}

}  // namespace

const char* runOutcomeName(RunOutcome outcome) noexcept {
  switch (outcome) {
    case RunOutcome::Ok: return "ok";
    case RunOutcome::Failed: return "failed";
    case RunOutcome::TimedOut: return "timed-out";
  }
  return "?";
}

double RunResult::totalBytesRead() const noexcept {
  double total = 0.0;
  for (const RankStats& r : ranks) {
    total += static_cast<double>(r.bytesRead);
  }
  return total;
}

double RunResult::totalBytesWritten() const noexcept {
  double total = 0.0;
  for (const RankStats& r : ranks) {
    total += static_cast<double>(r.bytesWritten);
  }
  return total;
}

double RunResult::aggregateBandwidth() const noexcept {
  if (wallSeconds <= 0.0) {
    return 0.0;
  }
  return (totalBytesRead() + totalBytesWritten()) / wallSeconds;
}

BoundsContext PfsSimulator::boundsContext() const noexcept {
  BoundsContext ctx;
  ctx.clientRamMb = cluster().clientRamMb();
  ctx.ostCount = cluster().totalOsts();
  return ctx;
}

RunResult PfsSimulator::run(const JobSpec& job, const PfsConfig& config,
                            std::uint64_t seed, const RunLimits& limits) const {
  const auto jobProblems = job.validate();
  if (!jobProblems.empty()) {
    throw std::invalid_argument("invalid job '" + job.name +
                                "': " + util::join(jobProblems, "; "));
  }
  const auto cfgProblems = validateConfig(config, boundsContext());
  if (!cfgProblems.empty()) {
    // Last line of defense for out-of-range knobs: every rejection is
    // counted so the chaos bench can prove none slipped past the agent-side
    // sanitizer.
    if (options_.counters != nullptr) {
      options_.counters->counter("pfs.sim.config_rejected").add();
    }
    throw std::invalid_argument("invalid PFS config: " + util::join(cfgProblems, "; "));
  }
  const ClusterSpec& cl = cluster();
  if (job.rankCount() > cl.totalRanks()) {
    throw std::invalid_argument("job requests more ranks than the cluster provides");
  }
  const std::uint32_t cells = std::max<std::uint32_t>(cl.cells, 1);
  if (cl.clientNodes % cells != 0 || cl.ossNodes % cells != 0) {
    throw std::invalid_argument(
        "federated cluster '" + cl.name + "': cells (" + std::to_string(cells) +
        ") must divide clientNodes and ossNodes evenly");
  }
  const std::uint32_t nodesPerCell = cl.nodesPerCell();
  const std::uint32_t ostsPerCell = cl.ostsPerCell();

  obs::Tracer::Span runSpan =
      obs::beginSpan(options_.tracer, "sim", "pfs.run:" + job.name);

  // Every cell is an identical shared-nothing copy of this sub-cluster; a
  // one-cell run simulates the whole cluster.
  ClusterSpec cellCluster = cl;
  cellCluster.clientNodes = nodesPerCell;
  cellCluster.ossNodes = cl.ossNodes / cells;
  cellCluster.cells = 1;
  const std::vector<std::optional<CellJob>> cellJobs = partitionJob(job, cl, cells);

  sim::EngineOptions engineOptions = options_.engine;
  engineOptions.shards = std::clamp<std::uint32_t>(engineOptions.shards, 1, cells);
  sim::ShardedEngine engines{engineOptions};
  engines.attachObservability(options_.tracer, options_.counters);
  const std::size_t shardCount = engines.shardCount();

  // Per-cell fault injectors and runtimes. Cells are assigned to engine
  // shards in contiguous groups; because every stream of randomness is
  // keyed by global ids, the grouping cannot change any cell's results.
  // Each injector is armed before its runtime schedules its start-of-run
  // events, so window edges hold stable FIFO positions against every
  // client/server event — the determinism contract.
  struct CellRun {
    std::uint32_t cell = 0;
    const CellJob* spec = nullptr;
    std::unique_ptr<faults::FaultInjector> injector;
    std::unique_ptr<ClientRuntime> runtime;
  };
  const bool haveFaults = options_.faults != nullptr && !options_.faults->empty();
  std::vector<CellRun> runs;
  runs.reserve(cells);
  for (std::uint32_t c = 0; c < cells; ++c) {
    if (!cellJobs[c]) {
      continue;  // no ranks landed in this cell
    }
    const std::size_t g = static_cast<std::size_t>(c) * shardCount / cells;
    sim::SimEngine& engine = engines.shard(g);
    CellRun run;
    run.cell = c;
    run.spec = &*cellJobs[c];
    if (haveFaults) {
      run.injector = std::make_unique<faults::FaultInjector>(
          engine, *options_.faults, cl.totalOsts(), seed);
      run.injector->attachObservability(options_.tracer, options_.counters);
      run.injector->arm();
    }
    run.runtime = std::make_unique<ClientRuntime>(
        engine, cellCluster, config, run.spec->job(), options_.tracer,
        run.injector.get(),
        RunScope{seed, c * nodesPerCell, c * ostsPerCell});
    run.runtime->start();
    runs.push_back(std::move(run));
  }

  const bool capped = limits.maxSimSeconds > 0.0;
  if (capped) {
    (void)engines.runUntil(limits.maxSimSeconds);
  } else {
    (void)engines.run();  // drains trailing background writeout too
  }

  const bool allDone = std::all_of(runs.begin(), runs.end(), [](const CellRun& run) {
    return run.runtime->allRanksDone();
  });
  if (!allDone && !capped) {
    throw std::logic_error(
        "simulation deadlock: event queue drained with ranks blocked (job '" +
        job.name + "')");
  }

  RunResult result;
  if (!allDone) {
    // Watchdog tripped: the measurement is abandoned, not trusted. Retire
    // still-open fault windows so the injectors' window ledgers (and any
    // window-scoped effect) reset cleanly before the caller's next
    // measurement.
    engines.cancelOpenWindows();
    result.outcome = RunOutcome::TimedOut;
    result.failureReason = "simulated time cap of " +
                           std::to_string(limits.maxSimSeconds) +
                           "s exceeded with ranks still running";
    result.wallSeconds = limits.maxSimSeconds;
    result.rawWallSeconds = limits.maxSimSeconds;
  } else {
    for (const CellRun& run : runs) {
      if (run.runtime->failed()) {
        result.outcome = RunOutcome::Failed;
        result.failureReason = run.runtime->failureReason();
        break;
      }
    }
    // The measured wall time is when the application exits (the slowest
    // rank finishes); background write-back continuing after exit is not
    // part of the benchmark's wall clock — workloads that need the data on
    // stable storage fsync before their final barrier, which is counted.
    double wall = 0.0;
    result.files.resize(job.files.size());
    result.ranks.resize(job.rankCount());
    for (const CellRun& run : runs) {
      const std::vector<RankStats>& rs = run.runtime->rankStats();
      for (std::size_t i = 0; i < rs.size(); ++i) {
        result.ranks[run.spec->rankOffset + i] = rs[i];
        wall = std::max(wall, rs[i].finishTime);
      }
      const std::vector<FileStats>& fsv = run.runtime->fileStats();
      for (std::size_t i = 0; i < fsv.size(); ++i) {
        result.files[run.spec->localToGlobal[i]] = fsv[i];
      }
      // Barriers are cell-scoped; the k-th "global" barrier is effectively
      // released when the last cell releases its k-th barrier.
      const std::vector<double>& bt = run.runtime->barrierTimes();
      if (bt.size() > result.barrierTimes.size()) {
        result.barrierTimes.resize(bt.size(), 0.0);
      }
      for (std::size_t i = 0; i < bt.size(); ++i) {
        result.barrierTimes[i] = std::max(result.barrierTimes[i], bt[i]);
      }
    }
    result.rawWallSeconds = wall;
    // Run-to-run variance: the paper repeats every case 8x and reports 90%
    // CIs; the multiplicative lognormal reproduces that spread. Noise-spike
    // windows widen sigma by their overlap-weighted excess;
    // noiseMultiplierOver is a pure function of the (shared) plan, so any
    // cell's injector gives the same answer.
    double sigma = options_.noiseSigma;
    if (!runs.empty() && runs.front().injector) {
      sigma *= runs.front().injector->noiseMultiplierOver(wall);
    }
    util::Rng noiseRng{util::mix64(seed, kNoiseTag)};
    result.wallSeconds = wall * noiseRng.lognormalNoise(sigma);
  }

  result.audit.osts.assign(cl.totalOsts(), OstAudit{});
  for (const CellRun& run : runs) {
    accumulateCounters(result.counters, run.runtime->counters());
    const RunAudit a = run.runtime->audit();
    RunAudit& into = result.audit;
    for (std::size_t i = 0; i < a.osts.size(); ++i) {
      into.osts[static_cast<std::size_t>(run.cell) * ostsPerCell + i] = a.osts[i];
    }
    into.peakDirtyBytes = std::max(into.peakDirtyBytes, a.peakDirtyBytes);
    into.maxDirtyReservationBytes =
        std::max(into.maxDirtyReservationBytes, a.maxDirtyReservationBytes);
    into.dirtyBudgetBytes = a.dirtyBudgetBytes;
    into.lockInserts += a.lockInserts;
    into.lockEvictions += a.lockEvictions;
    into.lockResident += a.lockResident;
    into.readaWindowsOpened += a.readaWindowsOpened;
    into.readaWindowsGrown += a.readaWindowsGrown;
    into.readaWindowsReset += a.readaWindowsReset;
    into.readaPrefetchedBytes += a.readaPrefetchedBytes;
    into.readaConsumedBytes += a.readaConsumedBytes;
    into.readaDiscardedBytes += a.readaDiscardedBytes;
    into.readaResidentBytes += a.readaResidentBytes;
    into.mdsOps += a.mdsOps;
    into.mdsBusySeconds += a.mdsBusySeconds;
    if (options_.counters != nullptr) {
      run.runtime->flushObservability(*options_.counters);
    }
  }
  result.counters.events = engines.eventsProcessed();
  result.simEndSeconds = engines.now();

  if (runSpan.active()) {
    // Cells add in cell order, so the shard count cannot move the sum.
    RpcTally rpc;
    for (const CellRun& run : runs) {
      rpc += run.runtime->rpcTally();
    }
    const auto integer = [](auto n) { return util::Json(static_cast<std::int64_t>(n)); };
    runSpan.arg("sim_seconds", util::Json(result.wallSeconds));
    runSpan.arg("data_rpcs", integer(result.counters.dataRpcs));
    runSpan.arg("meta_rpcs", integer(result.counters.metaRpcs));
    runSpan.arg("events", integer(result.counters.events));
    runSpan.arg("cells", integer(cells));
    runSpan.arg("shards", integer(shardCount));
    runSpan.arg("rpc", rpc.toJson());
  }
  return result;
}

}  // namespace stellar::pfs
