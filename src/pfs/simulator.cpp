#include "pfs/simulator.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "faults/fault_injector.hpp"
#include "sim/sharded_engine.hpp"
#include "util/strings.hpp"

namespace stellar::pfs {

namespace {

/// Seed mix tag for the post-run measurement noise stream. Shared by the
/// single-engine and federated paths so a cells==1 cluster produces the
/// same noise draw either way.
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
    // sanitizer (ISSUE 7).
    if (options_.counters != nullptr) {
      options_.counters->counter("pfs.sim.config_rejected").add();
    }
    throw std::invalid_argument("invalid PFS config: " + util::join(cfgProblems, "; "));
  }
  if (job.rankCount() > cluster().totalRanks()) {
    throw std::invalid_argument("job requests more ranks than the cluster provides");
  }
  if (cluster().cells > 1) {
    return runFederated(job, config, seed, limits);
  }
  return runSingle(job, config, seed, limits);
}

RunResult PfsSimulator::runSingle(const JobSpec& job, const PfsConfig& config,
                                  std::uint64_t seed, const RunLimits& limits) const {
  obs::Tracer::Span runSpan = obs::beginSpan(options_.tracer, "sim", "pfs.run:" + job.name);

  sim::EngineOptions engineOptions = options_.engine;
  engineOptions.seed = seed;
  engineOptions.shards = 1;
  sim::SimEngine engine{engineOptions};
  engine.attachObservability(options_.tracer, options_.counters);

  // The injector is armed before the client schedules its start-of-run
  // events, so window edges hold stable FIFO positions against every
  // client/server event — the determinism contract.
  std::optional<faults::FaultInjector> injector;
  if (options_.faults != nullptr && !options_.faults->empty()) {
    injector.emplace(engine, *options_.faults, cluster().totalOsts(), seed);
    injector->attachObservability(options_.tracer, options_.counters);
    injector->arm();
  }

  ClientRuntime runtime{engine,          cluster(),
                        config,          job,
                        options_.tracer, injector ? &*injector : nullptr,
                        RunScope{seed, 0, 0}};
  runtime.start();
  if (limits.maxSimSeconds > 0.0) {
    (void)engine.runUntil(limits.maxSimSeconds);
  } else {
    (void)engine.run();  // drains trailing background writeout too
  }

  RunResult result;
  if (!runtime.allRanksDone()) {
    if (limits.maxSimSeconds > 0.0) {
      // Watchdog tripped: the measurement is abandoned, not trusted.
      // Retire still-open fault windows so the injector's window ledger
      // (and any window-scoped effect) resets cleanly before the caller's
      // next measurement.
      engine.cancelOpenWindows();
      result.outcome = RunOutcome::TimedOut;
      result.failureReason = "simulated time cap of " +
                             std::to_string(limits.maxSimSeconds) +
                             "s exceeded with ranks still running";
      result.wallSeconds = limits.maxSimSeconds;
      result.rawWallSeconds = limits.maxSimSeconds;
      result.counters = runtime.counters();
      result.counters.events = engine.eventsProcessed();
      result.simEndSeconds = engine.now();
      result.audit = runtime.audit();
      if (options_.counters != nullptr) {
        runtime.flushObservability(*options_.counters);
      }
      if (runSpan.active()) {
        runSpan.arg("rpc", runtime.rpcTally().toJson());
      }
      return result;
    }
    throw std::logic_error("simulation deadlock: event queue drained with ranks blocked (job '" +
                           job.name + "')");
  }
  if (runtime.failed()) {
    result.outcome = RunOutcome::Failed;
    result.failureReason = runtime.failureReason();
  }

  // The measured wall time is when the application exits (the slowest
  // rank finishes); background write-back continuing after exit is not
  // part of the benchmark's wall clock — workloads that need the data on
  // stable storage fsync before their final barrier, which is counted.
  double wall = 0.0;
  for (const RankStats& r : runtime.rankStats()) {
    wall = std::max(wall, r.finishTime);
  }
  result.rawWallSeconds = wall;
  // Run-to-run variance: the paper repeats every case 8x and reports 90%
  // CIs; the multiplicative lognormal reproduces that spread. Noise-spike
  // windows widen sigma by their overlap-weighted excess.
  double sigma = options_.noiseSigma;
  if (injector) {
    sigma *= injector->noiseMultiplierOver(wall);
  }
  util::Rng noiseRng{util::mix64(seed, kNoiseTag)};
  result.wallSeconds = wall * noiseRng.lognormalNoise(sigma);
  result.files = runtime.fileStats();
  result.ranks = runtime.rankStats();
  result.counters = runtime.counters();
  result.barrierTimes = runtime.barrierTimes();
  result.counters.events = engine.eventsProcessed();
  result.simEndSeconds = engine.now();
  result.audit = runtime.audit();

  if (options_.counters != nullptr) {
    runtime.flushObservability(*options_.counters);
  }
  if (runSpan.active()) {
    runSpan.arg("sim_seconds", util::Json(result.wallSeconds));
    runSpan.arg("data_rpcs", util::Json(static_cast<std::int64_t>(result.counters.dataRpcs)));
    runSpan.arg("meta_rpcs", util::Json(static_cast<std::int64_t>(result.counters.metaRpcs)));
    runSpan.arg("events", util::Json(static_cast<std::int64_t>(result.counters.events)));
    runSpan.arg("rpc", runtime.rpcTally().toJson());
  }
  return result;
}

RunResult PfsSimulator::runFederated(const JobSpec& job, const PfsConfig& config,
                                     std::uint64_t seed, const RunLimits& limits) const {
  const ClusterSpec& cl = cluster();
  const std::uint32_t cells = cl.cells;
  if (cl.clientNodes % cells != 0 || cl.ossNodes % cells != 0) {
    throw std::invalid_argument(
        "federated cluster '" + cl.name + "': cells (" + std::to_string(cells) +
        ") must divide clientNodes and ossNodes evenly");
  }
  const std::uint32_t nodesPerCell = cl.nodesPerCell();
  const std::uint32_t ostsPerCell = cl.ostsPerCell();
  const std::uint32_t ranksPerCell = cl.ranksPerCell();

  obs::Tracer::Span runSpan =
      obs::beginSpan(options_.tracer, "sim", "pfs.run:" + job.name);

  // Every cell is an identical shared-nothing copy of this sub-cluster.
  ClusterSpec cellCluster = cl;
  cellCluster.clientNodes = nodesPerCell;
  cellCluster.ossNodes = cl.ossNodes / cells;
  cellCluster.cells = 1;

  // Partition the job by cell. A file touched from two cells would couple
  // them (cross-cell data paths do not exist in the federation model), so
  // that is a malformed job, reported like any other validation failure.
  struct CellJob {
    JobSpec job;
    std::vector<FileId> localToGlobal;
    std::uint32_t rankOffset = 0;
  };
  std::vector<std::optional<CellJob>> cellJobs(cells);
  std::vector<std::int64_t> fileOwner(job.files.size(), -1);
  std::vector<FileId> fileLocal(job.files.size(), kInvalidFile);
  for (std::uint32_t r = 0; r < job.rankCount(); ++r) {
    const std::uint32_t c = (r / cl.ranksPerNode) / nodesPerCell;
    auto& slot = cellJobs[c];
    if (!slot) {
      slot.emplace();
      slot->job.name = job.name + "@cell" + std::to_string(c);
      slot->job.dirs = job.dirs;
      slot->rankOffset = c * ranksPerCell;
    }
    std::vector<IoOp> program = job.ranks[r];
    for (IoOp& op : program) {
      if (op.file == kInvalidFile) {
        continue;
      }
      if (fileOwner[op.file] < 0) {
        fileOwner[op.file] = c;
        fileLocal[op.file] =
            slot->job.addFile(job.files[op.file].name, job.files[op.file].dir);
        slot->localToGlobal.push_back(op.file);
      } else if (fileOwner[op.file] != static_cast<std::int64_t>(c)) {
        throw std::invalid_argument(
            "invalid job '" + job.name + "': file '" + job.files[op.file].name +
            "' is touched from more than one federation cell");
      }
      op.file = fileLocal[op.file];
    }
    slot->job.ranks.push_back(std::move(program));
  }

  sim::EngineOptions engineOptions = options_.engine;
  engineOptions.seed = seed;
  engineOptions.shards = std::clamp<std::uint32_t>(engineOptions.shards, 1, cells);
  sim::ShardedEngine engines{engineOptions};
  engines.attachObservability(options_.tracer, options_.counters);
  const std::size_t shardCount = engines.shardCount();

  // Per-cell fault injectors and runtimes. Cells are assigned to engine
  // shards in contiguous groups; because every stream of randomness is
  // keyed by global ids, the grouping cannot change any cell's results.
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
        engine, cellCluster, config, run.spec->job, options_.tracer,
        run.injector.get(),
        RunScope{seed, c * nodesPerCell, c * ostsPerCell});
    run.runtime->start();
    runs.push_back(std::move(run));
  }

  if (limits.maxSimSeconds > 0.0) {
    (void)engines.runUntil(limits.maxSimSeconds);
  } else {
    (void)engines.run();
  }

  const auto mergeAudit = [&](RunAudit& into) {
    into.osts.assign(cl.totalOsts(), OstAudit{});
    for (const CellRun& run : runs) {
      const RunAudit a = run.runtime->audit();
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
    }
  };

  const auto attachRpcTally = [&] {
    if (!runSpan.active()) {
      return;
    }
    RpcTally total;
    for (const CellRun& run : runs) {
      total += run.runtime->rpcTally();
    }
    runSpan.arg("rpc", total.toJson());
  };

  RunResult result;
  bool allDone = true;
  for (const CellRun& run : runs) {
    allDone = allDone && run.runtime->allRanksDone();
  }
  if (!allDone) {
    if (limits.maxSimSeconds > 0.0) {
      engines.cancelOpenWindows();
      result.outcome = RunOutcome::TimedOut;
      result.failureReason = "simulated time cap of " +
                             std::to_string(limits.maxSimSeconds) +
                             "s exceeded with ranks still running";
      result.wallSeconds = limits.maxSimSeconds;
      result.rawWallSeconds = limits.maxSimSeconds;
      for (const CellRun& run : runs) {
        accumulateCounters(result.counters, run.runtime->counters());
      }
      result.counters.events = engines.eventsProcessed();
      result.simEndSeconds = engines.now();
      mergeAudit(result.audit);
      if (options_.counters != nullptr) {
        for (const CellRun& run : runs) {
          run.runtime->flushObservability(*options_.counters);
        }
      }
      attachRpcTally();
      return result;
    }
    throw std::logic_error(
        "simulation deadlock: event queue drained with ranks blocked (job '" +
        job.name + "')");
  }
  for (const CellRun& run : runs) {
    if (run.runtime->failed()) {
      result.outcome = RunOutcome::Failed;
      result.failureReason = run.runtime->failureReason();
      break;
    }
  }

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
    accumulateCounters(result.counters, run.runtime->counters());
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
  double sigma = options_.noiseSigma;
  if (!runs.empty() && runs.front().injector) {
    // noiseMultiplierOver is a pure function of the (shared) plan, so any
    // cell's injector gives the same answer.
    sigma *= runs.front().injector->noiseMultiplierOver(wall);
  }
  util::Rng noiseRng{util::mix64(seed, kNoiseTag)};
  result.wallSeconds = wall * noiseRng.lognormalNoise(sigma);
  result.counters.events = engines.eventsProcessed();
  result.simEndSeconds = engines.now();
  mergeAudit(result.audit);

  if (options_.counters != nullptr) {
    for (const CellRun& run : runs) {
      run.runtime->flushObservability(*options_.counters);
    }
  }
  if (runSpan.active()) {
    runSpan.arg("sim_seconds", util::Json(result.wallSeconds));
    runSpan.arg("cells", util::Json(static_cast<std::int64_t>(cells)));
    runSpan.arg("shards", util::Json(static_cast<std::int64_t>(shardCount)));
    runSpan.arg("events", util::Json(static_cast<std::int64_t>(result.counters.events)));
  }
  attachRpcTally();
  return result;
}

}  // namespace stellar::pfs
