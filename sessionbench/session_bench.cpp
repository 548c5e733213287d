// session_bench — measures STELLAR tuning sessions through the entry points
// users call, and splits their host time over the layers below.
//
//   session_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --out <dir>
//
// Workloads (see BENCHMARK.json for why each exists):
//   tune-data    IOR_64K + IOR_16M at scale 0.1, one session at a time
//   tune-meta    MDWorkbench_2K + MDWorkbench_8K at scale 0.1, same loop
//   tune-traced  IOR_64K + MDWorkbench_8K at 0.1 with an enabled tracer
//   fleet        TuningService waves at scale 0.05 over six workloads
//
// A tune-* session is what `stellar_cli tune` does: build a simulator and
// engine, StellarEngine::tune, then the 4-repeat core::measureConfig
// validation (and, when traced, obs::writeChromeTrace). A fleet repeat is
// what a `stellard` operator drives: a TuningService over an empty on-disk
// store, then per wave submit / drainAll / commit.
//
// --trace 0 runs sessions while they fit in --seconds (at least one per
// kind and job input, or every fleet schedule plus one repeat) and prints
// one JSON line per setup sample, session and fleet repeat. --trace 1 is
// the layer pass: one session per kind (or one fleet), then each layer's
// public function called again by this file around the same inputs, with a
// span (name, start, end, parent, session) per call plus the exact work
// counts. The program is never instrumented: spans live only in this file,
// and the tracer handed to the program is enabled only in tune-traced.
//
// run.py turns these lines into the metrics; this file only measures.
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "agents/analysis_agent.hpp"
#include "core/engine.hpp"
#include "core/harness.hpp"
#include "core/offline_extractor.hpp"
#include "core/session_journal.hpp"
#include "darshan/recorder.hpp"
#include "dataframe/from_darshan.hpp"
#include "exp/experience_store.hpp"
#include "faults/fault_plan.hpp"
#include "llm/model_profile.hpp"
#include "obs/counters.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "service/fleet_store.hpp"
#include "service/service.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace stellar;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// stellar_cli's defaults: `tune` runs at --seed 42 with the default agent
// model, and validates the winner over 4 repeats seeded from seed ^ 0xBE57.
constexpr std::uint64_t kEngineSeed = 42;
constexpr std::size_t kValidateRepeats = 4;
constexpr std::uint32_t kRanks = 50;
// Set-up is sub-second, so each run repeats it and run.py reports the median.
constexpr std::size_t kSetupSamples = 41;
constexpr double kWarmupSeconds = 2.0;
// The end-to-end fleet cycles over this many schedules (one fresh fleet
// each); quality comes from the first cycle, and every later fleet must
// reproduce its schedule's first one exactly. Latency moves with the
// schedule's mix, so more schedules per run steady it across seeds.
constexpr std::size_t kFleetPlans = 8;
// The layer pass compares at least this many fresh fleets' store files.
constexpr std::size_t kDriftRepeats = 6;
constexpr std::size_t kFleetWaves = 5;
constexpr double kFleetScale = 0.05;

const Clock::time_point kEpoch = Clock::now();

double nowSeconds() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

std::uint64_t monotonicNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void emit(const util::Json& line) {
  std::printf("%s\n", line.dump().c_str());
}

util::Json num(double v) { return util::Json(v); }
util::Json count(std::uint64_t v) { return util::Json(static_cast<std::int64_t>(v)); }

/// This process's resident high-water mark (VmHWM), in MiB. A forked child
/// starts its own mark, so read in runIsolated it is one session's peak.
double peakRssMb() {
  const std::string status = util::readFile("/proc/self/status");
  const std::size_t at = status.find("VmHWM:");
  return at == std::string::npos ? 0.0 : std::atof(status.c_str() + at + 6) / 1024.0;
}

std::uint64_t treeBytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      total += entry.file_size();
    }
  }
  return total;
}

// ---------------------------------------------------------------- spans ----

/// Bench-side span log: one span per call this file makes into a layer.
class SpanLog {
 public:
  int open(std::string name, const std::string& session, int parent) {
    spans_.push_back({std::move(name), session, parent, nowSeconds(), 0.0});
    return static_cast<int>(spans_.size() - 1);
  }
  void record(std::string name, const std::string& session, int parent, double start,
              double end) {
    spans_.push_back({std::move(name), session, parent, start, end});
  }
  double close(int id) {
    spans_[id].end = nowSeconds();
    return spans_[id].end - spans_[id].start;
  }
  template <typename F>
  auto timed(std::string name, const std::string& session, int parent, F&& f) {
    const int id = open(std::move(name), session, parent);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      close(id);
    } else {
      auto out = f();
      close(id);
      return out;
    }
  }
  void emitAll() const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      util::Json line = util::Json::makeObject();
      line.set("type", "span");
      line.set("id", count(i));
      line.set("parent", util::Json(static_cast<std::int64_t>(s.parent)));
      line.set("name", s.name);
      line.set("session", s.session);
      line.set("start", num(s.start));
      line.set("end", num(s.end));
      emit(line);
    }
  }

 private:
  struct Span {
    std::string name;
    std::string session;
    int parent;
    double start;
    double end;
  };
  std::vector<Span> spans_;
};

/// Exact work counts of one session, summed over the simulator runs the
/// layer pass replays (the default run and every measured attempt).
struct WorkCounts {
  std::uint64_t events = 0;
  std::uint64_t dataRpcs = 0;
  std::uint64_t metaRpcs = 0;
  std::uint64_t lockMisses = 0;
  std::uint64_t lockWaits = 0;
  std::uint64_t readaPrefetched = 0;
  std::uint64_t readaConsumed = 0;
  std::uint64_t pageHitBytes = 0;
  std::uint64_t replayMismatches = 0;

  void add(const pfs::RunResult& run) {
    events += run.counters.events;
    dataRpcs += run.counters.dataRpcs;
    metaRpcs += run.counters.metaRpcs;
    lockMisses += run.counters.lockMisses;
    lockWaits += run.counters.extentConflicts;
    readaPrefetched += run.audit.readaPrefetchedBytes;
    readaConsumed += run.audit.readaConsumedBytes;
    pageHitBytes += run.counters.pageCacheHitBytes;
  }
  [[nodiscard]] util::Json toJson() const {
    util::Json j = util::Json::makeObject();
    j.set("events", count(events));
    j.set("data_rpcs", count(dataRpcs));
    j.set("meta_rpcs", count(metaRpcs));
    j.set("lock_misses", count(lockMisses));
    j.set("lock_waits", count(lockWaits));
    j.set("reada_prefetched_bytes", count(readaPrefetched));
    j.set("reada_consumed_bytes", count(readaConsumed));
    j.set("page_hit_bytes", count(pageHitBytes));
    j.set("replay_mismatches", count(replayMismatches));
    return j;
  }
};

/// Quality and LLM figures read from a session's result document.
util::Json sessionFacts(const util::Json& doc) {
  const double best = doc.getNumber("best_seconds");
  const util::Json::Array& attempts = doc.at("attempts").asArray();
  // TuningRunResult::iterationsToWithin(0.05) over the serialized attempts.
  std::size_t iters = attempts.size() + 1;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    if (attempts[i].getBool("valid") &&
        attempts[i].getNumber("seconds") <= best * 1.05) {
      iters = i + 1;
      break;
    }
  }
  const util::Json& usage = doc.at("llm_usage");
  util::Json j = util::Json::makeObject();
  j.set("kind", doc.getString("workload"));
  j.set("speedup", num(doc.getNumber("best_speedup")));
  j.set("iters", count(iters));
  j.set("llm_calls", num(usage.getNumber("calls")));
  j.set("llm_tokens_in", num(usage.getNumber("input_tokens")));
  j.set("llm_cached_tokens", num(usage.getNumber("cached_tokens")));
  j.set("llm_wasted_calls", num(usage.getNumber("wasted_calls")));
  j.set("llm_retries", num(doc.at("resilience").getNumber("llm_wasted_attempts")));
  std::size_t queries = 0;
  for (const util::Json& event : doc.at("transcript").asArray()) {
    if (event.getString("actor") == "analysis-agent" &&
        event.getString("title") == "executed query") {
      ++queries;
    }
  }
  j.set("dfquery_queries", count(queries));
  return j;
}

/// Runs `body` in a forked child and waits for it. Each session (or fleet)
/// then starts from the same process image, as a `stellar_cli tune` or
/// `stellard` process would, so one session's heap history cannot shift the
/// next one's memory or time. The caller must be single-threaded.
template <typename F>
void runIsolated(F&& body) {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    int code = 0;
    try {
      body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "session_bench: %s\n", e.what());
      code = 1;
    }
    std::fflush(stdout);
    std::_Exit(code);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("session process failed");
  }
}

/// Takes set-up samples between a run's sessions rather than in one burst,
/// as many as keep pace with the share of --seconds that `elapsed` stands
/// for: the host's speed drifts over tens of milliseconds, and samples
/// taken in one burst would each land in the same state. `sample` performs
/// one set-up and returns its seconds; `taken` counts the run's samples.
template <typename F>
void takeSetups(std::size_t& taken, double elapsed, double seconds, F&& sample) {
  const double share = std::min(1.0, elapsed / seconds);
  for (; static_cast<double>(taken) < share * kSetupSamples; ++taken) {
    util::Json line = util::Json::makeObject();
    line.set("type", "setup");
    line.set("seconds", num(sample()));
    emit(line);
  }
}

// ------------------------------------------------------------ workloads ----

struct TuneWorkload {
  const char* name;
  std::vector<std::string> kinds;
  double scale;
  bool traced;
  /// Job inputs per run, each generated from its own seed derived from the
  /// bench seed. IOR_64K's random (-z) order moves a session's peak memory
  /// between two modes about 6 MiB apart, so tune-data covers many orders in
  /// every run; the metadata kinds' sessions are too long for more than one.
  std::size_t variants;
};

const std::vector<TuneWorkload>& tuneWorkloads() {
  static const std::vector<TuneWorkload> all{
      {"tune-data", {"IOR_64K", "IOR_16M"}, 0.1, false, 16},
      {"tune-meta", {"MDWorkbench_2K", "MDWorkbench_8K"}, 0.1, false, 1},
      {"tune-traced", {"IOR_64K", "MDWorkbench_8K"}, 0.1, true, 1},
  };
  return all;
}

/// The workload generator's options for job input `variant` of a run. The
/// bench seed feeds the generator; the engine runs at the CLI's default
/// seed, as `stellar_cli tune` does.
workloads::WorkloadOptions jobOptions(const TuneWorkload& w, std::uint64_t seed,
                                      std::size_t variant = 0) {
  return {.ranks = kRanks, .scale = w.scale, .seed = util::mix64(seed, 0x10AD + variant)};
}

core::StellarOptions engineOptions() {
  core::StellarOptions opts;
  opts.seed = kEngineSeed;
  opts.agent.seed = kEngineSeed;
  return opts;
}

/// One `stellar_cli tune` session on an already generated job.
struct TuneSession {
  double seconds = 0.0;
  double tuneSeconds = 0.0;
  double validateSeconds = 0.0;
  double exportSeconds = 0.0;
  core::TuningRunResult run;
  core::RepeatedMeasure validated;
  std::string doc;
  std::uint64_t traceRecords = 0;
  std::uint64_t traceDropped = 0;
  std::uint64_t traceBytes = 0;
  double extractMisses = 0.0;
};

/// With `spans`, the session's phases are also logged under `parent`.
TuneSession runTuneSession(const pfs::JobSpec& job, bool traced,
                           const std::string& tracePath, SpanLog* spans = nullptr,
                           const std::string& session = {}, int parent = -1) {
  TuneSession s;
  const double t0 = nowSeconds();
  obs::CounterRegistry registry;
  std::optional<obs::Tracer> tracer;
  if (traced) {
    tracer.emplace(obs::TracerOptions{.enabled = true, .capacity = 1 << 20});
  }
  pfs::PfsSimulator simulator{{.tracer = traced ? &*tracer : nullptr,
                               .counters = &registry}};
  core::StellarEngine engine{simulator, engineOptions()};
  rules::RuleSet global;
  s.run = engine.tune(job, &global);
  const double t1 = nowSeconds();
  s.validated = core::measureConfig(
      simulator, job, s.run.bestConfig,
      {.repeats = kValidateRepeats, .seedBase = kEngineSeed ^ 0xBE57});
  const double t2 = nowSeconds();
  if (traced) {
    obs::writeChromeTrace(*tracer, tracePath);
    s.traceRecords = tracer->recorded();
    s.traceDropped = tracer->dropped();
  }
  const double t3 = nowSeconds();
  s.seconds = t3 - t0;
  s.tuneSeconds = t1 - t0;
  s.validateSeconds = t2 - t1;
  s.exportSeconds = t3 - t2;
  if (traced) {
    s.traceBytes = fs::file_size(tracePath);
    fs::remove(tracePath);
  }
  if (spans != nullptr) {
    spans->record("tune", session, parent, t0, t1);
    spans->record("harness.validate", session, parent, t1, t2);
    if (traced) {
      spans->record("obs.export", session, parent, t2, t3);
    }
  }
  s.extractMisses = registry.counter("core.extraction.cache_miss").value();
  util::Json doc = s.run.toJson();
  doc.set("validated_best_mean_seconds", s.validated.summary.mean);
  doc.set("validated_best_ci90_seconds", s.validated.summary.ci90);
  s.doc = doc.dump();
  return s;
}

util::Json sessionLine(const std::string& workload, const std::string& kind,
                       std::size_t index, const TuneSession& s) {
  util::Json line = util::Json::makeObject();
  line.set("type", "session");
  line.set("workload", workload);
  line.set("kind", kind);
  line.set("index", count(index));
  line.set("seconds", num(s.seconds));
  line.set("digest", hex(fnv1a(s.doc)));
  std::string problem;
  if (s.run.bestSpeedup() < 1.0) {
    problem = "speedup below 1";
  } else if (!s.validated.clean() || s.validated.samples.size() != kValidateRepeats) {
    problem = "validation repeats failed";
  }
  line.set("ok", util::Json(problem.empty()));
  line.set("problem", problem);
  line.set("facts", sessionFacts(util::Json::parse(s.doc)));
  return line;
}

void runTuneE2e(const TuneWorkload& w, std::uint64_t seed, double seconds,
                const fs::path& out) {
  const auto buildJob = [&](std::size_t variant, std::size_t kind) {
    return workloads::byName(w.kinds[kind], jobOptions(w, seed, variant));
  };
  const std::string tracePath = (out / "session.trace.json").string();
  // Untimed warm-up: the host's first seconds of load run up to twice as
  // slow, which would otherwise land in the set-up samples and the first
  // sessions' times (the fleet does the same).
  for (const double warm = nowSeconds(); nowSeconds() - warm < kWarmupSeconds;) {
    runIsolated([&] { (void)runTuneSession(buildJob(0, 0), w.traced, tracePath); });
  }
  // Set-up: generating the run's workload inputs. Each session process
  // generates its own job again, as `stellar_cli tune` does, so its peak
  // memory holds that one job and not every input of the run; the
  // generator's memory must also leave this process before the next fork.
  std::size_t setups = 0;
  const auto setup = [&] {
    const double t0 = nowSeconds();
    double t1 = 0.0;
    {
      std::vector<pfs::JobSpec> jobs;
      for (std::size_t v = 0; v < w.variants; ++v) {
        for (std::size_t kind = 0; kind < w.kinds.size(); ++kind) {
          jobs.push_back(buildJob(v, kind));
        }
      }
      t1 = nowSeconds();
    }
    malloc_trim(0);
    return t1 - t0;
  };
  const double start = nowSeconds();
  const std::size_t kinds = w.kinds.size();
  std::vector<double> last(kinds, 0.0);
  std::size_t index = 0;
  std::size_t skipped = 0;
  // Kinds take turns, the job input moving on after each round, and every
  // kind runs once on every input; after that a kind is skipped once one
  // more of its sessions would end past --seconds, so long kinds do not
  // overrun the clock while short ones fill it.
  for (std::size_t turn = 0; skipped < kinds; ++turn) {
    const std::size_t k = turn % kinds;
    const std::size_t v = (turn / kinds) % w.variants;
    if (index >= kinds * w.variants && nowSeconds() - start + last[k] > seconds) {
      ++skipped;
      continue;
    }
    skipped = 0;
    const double t0 = nowSeconds();
    runIsolated([&] {
      const TuneSession s = runTuneSession(buildJob(v, k), w.traced, tracePath);
      util::Json line = sessionLine(w.name, w.kinds[k], index, s);
      line.set("variant", count(v));
      line.set("rss_mb", num(peakRssMb()));
      emit(line);
    });
    last[k] = nowSeconds() - t0;
    ++index;
    takeSetups(setups, nowSeconds() - start, seconds, setup);
  }
  takeSetups(setups, seconds, seconds, setup);
}

/// What one session's replay needs: its job, a simulator configured as the
/// session's, the engine seed, the session's result, and the recall set the
/// session saw (fleet only).
struct ReplayInputs {
  const pfs::JobSpec* job;
  const pfs::PfsSimulator* simulator;
  std::uint64_t engineSeed;
  const core::TuningRunResult* run;
  const exp::ExperienceStore* recallSnapshot = nullptr;
};

/// Replays the calls StellarEngine::tune makes below the agents, each
/// under its own span: extraction, the default run, Darshan
/// characterization, the dataframe tables, the Analysis Agent's report,
/// warm-start recall (when a snapshot is given) and every measured attempt.
/// Returns the replay's total so the caller can form the residual.
double replayTune(SpanLog& spans, const std::string& session, int parent,
                  const ReplayInputs& in, WorkCounts& counts) {
  const pfs::PfsSimulator& sim = *in.simulator;
  const std::uint64_t seedBase = util::mix64(in.engineSeed, 0x7E57);
  const int root = spans.open("replay", session, parent);
  spans.timed("extract", session, root, [&] {
    manual::SystemFacts facts;
    facts.clientRamMb = sim.cluster().clientRamMb();
    facts.ostCount = sim.cluster().totalOsts();
    return core::OfflineExtractor{}.run(facts).tunables.size();
  });
  const pfs::RunResult initial = spans.timed(
      "sim.run", session, root, [&] { return sim.run(*in.job, pfs::PfsConfig{}, seedBase); });
  counts.add(initial);
  if (initial.wallSeconds != in.run->defaultSeconds) {
    ++counts.replayMismatches;
  }
  const darshan::DarshanLog log = spans.timed("darshan.characterize", session, root, [&] {
    return darshan::characterize(*in.job, initial, seedBase);
  });
  const df::DarshanTables tables =
      spans.timed("dataframe.tables", session, root, [&] { return df::tablesFromLog(log); });
  llm::TokenMeter meter;
  agents::Transcript transcript;
  const agents::IoReport report = spans.timed("agents.analysis", session, root, [&] {
    agents::AnalysisAgent analysis{tables, engineOptions().analysisModel, meter, transcript};
    return analysis.initialReport();
  });
  if (in.recallSnapshot != nullptr) {
    spans.timed("exp.recall", session, root,
                [&] { return in.recallSnapshot->warmStart(report).has_value(); });
  }
  const std::vector<agents::Attempt>& attempts = in.run->attempts;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    if (!attempts[i].valid || attempts[i].measurementFailed) {
      continue;
    }
    const pfs::RunResult run = spans.timed("sim.run", session, root, [&] {
      return sim.run(*in.job, attempts[i].config, util::mix64(seedBase, i + 1));
    });
    counts.add(run);
    if (run.wallSeconds != attempts[i].seconds) {
      ++counts.replayMismatches;
    }
  }
  return spans.close(root);
}

util::Json layerLine(const std::string& session, const WorkCounts& counts,
                     const util::Json& facts) {
  util::Json line = util::Json::makeObject();
  line.set("type", "layer");
  line.set("session", session);
  line.set("counts", counts.toJson());
  line.set("facts", facts);
  return line;
}

void runTuneLayers(const TuneWorkload& w, std::uint64_t seed, const fs::path& out) {
  const workloads::WorkloadOptions options = jobOptions(w, seed);
  SpanLog spans;
  const std::string tracePath = (out / "session.trace.json").string();
  for (std::size_t k = 0; k < w.kinds.size(); ++k) {
    const std::string session = w.kinds[k] + "#" + std::to_string(k);
    const int root = spans.open("session", session, -1);
    const pfs::JobSpec job = spans.timed("workloads.gen", session, root, [&] {
      return workloads::byName(w.kinds[k], options);
    });
    // The session itself, exactly as the end-to-end pass runs it.
    const TuneSession s = runTuneSession(job, w.traced, tracePath, &spans, session, root);
    util::Json facts = sessionFacts(util::Json::parse(s.doc));
    facts.set("session_seconds", num(s.seconds));
    facts.set("tune_seconds", num(s.tuneSeconds));
    facts.set("validate_seconds", num(s.validateSeconds));
    facts.set("export_seconds", num(s.exportSeconds));
    facts.set("trace_records", count(s.traceRecords));
    facts.set("trace_dropped", count(s.traceDropped));
    facts.set("trace_bytes", count(s.traceBytes));
    facts.set("extract_calls", num(s.extractMisses));
    facts.set("digest", hex(fnv1a(s.doc)));
    if (w.traced) {
      // The same session with the tracer off: the tracing overhead.
      const int untraced = spans.open("session.untraced", session, root);
      const TuneSession plain = runTuneSession(job, false, tracePath);
      spans.close(untraced);
      facts.set("untraced_seconds", num(plain.seconds));
    }
    WorkCounts counts;
    obs::CounterRegistry registry;
    std::optional<obs::Tracer> tracer;
    if (w.traced) {
      tracer.emplace(obs::TracerOptions{.enabled = true, .capacity = 1 << 20});
    }
    const pfs::PfsSimulator simulator{{.tracer = w.traced ? &*tracer : nullptr,
                                       .counters = &registry}};
    const double replayed = replayTune(
        spans, session, root, {&job, &simulator, kEngineSeed, &s.run}, counts);
    facts.set("replayed_seconds", num(replayed));
    // Serial replays of the validation repeats: their sum against the
    // parallel wall time gives the harness's parallel efficiency.
    double serial = 0.0;
    for (std::size_t i = 0; i < kValidateRepeats; ++i) {
      serial += spans.timed("harness.repeat", session, root, [&] {
        const double t0 = nowSeconds();
        (void)simulator.run(job, s.run.bestConfig,
                            util::mix64(kEngineSeed ^ 0xBE57, i));
        return nowSeconds() - t0;
      });
    }
    facts.set("repeat_serial_seconds", num(serial));
    facts.set("validate_threads",
              count(std::min<std::size_t>(kValidateRepeats,
                                          std::max(1u, std::thread::hardware_concurrency()))));
    spans.close(root);
    emit(layerLine(session, counts, facts));
  }
  spans.emitAll();
}

// ---------------------------------------------------------------- fleet ----

/// The request schedule of one fleet repeat, generated from the seed: per
/// wave, 12 distinct cells over six workloads (a quarter of them under the
/// flaky-llm fault scenario) plus 4 duplicate asks that must coalesce,
/// spread over 4 tenants and submitted in a seeded order. Each wave's
/// request seeds are new, so later waves recall earlier ones from the
/// committed store instead of coalescing with them.
std::vector<std::vector<service::SubmitOptions>> fleetPlan(std::uint64_t seed,
                                                           std::uint64_t plan) {
  static const std::vector<std::string> kCells{
      "AMReX",   "AMReX",   "MACSio_512K", "MACSio_512K", "MACSio_16M", "MACSio_16M",
      "IO500",   "IO500",   "IOR_64K",     "IOR_64K",     "IOR_16M",    "IOR_16M"};
  static const std::vector<std::string> kTenants{"t0", "t1", "t2", "t3"};
  std::vector<std::vector<service::SubmitOptions>> waves;
  std::uint64_t state = util::mix64(util::mix64(seed, plan), 0xF1EE7);
  const auto next = [&state](std::uint64_t bound) {
    return util::splitmix64(state) % bound;
  };
  for (std::size_t w = 0; w < kFleetWaves; ++w) {
    std::vector<service::SubmitOptions> wave;
    std::vector<std::size_t> flaky(kCells.size(), 0);
    for (std::size_t f = 0; f < kCells.size() / 4;) {
      const std::size_t i = next(kCells.size());
      if (flaky[i] == 0) {
        flaky[i] = 1;
        ++f;
      }
    }
    for (std::size_t i = 0; i < kCells.size(); ++i) {
      service::SubmitOptions request;
      request.tenant = kTenants[next(kTenants.size())];
      request.workload = kCells[i];
      request.seed = 1 + next(1000000);
      request.scale = kFleetScale;
      request.ranks = kRanks;
      request.faults = flaky[i] != 0 ? "flaky-llm" : "";
      wave.push_back(request);
    }
    // One duplicate per quarter of the cell list keeps each wave's mix alike.
    for (std::size_t d = 0; d < 4; ++d) {
      service::SubmitOptions dup = wave[3 * d + next(3)];
      dup.tenant = kTenants[next(kTenants.size())];
      wave.push_back(dup);
    }
    for (std::size_t i = wave.size(); i > 1; --i) {
      std::swap(wave[i - 1], wave[next(i)]);
    }
    waves.push_back(std::move(wave));
  }
  return waves;
}

/// A schedule as a `stellard` request batch: one JSON request per line, a
/// blank line closing each wave.
std::string planText(const std::vector<std::vector<service::SubmitOptions>>& plan) {
  std::string text;
  for (const std::vector<service::SubmitOptions>& wave : plan) {
    for (const service::SubmitOptions& request : wave) {
      text += request.toJson().dump() + "\n";
    }
    text += "\n";
  }
  return text;
}

/// Reads a request batch back the way `stellard` reads its input.
std::vector<std::vector<service::SubmitOptions>> parsePlan(const std::string& text) {
  std::vector<std::vector<service::SubmitOptions>> plan(1);
  for (const std::string& line : util::split(text, '\n')) {
    if (!line.empty()) {
      plan.back().push_back(service::SubmitOptions::fromJson(util::Json::parse(line)));
    } else if (!plan.back().empty()) {
      plan.emplace_back();
    }
  }
  if (plan.back().empty()) {
    plan.pop_back();
  }
  return plan;
}

service::ServiceOptions fleetOptions(const fs::path& dir, obs::CounterRegistry* registry) {
  service::ServiceOptions options;
  options.storePath = (dir / "fleet.jsonl").string();
  options.workers = std::max(1u, std::thread::hardware_concurrency());
  options.counters = registry;
  options.store.counters = registry;
  options.clock = &monotonicNanos;
  options.tenants["t0"].weight = 2.0;
  return options;
}

struct WaveResult {
  std::vector<service::SessionResult> sessions;
  double commitSeconds = 0.0;
  std::shared_ptr<const exp::ExperienceStore> snapshot;  ///< recall set of the wave
};

/// One fresh fleet: set-up, then submit / drainAll / commit per wave.
struct FleetRepeat {
  double seconds = 0.0;
  std::vector<WaveResult> waves;
  service::ServiceStats stats;
  std::string storeBytes;
  std::size_t rejected = 0;
  double rssMb = 0.0;
};

FleetRepeat runFleetRepeat(const std::vector<std::vector<service::SubmitOptions>>& plan,
                           const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  FleetRepeat out;
  obs::CounterRegistry registry;
  auto svc = std::make_unique<service::TuningService>(fleetOptions(dir, &registry));
  const double t1 = nowSeconds();
  for (const std::vector<service::SubmitOptions>& wave : plan) {
    WaveResult result;
    result.snapshot = svc->fleetStore().snapshot();
    for (const service::SubmitOptions& request : wave) {
      if (!svc->submit(request).accepted()) {
        ++out.rejected;
      }
    }
    result.sessions = svc->drainAll();
    const double c0 = nowSeconds();
    (void)svc->commit();
    result.commitSeconds = nowSeconds() - c0;
    out.waves.push_back(std::move(result));
  }
  out.seconds = nowSeconds() - t1;
  out.rssMb = peakRssMb();
  out.stats = svc->stats();
  svc.reset();
  out.storeBytes = util::readFile((dir / "fleet.jsonl").string());
  fs::remove_all(dir);
  return out;
}

util::Json repeatLine(std::size_t index, const FleetRepeat& r) {
  std::string docs;
  util::Json line = util::Json::makeObject();
  line.set("type", "fleet_repeat");
  line.set("index", count(index));
  line.set("seconds", num(r.seconds));
  line.set("rss_mb", num(r.rssMb));
  util::Json latencies = util::Json::makeArray();
  util::Json facts = util::Json::makeArray();
  util::Json commits = util::Json::makeArray();
  std::size_t notOk = 0;
  for (const WaveResult& wave : r.waves) {
    commits.push(num(wave.commitSeconds));
    for (const service::SessionResult& s : wave.sessions) {
      docs += s.toJson().dump() + "\n";
      latencies.push(num(static_cast<double>(s.completeNanos - s.submitNanos) * 1e-9));
      if (s.state != service::SessionState::Completed || s.cellDoc.isNull() ||
          s.cellDoc.getNumber("best_speedup") < 1.0) {
        ++notOk;
        continue;
      }
      facts.push(sessionFacts(s.cellDoc));
    }
  }
  line.set("latencies", latencies);
  line.set("facts", facts);
  line.set("commit_seconds", commits);
  line.set("digest", hex(fnv1a(docs)));
  line.set("store_digest", hex(fnv1a(r.storeBytes)));
  line.set("submitted", count(r.stats.submitted));
  line.set("fresh", count(r.stats.freshRuns));
  line.set("coalesced", count(r.stats.coalesced));
  line.set("completed", count(r.stats.completed));
  line.set("failed", count(r.stats.failed));
  line.set("interrupted", count(r.stats.interrupted));
  line.set("rejected", count(r.rejected + r.stats.rejected));
  line.set("not_ok", count(notOk));
  return line;
}

void runFleetE2e(std::uint64_t seed, double seconds, const fs::path& out) {
  std::vector<std::string> batches;
  for (std::size_t p = 0; p < kFleetPlans; ++p) {
    batches.push_back(planText(fleetPlan(seed, p)));
  }
  const auto parseAll = [&] {
    std::vector<std::vector<std::vector<service::SubmitOptions>>> parsed;
    for (const std::string& batch : batches) {
      parsed.push_back(parsePlan(batch));
    }
    return parsed;
  };
  auto plans = parseAll();
  for (const double warm = nowSeconds(); nowSeconds() - warm < kWarmupSeconds;) {
    runIsolated([&] { (void)runFleetRepeat(plans[0], out / "fleet"); });
  }
  // Set-up samples: what `stellard` does before its first session, for the
  // run's request batches: read the requests, start the service and open an
  // empty store. The service alone takes under 0.1 ms, most of it starting
  // worker threads, which varies with the host's load.
  const fs::path setupDir = out / "fleet-setup";
  std::size_t setups = 0;
  const auto setup = [&] {
    fs::remove_all(setupDir);
    fs::create_directories(setupDir);
    obs::CounterRegistry registry;
    const double t0 = nowSeconds();
    plans = parseAll();
    auto svc = std::make_unique<service::TuningService>(fleetOptions(setupDir, &registry));
    const double t1 = nowSeconds();
    svc.reset();
    fs::remove_all(setupDir);
    return t1 - t0;
  };
  const double start = nowSeconds();
  std::size_t index = 0;
  double lastRepeat = 0.0;
  while (index <= kFleetPlans || nowSeconds() - start + lastRepeat <= seconds) {
    const double repeatStart = nowSeconds();
    runIsolated([&] {
      util::Json line =
          repeatLine(index, runFleetRepeat(plans[index % kFleetPlans], out / "fleet"));
      line.set("plan", count(index % kFleetPlans));
      emit(line);
    });
    lastRepeat = nowSeconds() - repeatStart;
    ++index;
    takeSetups(setups, nowSeconds() - start, seconds, setup);
  }
  takeSetups(setups, seconds, seconds, setup);
}

/// The fleet layer pass: one fleet through the service (service spans from
/// the bench's side of each call), then every fresh cell replayed as
/// TuningService::runCell runs it, with the calls below it under spans.
void runFleetLayers(std::uint64_t seed, const fs::path& out) {
  const auto plan = fleetPlan(seed, 0);
  SpanLog spans;
  const fs::path dir = out / "fleet";
  fs::remove_all(dir);
  fs::create_directories(dir);
  obs::CounterRegistry registry;
  const std::string fleetSession = "fleet";
  const int root = spans.open("fleet", fleetSession, -1);
  auto svc = spans.timed("service.start", fleetSession, root, [&] {
    return std::make_unique<service::TuningService>(fleetOptions(dir, &registry));
  });
  std::vector<WaveResult> waves;
  for (std::size_t w = 0; w < plan.size(); ++w) {
    WaveResult result;
    result.snapshot = svc->fleetStore().snapshot();
    spans.timed("service.submit", fleetSession, root, [&] {
      for (const service::SubmitOptions& request : plan[w]) {
        (void)svc->submit(request);
      }
    });
    result.sessions =
        spans.timed("service.drain", fleetSession, root, [&] { return svc->drainAll(); });
    result.commitSeconds = spans.timed("service.commit", fleetSession, root,
                                       [&] {
                                         const double t0 = nowSeconds();
                                         (void)svc->commit();
                                         return nowSeconds() - t0;
                                       });
    waves.push_back(std::move(result));
  }
  const service::ServiceStats stats = svc->stats();
  const std::size_t storeRecords = svc->fleetStore().baseSize();
  svc.reset();
  util::Json summary = util::Json::makeObject();
  summary.set("type", "fleet_layer");
  summary.set("submitted", count(stats.submitted));
  summary.set("fresh", count(stats.freshRuns));
  summary.set("coalesced", count(stats.coalesced));
  summary.set("journal_bytes", count(treeBytes(dir / "fleet.jsonl.sessions") +
                                     fs::file_size(dir / "fleet.jsonl.manifest")));
  summary.set("store_records", count(storeRecords));
  summary.set("warm_recalled", num(registry.counter("core.warm_start.recalled").value()));
  summary.set("warm_confirmed",
              num(registry.counter("core.warm_start.outcomes", {{"kind", "confirmed"}}).value()));
  summary.set("extract_calls", num(registry.counter("core.extraction.cache_miss").value()));
  util::Json commits = util::Json::makeArray();
  for (const WaveResult& wave : waves) {
    commits.push(num(wave.commitSeconds));
  }
  summary.set("commit_seconds", commits);
  spans.close(root);

  // Replays, one per fresh cell, in wave order.
  const fs::path scratch = dir / "replay";
  fs::create_directories(scratch);
  for (std::size_t w = 0; w < plan.size(); ++w) {
    std::vector<std::string> seen;
    for (const service::SubmitOptions& request : plan[w]) {
      const std::string key = service::cellKey(request);
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
        continue;
      }
      seen.push_back(key);
      const std::string session = "w" + std::to_string(w) + ":" + request.workload +
                                  "#" + std::to_string(seen.size() - 1);
      const int cell = spans.open("session", session, -1);
      const pfs::JobSpec job = spans.timed("workloads.gen", session, cell, [&] {
        return workloads::byName(request.workload, {.ranks = request.ranks,
                                                    .scale = request.scale,
                                                    .seed = request.seed});
      });
      faults::FaultPlan faultPlan;
      if (!request.faults.empty()) {
        faultPlan = faults::parseFaultSpec(request.faults);
      }
      obs::CounterRegistry cellRegistry;
      pfs::SimulatorOptions simOpts;
      simOpts.counters = &cellRegistry;
      if (!request.faults.empty()) {
        simOpts.faults = &faultPlan;
      }
      const pfs::PfsSimulator simulator{simOpts};
      core::StellarOptions engineOpts;
      engineOpts.seed = request.seed;
      engineOpts.agent.seed = request.seed;
      engineOpts.agent.model = llm::profileByName(request.model);
      service::SnapshotRecallProvider recall{waves[w].snapshot, nullptr};
      engineOpts.warmStart = &recall;
      const std::string journalPath =
          (scratch / (service::cellFileStem(key) + ".jsonl")).string();
      core::SessionJournal journal{journalPath};
      engineOpts.journal = &journal;
      core::StellarEngine engine{simulator, engineOpts};
      const core::TuningRunResult run =
          spans.timed("tune", session, cell, [&] { return engine.tune(job); });
      WorkCounts counts;
      ReplayInputs inputs{&job, &simulator, request.seed, &run};
      inputs.recallSnapshot = waves[w].snapshot.get();
      const double replayed = replayTune(spans, session, cell, inputs, counts);
      // Journal and store writes of the cell, replayed into scratch files.
      spans.timed("journal.append", session, cell, [&] {
        core::SessionJournal replay{(scratch / "journal-replay.jsonl").string()};
        util::Json header = util::Json::makeObject();
        header.set("type", "header");
        header.set("workload", job.name);
        replay.bind(header);
        std::size_t index = 0;
        for (const agents::Attempt& attempt : run.attempts) {
          replay.recordMeasurement(index++, {attempt.seconds, "ok", ""});
          replay.syncTranscript(run.transcript);
        }
        replay.markComplete(util::Json::makeObject());
      });
      fs::remove(scratch / "journal-replay.jsonl");
      spans.timed("exp.append", session, cell, [&] {
        service::FleetStore shard{(scratch / "store-replay.jsonl").string()};
        shard.appendRecord(request.tenant, exp::recordFromRun(run, request.seed,
                                                              request.model, request.faults));
      });
      for (const auto& entry : fs::directory_iterator(scratch)) {
        if (entry.path().filename().string().rfind("store-replay", 0) == 0) {
          fs::remove(entry.path());
        }
      }
      spans.close(cell);
      util::Json facts = sessionFacts(run.toJson());
      facts.set("replayed_seconds", num(replayed));
      facts.set("extract_calls", num(cellRegistry.counter("core.extraction.cache_miss").value()));
      emit(layerLine(session, counts, facts));
    }
  }
  emit(summary);
  spans.emitAll();
  fs::remove_all(dir);
}

// ----------------------------------------------------------------- main ----

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: session_bench --workload <tune-data|tune-meta|tune-traced|"
               "fleet> --seed N --seconds S --trace 0|1 --out DIR\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool layers = false;
  std::string outDir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      layers = value == "1";
    } else if (key == "--out") {
      outDir = value;
    } else {
      usage();
    }
  }
  if (outDir.empty()) {
    usage();
  }
  const fs::path out{outDir};
  fs::create_directories(out);
  try {
    if (workload == "fleet") {
      if (layers) {
        // Plain fresh fleets first: their committed store bytes give the
        // store-order drift; then the instrumented fleet and its replays.
        const auto plan = fleetPlan(seed, 0);
        const double start = nowSeconds();
        for (std::size_t i = 0; i < kDriftRepeats || nowSeconds() - start < seconds / 2; ++i) {
          runIsolated([&] { emit(repeatLine(i, runFleetRepeat(plan, out / "fleet"))); });
        }
        runFleetLayers(seed, out);
      } else {
        runFleetE2e(seed, seconds, out);
      }
    } else {
      const auto& all = tuneWorkloads();
      const auto it = std::find_if(all.begin(), all.end(), [&](const TuneWorkload& w) {
        return workload == w.name;
      });
      if (it == all.end()) {
        usage();
      }
      if (layers) {
        runTuneLayers(*it, seed, out);
      } else {
        runTuneE2e(*it, seed, seconds, out);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "session_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
