// Crash safety: a service killed with half its queue drained resumes from
// the manifest and produces byte-identical per-session documents — the
// service-level analogue of the engine's KILL-RESUME law.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

#include "service/service.hpp"
#include "util/file.hpp"

namespace stellar::service {
namespace {

namespace fs = std::filesystem;

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::path{::testing::TempDir()} /
                       ("service_" + name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<SubmitOptions> schedule() {
  std::vector<SubmitOptions> out;
  const auto add = [&](const std::string& tenant, const std::string& workload,
                       std::uint64_t seed) {
    SubmitOptions request;
    request.tenant = tenant;
    request.workload = workload;
    request.seed = seed;
    request.scale = 0.05;
    request.warmStart = false;
    out.push_back(request);
  };
  add("alice", "IOR_64K", 7);
  add("bob", "MDWorkbench_8K", 7);
  add("alice", "IOR_64K", 8);
  add("bob", "IOR_64K", 7);  // duplicate of #1: coalesces
  return out;
}

std::string runSchedule(const std::string& storePath, std::size_t workers,
                        std::size_t maxFresh) {
  ServiceOptions options;
  options.storePath = storePath;
  options.workers = workers;
  options.maxFreshSessions = maxFresh;
  TuningService service{options};
  for (const SubmitOptions& request : schedule()) {
    const SubmitResult submitted = service.submit(request);
    EXPECT_TRUE(submitted.accepted());
  }
  std::string all;
  for (const SessionResult& result : service.drainAll()) {
    all += result.toJson().dump() + "\n";
  }
  return all;
}

TEST(Resume, KilledServiceResumesByteIdentically) {
  const fs::path killed = freshDir("killed");
  const fs::path reference = freshDir("reference");

  // Uninterrupted reference run.
  const std::string expected =
      runSchedule((reference / "store.jsonl").string(), 2, 0);
  ASSERT_NE(expected.find("\"state\":\"completed\""), std::string::npos);

  // Run 1: the fresh-cell cap interrupts the service after 2 of 3 cells.
  const std::string partial =
      runSchedule((killed / "store.jsonl").string(), 2, 2);
  EXPECT_NE(partial.find("interrupted"), std::string::npos);
  EXPECT_NE(partial, expected);

  // Run 2: same schedule, no cap — completed cells replay from the
  // manifest, interrupted ones run fresh; the documents match the
  // uninterrupted run byte for byte.
  const std::string resumed =
      runSchedule((killed / "store.jsonl").string(), 2, 0);
  EXPECT_EQ(resumed, expected);
}

TEST(Resume, ResumeIsIdenticalAcrossWorkerCounts) {
  const fs::path a = freshDir("w1");
  const fs::path b = freshDir("w8");
  (void)runSchedule((a / "store.jsonl").string(), 1, 2);
  (void)runSchedule((b / "store.jsonl").string(), 8, 2);
  const std::string resumedA = runSchedule((a / "store.jsonl").string(), 1, 0);
  const std::string resumedB = runSchedule((b / "store.jsonl").string(), 8, 0);
  EXPECT_EQ(resumedA, resumedB);
  // The fresh-cell cap counts in submission order, so even the PARTIAL
  // runs interrupt the same cells at 1 and 8 workers.
  const std::string partialA =
      util::readFile((a / "store.jsonl.manifest").string());
  const std::string partialB =
      util::readFile((b / "store.jsonl.manifest").string());
  EXPECT_EQ(partialA.empty(), partialB.empty());
}

TEST(Resume, ReplayedSessionsAreCountedAndSkipEngineRuns) {
  const fs::path dir = freshDir("counts");
  const std::string store = (dir / "store.jsonl").string();
  (void)runSchedule(store, 2, 0);

  ServiceOptions options;
  options.storePath = store;
  TuningService service{options};
  for (const SubmitOptions& request : schedule()) {
    ASSERT_TRUE(service.submit(request).accepted());
  }
  (void)service.drainAll();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.freshRuns, 0U);  // everything came from the manifest
  EXPECT_EQ(stats.replayed, 4U);   // every member session, fan-out included
  EXPECT_EQ(stats.completed, 4U);
}

TEST(Resume, CorruptManifestLinesAreSkippedNotFatal) {
  const fs::path dir = freshDir("corrupt");
  const std::string store = (dir / "store.jsonl").string();
  const std::string expected = runSchedule(store, 2, 0);

  // Tear the manifest: garbage line plus a truncated JSON tail.
  const std::string manifest = store + ".manifest";
  util::writeFile(manifest, util::readFile(manifest) +
                                "not json at all\n{\"cell\":\"IOR_64K|7");

  const std::string resumed = runSchedule(store, 2, 0);
  EXPECT_EQ(resumed, expected);  // intact lines still replay
}

TEST(Resume, SessionJournalsLandUnderTheStoreLayout) {
  const fs::path dir = freshDir("journals");
  const std::string store = (dir / "store.jsonl").string();
  (void)runSchedule(store, 2, 0);
  // Per-cell session journals live in `<store>.sessions/` so the CLI and
  // stellard share one layout.
  EXPECT_TRUE(fs::exists(dir / "store.jsonl.sessions"));
  std::size_t journals = 0;
  for (const auto& entry : fs::directory_iterator(dir / "store.jsonl.sessions")) {
    journals += entry.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(journals, 3U);  // one per distinct cell, none for the coalesce
}

}  // namespace
}  // namespace stellar::service
