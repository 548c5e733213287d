#include "exp/campaign.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>

#include "util/file.hpp"
#include "util/json.hpp"

namespace stellar::exp {
namespace {

namespace fs = std::filesystem;

CampaignSpec smallSpec() {
  CampaignSpec spec;
  spec.name = "test-campaign";
  spec.workloads = {"IOR_64K", "MDWorkbench_8K"};
  spec.seeds = {7, 8};
  spec.scale = 0.05;
  return spec;
}

fs::path freshDir(const std::string& name) {
  // The pid keeps two test runs on one host out of each other's store.
  const fs::path dir = fs::path{::testing::TempDir()} /
                       ("exp_campaign_" + name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(CampaignSpec, CellsAreTheFullDeterministicProduct) {
  CampaignSpec spec = smallSpec();
  spec.models = {"claude-3.7-sonnet", "gpt-4o"};
  spec.faultScenarios = {"", "degraded-ost"};
  const auto cells = spec.cells();
  ASSERT_EQ(cells.size(), 16U);  // 2 workloads x 2 seeds x 2 models x 2 faults
  EXPECT_EQ(cells[0].key(), "IOR_64K|7|claude-3.7-sonnet|none");
  EXPECT_EQ(cells[1].key(), "IOR_64K|7|claude-3.7-sonnet|degraded-ost");
  EXPECT_EQ(cells.back().key(), "MDWorkbench_8K|8|gpt-4o|degraded-ost");
}

TEST(CampaignSpec, JsonRoundTripAndValidation) {
  CampaignSpec spec = smallSpec();
  spec.faultScenarios = {"", "flaky-network"};
  const CampaignSpec back =
      CampaignSpec::fromJson(util::Json::parse(spec.toJson().dump()));
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.workloads, spec.workloads);
  EXPECT_EQ(back.seeds, spec.seeds);
  EXPECT_EQ(back.models, spec.models);
  EXPECT_EQ(back.faultScenarios, spec.faultScenarios);
  EXPECT_EQ(back.warmStart, spec.warmStart);

  util::Json missing = util::Json::makeObject();
  missing.set("name", "broken");
  EXPECT_THROW((void)CampaignSpec::fromJson(missing), util::JsonError);
}

TEST(CampaignRunner, ResumeAfterKillIsByteIdenticalAndSkipsCompletedCells) {
  const CampaignSpec spec = smallSpec();

  // Uninterrupted reference run.
  const fs::path dirA = freshDir("full");
  CampaignOptions optionsA;
  optionsA.storePath = (dirA / "store.jsonl").string();
  const CampaignResult full = CampaignRunner{optionsA}.run(spec);
  ASSERT_TRUE(full.complete);
  EXPECT_EQ(full.cells.size(), 4U);
  EXPECT_EQ(full.executed, 4U);
  EXPECT_EQ(full.skipped, 0U);
  const std::string docFull = full.aggregateJson(spec).dump(2);

  // Killed after 2 cells (maxCells is the deterministic kill), then resumed.
  const fs::path dirB = freshDir("resume");
  CampaignOptions optionsB;
  optionsB.storePath = (dirB / "store.jsonl").string();
  optionsB.maxCells = 2;
  const CampaignResult partial = CampaignRunner{optionsB}.run(spec);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.executed, 2U);
  // No commit yet: the store file holds nothing (shards do).
  EXPECT_EQ((ExperienceStore{optionsB.storePath, {}}).size(), 0U);

  optionsB.maxCells = 0;
  const CampaignResult resumed = CampaignRunner{optionsB}.run(spec);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.executed, 2U);
  EXPECT_EQ(resumed.skipped, 2U);
  EXPECT_EQ(resumed.aggregateJson(spec).dump(2), docFull);

  // Commit happened exactly once, with one record per cell (dedup by key).
  ExperienceStore store{optionsB.storePath, {}};
  EXPECT_EQ(store.size(), 4U);
  // Shard files were absorbed and removed.
  for (const auto& entry : fs::directory_iterator(dirB)) {
    EXPECT_EQ(entry.path().string().find(".shard-"), std::string::npos)
        << entry.path();
  }
}

TEST(CampaignRunner, CorruptManifestLineReExecutesOnlyThatCell) {
  const CampaignSpec spec = smallSpec();
  const fs::path dir = freshDir("corrupt");
  CampaignOptions options;
  options.storePath = (dir / "store.jsonl").string();
  const CampaignResult full = CampaignRunner{options}.run(spec);
  ASSERT_TRUE(full.complete);
  const std::string docFull = full.aggregateJson(spec).dump(2);

  // Damage the second manifest line (torn write).
  const std::string manifestPath = options.storePath + ".manifest";
  ASSERT_TRUE(util::fileExists(manifestPath));
  std::string manifest = util::readFile(manifestPath);
  const std::size_t firstEol = manifest.find('\n');
  ASSERT_NE(firstEol, std::string::npos);
  const std::size_t secondEol = manifest.find('\n', firstEol + 1);
  ASSERT_NE(secondEol, std::string::npos);
  std::string damaged = manifest.substr(0, firstEol + 1) +
                        "{\"torn\":\n" + manifest.substr(secondEol + 1);
  util::writeFile(manifestPath, damaged);

  const CampaignResult rerun = CampaignRunner{options}.run(spec);
  ASSERT_TRUE(rerun.complete);
  EXPECT_EQ(rerun.executed, 1U);  // only the damaged cell re-executes
  EXPECT_EQ(rerun.skipped, 3U);
  EXPECT_EQ(rerun.aggregateJson(spec).dump(2), docFull);
}

TEST(CampaignRunner, MemoryOnlyCampaignRunsWithoutAnyFiles) {
  CampaignSpec spec = smallSpec();
  spec.workloads = {"IOR_64K"};
  spec.seeds = {3};
  CampaignOptions options;  // no storePath: nothing persisted, no resume
  const CampaignResult result = CampaignRunner{options}.run(spec);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.cells.size(), 1U);
  EXPECT_FALSE(result.cells[0].failed);
  EXPECT_GT(result.cells[0].speedup, 1.0);
}

TEST(CampaignRunner, UnknownWorkloadBecomesAFailedCellNotACrash) {
  CampaignSpec spec = smallSpec();
  spec.workloads = {"NoSuchWorkload"};
  spec.seeds = {1};
  CampaignOptions options;
  const CampaignResult result = CampaignRunner{options}.run(spec);
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(result.cells.size(), 1U);
  EXPECT_TRUE(result.cells[0].failed);
  EXPECT_FALSE(result.cells[0].error.empty());
}

}  // namespace
}  // namespace stellar::exp
