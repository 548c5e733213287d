// FleetStore: concurrent-writer shard appends, the immutable recall
// snapshot, commit-time absorption (including shards that appear behind the
// service's back), and memory-only mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exp/experience_store.hpp"
#include "service/fleet_store.hpp"
#include "util/file.hpp"

namespace stellar::service {
namespace {

namespace fs = std::filesystem;

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::path{::testing::TempDir()} / ("fleet_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

exp::ExperienceRecord makeRecord(const std::string& id,
                                 const std::string& workload,
                                 double readShare) {
  rules::WorkloadContext ctx;
  ctx.metaOpShare = 0.1;
  ctx.readShare = readShare;
  ctx.sequentialShare = 0.8;
  ctx.sharedFileShare = 0.5;
  ctx.smallFileShare = 0.2;
  ctx.dominantAccessSize = 1 << 16;
  ctx.fileCount = 100;
  ctx.totalBytes = 1 << 30;

  exp::ExperienceRecord rec;
  rec.id = id;
  rec.workload = workload;
  rec.fingerprint = exp::fingerprintOf(ctx);
  EXPECT_TRUE(rec.bestConfig.set("lov.stripe_count", 4));
  rec.defaultSeconds = 2.0;
  rec.bestSeconds = 1.0;
  rec.attempts = 3;
  rec.endReason = "low expected gain";
  rec.model = "claude-3.7-sonnet";
  rec.seed = 7;
  return rec;
}

TEST(FleetStore, ShardAppendsAreInvisibleUntilCommit) {
  const fs::path dir = freshDir("shards");
  FleetStore fleet{(dir / "store.jsonl").string()};

  fleet.appendRecord("alice", makeRecord("cell-a", "IOR_64K", 0.5));
  fleet.appendRecord("bob", makeRecord("cell-b", "IOR_16M", 0.6));

  // Durable immediately in the per-tenant shard journals...
  EXPECT_TRUE(util::fileExists(fleet.tenantShardPath("alice")));
  EXPECT_TRUE(util::fileExists(fleet.tenantShardPath("bob")));
  // ...but not yet visible to the base generation or the recall snapshot.
  EXPECT_EQ(fleet.baseSize(), 0U);
  EXPECT_EQ(fleet.snapshot()->size(), 0U);

  EXPECT_EQ(fleet.commit(), 2U);
  EXPECT_EQ(fleet.baseSize(), 2U);
  EXPECT_EQ(fleet.snapshot()->size(), 2U);
  // Absorbed shards are consumed, not re-absorbed on the next commit.
  EXPECT_FALSE(util::fileExists(fleet.tenantShardPath("alice")));
  EXPECT_EQ(fleet.commit(), 0U);
}

TEST(FleetStore, OldSnapshotsStayImmutableAcrossCommits) {
  const fs::path dir = freshDir("immutable");
  FleetStore fleet{(dir / "store.jsonl").string()};
  const std::shared_ptr<const exp::ExperienceStore> pinned = fleet.snapshot();
  ASSERT_EQ(pinned->size(), 0U);

  fleet.appendRecord("alice", makeRecord("cell-a", "IOR_64K", 0.5));
  (void)fleet.commit();

  // A run that pinned the old generation keeps reading it unchanged while
  // new runs see the new one — the lock-free swap never mutates in place.
  EXPECT_EQ(pinned->size(), 0U);
  EXPECT_EQ(fleet.snapshot()->size(), 1U);
  EXPECT_NE(pinned.get(), fleet.snapshot().get());
}

TEST(FleetStore, CommitAbsorbsShardsThatAppearedMidScan) {
  const fs::path dir = freshDir("midscan");
  const std::string base = (dir / "store.jsonl").string();
  FleetStore fleet{base};
  fleet.appendRecord("alice", makeRecord("cell-a", "IOR_64K", 0.5));

  // A shard journal the FleetStore never heard of (e.g. written by a
  // stellar_cli --tenant run sharing the layout, finishing between "decide
  // to commit" and "scan the directory"): the commit re-lists the directory
  // under the base-store lock, so the shard is absorbed, not skipped.
  exp::ExperienceStore foreign{base + ".tenant-ghost", {}};
  exp::ExperienceRecord rec = makeRecord("cell-g", "IO500", 0.4);
  rec.tenant = "ghost";
  (void)foreign.append(rec);

  EXPECT_EQ(fleet.commit(), 2U);
  EXPECT_EQ(fleet.baseSize(), 2U);

  bool sawGhost = false;
  for (const exp::ExperienceRecord& record : fleet.snapshot()->records()) {
    sawGhost = sawGhost || record.tenant == "ghost";
  }
  EXPECT_TRUE(sawGhost);
}

TEST(FleetStore, MemoryOnlyModeCommitsTenantSortedThenIdSorted) {
  FleetStore fleet{""};
  fleet.appendRecord("zed", makeRecord("cell-z2", "IOR_64K", 0.5));
  fleet.appendRecord("ann", makeRecord("cell-a", "IOR_16M", 0.6));
  fleet.appendRecord("zed", makeRecord("cell-z1", "IO500", 0.4));
  EXPECT_EQ(fleet.snapshot()->size(), 0U);

  EXPECT_EQ(fleet.commit(), 3U);
  const std::vector<exp::ExperienceRecord> records =
      fleet.snapshot()->records();
  ASSERT_EQ(records.size(), 3U);
  EXPECT_EQ(records[0].id, "cell-a");   // ann first (tenant-sorted)
  EXPECT_EQ(records[1].id, "cell-z1");  // then zed's, id-sorted
  EXPECT_EQ(records[2].id, "cell-z2");
}

TEST(FleetStore, TenantProvenanceSurvivesTheJournalRoundTrip) {
  const fs::path dir = freshDir("roundtrip");
  const std::string base = (dir / "store.jsonl").string();
  {
    FleetStore fleet{base};
    fleet.appendRecord("alice", makeRecord("cell-a", "IOR_64K", 0.5));
    (void)fleet.commit();
  }
  // Reopen from disk: the tenant field persisted through shard journal,
  // absorption, and compaction.
  FleetStore reopened{base};
  const std::vector<exp::ExperienceRecord> records =
      reopened.snapshot()->records();
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records[0].tenant, "alice");
  EXPECT_EQ(records[0].id, "cell-a");
}

TEST(FleetStore, RepeatedCellCommitsDedupLastWins) {
  FleetStore fleet{""};
  exp::ExperienceRecord first = makeRecord("cell-a", "IOR_64K", 0.5);
  first.bestSeconds = 1.5;
  fleet.appendRecord("alice", first);
  (void)fleet.commit();

  // A re-run of the same cell (same id = cell key) replaces the old record
  // instead of growing the store without bound.
  exp::ExperienceRecord rerun = makeRecord("cell-a", "IOR_64K", 0.5);
  rerun.bestSeconds = 0.9;
  fleet.appendRecord("bob", rerun);
  (void)fleet.commit();

  const std::vector<exp::ExperienceRecord> records =
      fleet.snapshot()->records();
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records[0].bestSeconds, 0.9);
  EXPECT_EQ(records[0].tenant, "bob");
}

TEST(FleetStore, ConcurrentWritersLoseNoRecordsUnderIdleCommits) {
  // Property test for the journaling path (ISSUE 10, satellite 2): N writer
  // threads append disjoint record ids for their own tenants while another
  // thread runs idle-cycle commits the whole time. Afterwards one final
  // commit must make every record visible exactly once, in the canonical
  // tenant-sorted-then-id-sorted order. Runs under the targeted TSan job,
  // which would flag any unsynchronized access even if the counts match.
  constexpr int kWriters = 4;
  constexpr int kRecordsPerWriter = 32;

  FleetStore fleet{""};  // memory mode: pending map + snapshot swap only
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> committed{0};

  std::thread committer{[&fleet, &stop, &committed] {
    while (!stop.load(std::memory_order_acquire)) {
      committed.fetch_add(fleet.commit(), std::memory_order_relaxed);
      std::this_thread::yield();
    }
  }};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&fleet, w] {
      const std::string tenant = "tenant-" + std::to_string(w);
      for (int i = 0; i < kRecordsPerWriter; ++i) {
        // Two-digit suffix keeps lexicographic id order == insertion order.
        const std::string id = "cell-" + std::to_string(w) +
                               (i < 10 ? "-0" : "-") + std::to_string(i);
        fleet.appendRecord(tenant, makeRecord(id, "IOR_64K", 0.5));
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  committer.join();
  committed.fetch_add(fleet.commit(), std::memory_order_relaxed);

  // No record lost by a racing idle commit, none absorbed twice.
  EXPECT_EQ(committed.load(), kWriters * kRecordsPerWriter);
  const std::vector<exp::ExperienceRecord> records =
      fleet.snapshot()->records();
  ASSERT_EQ(records.size(),
            static_cast<std::size_t>(kWriters) * kRecordsPerWriter);

  std::set<std::string> ids;
  for (const exp::ExperienceRecord& rec : records) {
    EXPECT_TRUE(ids.insert(rec.id).second) << "duplicate id " << rec.id;
  }
  // Canonical order regardless of commit interleaving: tenants ascending,
  // ids ascending within each tenant.
  for (std::size_t i = 1; i < records.size(); ++i) {
    const bool ordered =
        records[i - 1].tenant < records[i].tenant ||
        (records[i - 1].tenant == records[i].tenant &&
         records[i - 1].id < records[i].id);
    EXPECT_TRUE(ordered) << "records " << i - 1 << "/" << i << " out of order: ("
                         << records[i - 1].tenant << ", " << records[i - 1].id
                         << ") then (" << records[i].tenant << ", "
                         << records[i].id << ")";
  }
}

TEST(FleetStore, ConcurrentJournalWritersSurviveTheDiskPath) {
  // Same race, disk mode: shard journal appends go through the filesystem
  // under the store mutex. The reopened store must see every record.
  const fs::path dir = freshDir("concurrent");
  const std::string base = (dir / "store.jsonl").string();
  constexpr int kWriters = 4;
  constexpr int kRecordsPerWriter = 16;
  {
    FleetStore fleet{base};
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&fleet, w] {
        const std::string tenant = "tenant-" + std::to_string(w);
        for (int i = 0; i < kRecordsPerWriter; ++i) {
          const std::string id = "cell-" + std::to_string(w) +
                                 (i < 10 ? "-0" : "-") + std::to_string(i);
          fleet.appendRecord(tenant, makeRecord(id, "IOR_16M", 0.6));
        }
      });
    }
    for (std::thread& t : writers) {
      t.join();
    }
    EXPECT_EQ(fleet.commit(), kWriters * kRecordsPerWriter);
  }
  FleetStore reopened{base};
  EXPECT_EQ(reopened.snapshot()->size(),
            static_cast<std::size_t>(kWriters) * kRecordsPerWriter);
}

TEST(FleetStore, AnySplitOfOneAppendStreamPublishesTheSameSnapshot) {
  // Commit-order independence: the snapshot (and, on disk, the committed
  // base file) depends only on the records appended, not on where the
  // commits fell between the appends or the order tenants' appends
  // interleaved in.
  std::vector<std::pair<std::string, std::string>> stream;  // (tenant, id)
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 8; ++i) {
      stream.emplace_back("tenant-" + std::to_string(t),
                          "cell-" + std::to_string(t) + "-" + std::to_string(i));
    }
  }
  std::shuffle(stream.begin(), stream.end(), std::mt19937{11});

  const auto run = [&stream](const std::string& base, std::size_t every) {
    std::string snapshotDoc;
    {
      FleetStore fleet{base};
      for (std::size_t i = 0; i < stream.size(); ++i) {
        fleet.appendRecord(stream[i].first, makeRecord(stream[i].second, "IOR_64K", 0.5));
        if ((i + 1) % every == 0) {
          (void)fleet.commit();
        }
      }
      (void)fleet.commit();
      for (const exp::ExperienceRecord& rec : fleet.snapshot()->records()) {
        snapshotDoc += rec.toJson().dump() + "\n";
      }
      // Identical fingerprints tie on similarity: recall orders them by id.
      const auto matches = fleet.snapshot()->recall(
          fleet.snapshot()->records().front().fingerprint, 5, 0.0);
      EXPECT_EQ(matches.size(), 5U);
      for (std::size_t i = 1; i < matches.size(); ++i) {
        EXPECT_LT(matches[i - 1].record.id, matches[i].record.id);
      }
    }
    return std::make_pair(snapshotDoc,
                          base.empty() ? std::string{} : util::readFile(base));
  };

  const auto once = run("", stream.size());
  for (const std::size_t every : {1U, 3U, 7U}) {
    EXPECT_EQ(run("", every), once) << "memory mode, commit every " << every;
  }
  const fs::path dir = freshDir("split");
  const auto onceOnDisk = run((dir / "once.jsonl").string(), stream.size());
  EXPECT_EQ(onceOnDisk.first, once.first);
  for (const std::size_t every : {1U, 3U, 7U}) {
    const std::string base =
        (dir / ("every-" + std::to_string(every) + ".jsonl")).string();
    EXPECT_EQ(run(base, every), onceOnDisk) << "disk mode, commit every " << every;
  }
}

}  // namespace
}  // namespace stellar::service
