// Partitioned discrete-event execution.
//
// A ShardedEngine owns N independent SimEngines and drives them on a
// util::ThreadPool. It is exact — not approximate — when the model
// partitioned across shards shares no mutable state, which is what the
// federated-cell cluster model (pfs::ClusterSpec::cells) guarantees: each
// cell has its own MDS, OSTs, clients, and fault windows, and all
// hot-path randomness is keyed by global component ids rather than drawn
// from a shared engine stream. Under that contract every shard's event
// sequence is independent of the grouping, so results are bit-identical
// for 1, 2, or 4 shards (the testkit ML-SHARD law enforces this).
//
// Shards free-run: each drains to completion (or to a runUntil limit) in
// parallel, with no cross-shard synchronization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "util/thread_pool.hpp"

namespace stellar::sim {

class ShardedEngine {
 public:
  explicit ShardedEngine(EngineOptions options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] std::size_t shardCount() const noexcept { return shards_.size(); }
  [[nodiscard]] SimEngine& shard(std::size_t index) noexcept { return *shards_[index]; }

  /// Drains every shard; returns the maximum shard clock.
  SimTime run();

  /// Drains events with time <= limit on every shard; shard clocks advance
  /// to the limit like SimEngine::runUntil. Returns the maximum clock.
  SimTime runUntil(SimTime limit);

  [[nodiscard]] bool empty() const noexcept;
  /// Maximum shard clock.
  [[nodiscard]] SimTime now() const noexcept;
  /// Sum of shard event counts — invariant under shard grouping.
  [[nodiscard]] std::uint64_t eventsProcessed() const noexcept;
  [[nodiscard]] std::uint64_t openWindows() const noexcept;
  void cancelOpenWindows();

  /// Attaches shared sinks to every shard (both are thread-safe).
  void attachObservability(obs::Tracer* tracer, obs::CounterRegistry* counters) noexcept;

 private:
  void forEachParallel(const std::function<void(std::size_t)>& fn);

  std::vector<std::unique_ptr<SimEngine>> shards_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace stellar::sim
