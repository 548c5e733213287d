// Seeded case generation for the property-testing kit.
//
// A CaseShape is the *compressed genome* of a test case: a handful of
// integers and flags that materialize deterministically into a full
// (cluster, config, job, fault plan) tuple. Shrinking operates on shapes —
// each shrink step produces a strictly simpler genome, re-materializes it,
// and re-checks the failing property — so a reported counterexample is
// both minimal and reproducible from its seed alone.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "faults/fault_plan.hpp"
#include "pfs/job.hpp"
#include "pfs/params.hpp"
#include "pfs/topology.hpp"
#include "util/rng.hpp"

namespace stellar::testkit {

/// The genome of one generated case. Every field is either sampled from
/// the case seed or produced by a shrink step; materialize() is a pure
/// function of this struct.
struct CaseShape {
  std::uint64_t seed = 0;  ///< drives offsets/orderings AND the sim run

  // Cluster dimensions (the rest of ClusterSpec stays at defaults so the
  // analytic constants in oracles.cpp keep meaning).
  std::uint32_t clientNodes = 1;
  std::uint32_t ranksPerNode = 1;
  std::uint32_t ossNodes = 1;

  std::uint32_t ranks = 1;  ///< <= clientNodes * ranksPerNode

  // Program shape.
  bool sharedFile = false;       ///< one shared file vs private files
  std::uint32_t filesPerRank = 1;  ///< private mode only
  std::uint32_t chunksPerFile = 4;
  std::uint64_t chunkBytes = 64 * 1024;
  bool randomOffsets = false;  ///< shuffle write order within a file
  bool doRead = true;
  bool doStat = false;
  bool doUnlink = false;
  bool doFsync = true;
  double computeSeconds = 0.0;  ///< per-rank compute op before I/O

  pfs::PfsConfig config;      ///< always valid for the materialized cluster
  faults::FaultPlan faults;   ///< empty = fault-free

  [[nodiscard]] std::string describe() const;
};

/// A shape materialized into simulator inputs.
struct GeneratedCase {
  CaseShape shape;
  pfs::ClusterSpec cluster;
  pfs::JobSpec job;
};

/// Knobs for the generator (the explore CLI exposes a subset).
struct GenOptions {
  bool allowFaults = true;
  bool allowSharedFiles = true;
  /// Upper bound on total I/O bytes per case, keeps Release-mode
  /// exploration under the 60 s budget for 500 cases.
  std::uint64_t maxTotalBytes = 256ULL * 1024 * 1024;
};

/// Samples a random-but-valid config: each tunable is independently kept
/// at its default or resampled uniformly inside paramBounds, then the
/// whole config is clamped so dependent bounds hold.
[[nodiscard]] pfs::PfsConfig randomConfig(util::Rng& rng, const pfs::BoundsContext& ctx);

/// Deterministically generates the shape for `caseSeed`.
[[nodiscard]] CaseShape generateShape(std::uint64_t caseSeed, const GenOptions& opts = {});

/// Pure function: shape -> simulator inputs. The job passes
/// JobSpec::validate() by construction.
[[nodiscard]] GeneratedCase materialize(const CaseShape& shape);

/// Replicates a materialized case across `cells` shared-nothing federation
/// cells: the cluster gains `cells` copies of just-enough client nodes (and
/// of its OSS fleet), and every cell gets a clone of the base job with
/// cell-local files. Cells whose rank slots outnumber the base job's ranks
/// pad by repeating base programs (padded rank i runs base rank i % R), so
/// every cell is identical and the partition into cells is exact. The
/// result runs as many cells in pfs::PfsSimulator; its results are
/// bit-identical for any shard count.
[[nodiscard]] GeneratedCase cellify(const GeneratedCase& base, std::uint32_t cells);

/// Greedy shrinking: repeatedly tries simplifying steps (halve sizes, drop
/// phases, drop faults, reset config fields) and keeps any step for which
/// `stillFails` returns true, until no step applies or `maxSteps` attempts
/// were made. Returns the smallest failing shape found.
[[nodiscard]] CaseShape shrink(CaseShape shape,
                               const std::function<bool(const CaseShape&)>& stillFails,
                               int maxSteps = 400);

}  // namespace stellar::testkit
