// Per-run aggregate of the PFS client's RPCs and DLM lock waits, filled
// while a tracer is enabled and attached to the run's `pfs.run:<job>`
// span as its `rpc` arg (see PfsSimulator::run).
//
// One fixed-size cell per op kind: recording an operation is a few adds
// and a search over the obs::Histogram::defaultBounds() ladder, with no
// lock and no allocation, so enabled tracing costs a few records per run
// rather than one per simulated RPC (a metadata-heavy run issues ~10^5).
// The latency sum sits next to the x4-wide buckets because they alone
// cannot give a usable mean.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "pfs/mds.hpp"
#include "util/json.hpp"

namespace stellar::pfs {

struct RpcTally {
  /// Histogram buckets: obs::Histogram::defaultBounds() upper bounds plus
  /// the +inf bucket (tests/pfs/test_rpc_tally.cpp pins the match).
  static constexpr std::size_t kBuckets = 18;
  static constexpr std::size_t kMetaKinds =
      static_cast<std::size_t>(MetaOpKind::Close) + 1;

  /// Op kinds, in output order: the two bulk data RPCs, one per metadata
  /// op (MetaOpKind order), and the DLM lock wait.
  static constexpr std::size_t kRead = 0;
  static constexpr std::size_t kWrite = 1;
  static constexpr std::size_t kDlmWait = 2 + kMetaKinds;
  static constexpr std::size_t kKinds = kDlmWait + 1;
  [[nodiscard]] static constexpr std::size_t meta(MetaOpKind op) noexcept {
    return 2 + static_cast<std::size_t>(op);
  }
  /// "read", "write", "meta:<op>", "dlm-wait".
  [[nodiscard]] static std::string kindName(std::size_t kind);

  struct Cell {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;  ///< payload bytes; data RPCs only
    double seconds = 0.0;     ///< summed simulated latency
    std::array<std::uint64_t, kBuckets> buckets{};  ///< latency histogram
  };
  std::array<Cell, kKinds> cells{};

  /// Records one operation of `kind` with `seconds` of simulated latency.
  void add(std::size_t kind, std::uint64_t bytes, double seconds) noexcept;

  /// Cell-wise sum (federated runs add their cells in cell order).
  RpcTally& operator+=(const RpcTally& other) noexcept;

  /// {"bounds_s": [...], "<kind>": {"count", "bytes" (data RPCs),
  ///  "seconds", "buckets"}, ...}; kinds that never occurred are omitted.
  [[nodiscard]] util::Json toJson() const;
};

}  // namespace stellar::pfs
