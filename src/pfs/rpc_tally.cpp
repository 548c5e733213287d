#include "pfs/rpc_tally.hpp"

#include <algorithm>
#include <vector>

#include "obs/counters.hpp"

namespace stellar::pfs {
namespace {

const std::vector<double>& latencyBounds() {
  static const std::vector<double> bounds = obs::Histogram::defaultBounds();
  return bounds;
}

}  // namespace

std::string RpcTally::kindName(std::size_t kind) {
  switch (kind) {
    case kRead: return "read";
    case kWrite: return "write";
    case kDlmWait: return "dlm-wait";
    default: return std::string("meta:") + metaOpName(static_cast<MetaOpKind>(kind - 2));
  }
}

void RpcTally::add(std::size_t kind, std::uint64_t bytes, double seconds) noexcept {
  const std::vector<double>& bounds = latencyBounds();
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), seconds) - bounds.begin());
  Cell& cell = cells[kind];
  ++cell.count;
  cell.bytes += bytes;
  cell.seconds += seconds;
  ++cell.buckets[std::min(bucket, kBuckets - 1)];
}

RpcTally& RpcTally::operator+=(const RpcTally& other) noexcept {
  for (std::size_t k = 0; k < kKinds; ++k) {
    Cell& into = cells[k];
    const Cell& from = other.cells[k];
    into.count += from.count;
    into.bytes += from.bytes;
    into.seconds += from.seconds;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      into.buckets[b] += from.buckets[b];
    }
  }
  return *this;
}

util::Json RpcTally::toJson() const {
  const auto number = [](std::uint64_t v) {
    return util::Json(static_cast<std::int64_t>(v));
  };
  util::Json out = util::Json::makeObject();
  util::Json bounds = util::Json::makeArray();
  for (const double b : latencyBounds()) {
    bounds.push(util::Json(b));
  }
  out.set("bounds_s", std::move(bounds));
  for (std::size_t k = 0; k < kKinds; ++k) {
    const Cell& cell = cells[k];
    if (cell.count == 0) {
      continue;
    }
    util::Json entry = util::Json::makeObject();
    entry.set("count", number(cell.count));
    if (k == kRead || k == kWrite) {
      entry.set("bytes", number(cell.bytes));
    }
    entry.set("seconds", util::Json(cell.seconds));
    util::Json buckets = util::Json::makeArray();
    for (const std::uint64_t n : cell.buckets) {
      buckets.push(number(n));
    }
    entry.set("buckets", std::move(buckets));
    out.set(kindName(k), std::move(entry));
  }
  return out;
}

}  // namespace stellar::pfs
