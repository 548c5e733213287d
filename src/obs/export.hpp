// Trace/metric exporters.
//
//  - JSONL: one JSON object per line, lossless (fromJsonl round-trips);
//    the archival format for trace diffing between PRs.
//  - Chrome trace ("chrome://tracing" / Perfetto JSON): spans become
//    complete ("X") events, instants become "i" events; open the file
//    directly in the trace viewer. writeChromeTrace streams the document
//    straight from the tracer's ring (Tracer::forEach) into a buffered
//    file, with no record copy and no util::Json document; the bytes are
//    those util::Json::dump(1) gives for the same document. A top-level
//    "otherData" object records the tracer's capacity and its recorded and
//    dropped counts, so a trace whose ring wrapped says so itself.
//  - Counter registry: the toJson() document written via util::file.
#pragma once

#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace stellar::obs {

/// Lossless line-per-record serialization.
[[nodiscard]] std::string toJsonl(const std::vector<TraceRecord>& records);

/// Parses toJsonl output (blank lines ignored). Throws util::JsonError on
/// malformed lines.
[[nodiscard]] std::vector<TraceRecord> fromJsonl(const std::string& text);

/// Writes {"traceEvents": [...], "displayTimeUnit": "ms", "otherData":
/// {"capacity", "recorded", "dropped"}} for `tracer`. The events are
/// written under the tracer's mutex; the counts are read after them.
/// Throws std::runtime_error on open, write or close failure.
void writeChromeTrace(const Tracer& tracer, const std::string& path);

/// Writes registry.toJson() (util::file; throws std::runtime_error on I/O).
void writeCountersJson(const CounterRegistry& registry, const std::string& path);

}  // namespace stellar::obs
