#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "util/file.hpp"
#include "util/json.hpp"

namespace obs = stellar::obs;
using stellar::util::Json;

namespace {

void recordSample(obs::Tracer& tracer) {
  obs::Tracer::Span outer = tracer.span("tuning", "tune:IOR_64K");
  obs::Tracer::Span inner = tracer.span("sim", "event-loop");
  tracer.instant("rpc", "write",
                 {{"ost", Json(static_cast<std::int64_t>(2))},
                  {"bytes", Json(65536.0)}});
}

std::vector<obs::TraceRecord> sampleRecords() {
  obs::Tracer tracer;
  recordSample(tracer);
  return tracer.snapshot();
}

// ---- reference: the whole-document exporter the streaming writer replaced

Json argsObject(const std::vector<obs::TraceArg>& args) {
  Json obj = Json::makeObject();
  for (const obs::TraceArg& arg : args) {
    obj.set(arg.key, arg.value);
  }
  return obj;
}

Json toChromeTrace(const std::vector<obs::TraceRecord>& records) {
  Json events = Json::makeArray();
  for (const obs::TraceRecord& record : records) {
    Json event = Json::makeObject();
    event.set("name", record.name);
    event.set("cat", record.category);
    event.set("pid", 1);
    event.set("tid", static_cast<std::int64_t>(record.tid));
    event.set("ts", record.startUs);
    if (record.phase == obs::TraceRecord::Phase::Span) {
      event.set("ph", "X");
      event.set("dur", record.durUs);
    } else {
      event.set("ph", "i");
      event.set("s", "t");
    }
    if (!record.args.empty()) {
      event.set("args", argsObject(record.args));
    }
    events.push(std::move(event));
  }
  Json root = Json::makeObject();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ms");
  return root;
}

Json referenceChromeTrace(const obs::Tracer& tracer) {
  Json root = toChromeTrace(tracer.snapshot());
  Json other = Json::makeObject();
  other.set("capacity", static_cast<std::int64_t>(tracer.capacity()));
  other.set("recorded", static_cast<std::int64_t>(tracer.recorded()));
  other.set("dropped", static_cast<std::int64_t>(tracer.dropped()));
  root.set("otherData", std::move(other));
  return root;
}

std::string tracePath(const std::string& name) {
  return (std::filesystem::path{::testing::TempDir()} / ("export_" + name + ".json"))
      .string();
}

/// Streams `tracer` to a file and returns the file's bytes.
std::string streamed(const obs::Tracer& tracer, const std::string& name) {
  const std::string path = tracePath(name);
  obs::writeChromeTrace(tracer, path);
  return stellar::util::readFile(path);
}

void expectMatchesReference(const obs::Tracer& tracer, const std::string& name) {
  EXPECT_EQ(streamed(tracer, name), referenceChromeTrace(tracer).dump(1));
}

}  // namespace

TEST(Export, JsonlRoundTripsLosslessly) {
  const std::vector<obs::TraceRecord> records = sampleRecords();
  const std::string jsonl = toJsonl(records);
  // One line per record.
  std::size_t lines = 0;
  for (char c : jsonl) {
    lines += c == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, records.size());

  const std::vector<obs::TraceRecord> parsed = obs::fromJsonl(jsonl);
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed[i].phase, records[i].phase);
    EXPECT_EQ(parsed[i].category, records[i].category);
    EXPECT_EQ(parsed[i].name, records[i].name);
    // Timestamps survive to the JSON writer's precision (sub-nanosecond
    // at microsecond scale), not bit-exactly.
    EXPECT_NEAR(parsed[i].startUs, records[i].startUs, 1e-6);
    EXPECT_NEAR(parsed[i].durUs, records[i].durUs, 1e-6);
    EXPECT_EQ(parsed[i].tid, records[i].tid);
    EXPECT_EQ(parsed[i].depth, records[i].depth);
    ASSERT_EQ(parsed[i].args.size(), records[i].args.size());
    for (std::size_t j = 0; j < records[i].args.size(); ++j) {
      EXPECT_EQ(parsed[i].args[j].key, records[i].args[j].key);
      EXPECT_TRUE(parsed[i].args[j].value == records[i].args[j].value);
    }
  }
}

TEST(Export, FromJsonlSkipsBlankLinesAndThrowsOnGarbage) {
  EXPECT_TRUE(obs::fromJsonl("\n\n").empty());
  EXPECT_THROW((void)obs::fromJsonl("not json\n"), stellar::util::JsonError);
}

TEST(Export, ChromeTraceShape) {
  obs::Tracer tracer;
  recordSample(tracer);
  const Json doc = Json::parse(streamed(tracer, "shape"));
  ASSERT_TRUE(doc.contains("traceEvents"));
  EXPECT_EQ(doc.getString("displayTimeUnit"), "ms");
  const auto& events = doc.at("traceEvents").asArray();
  ASSERT_EQ(events.size(), 3u);

  bool sawSpan = false;
  bool sawInstant = false;
  for (const Json& event : events) {
    EXPECT_FALSE(event.getString("name").empty());
    EXPECT_FALSE(event.getString("cat").empty());
    EXPECT_EQ(event.getNumber("pid"), 1.0);
    const std::string ph = event.getString("ph");
    if (ph == "X") {
      sawSpan = true;
      EXPECT_TRUE(event.contains("dur"));
    } else {
      ASSERT_EQ(ph, "i");
      sawInstant = true;
      EXPECT_EQ(event.getString("s"), "t");
      EXPECT_FALSE(event.contains("dur"));
    }
  }
  EXPECT_TRUE(sawSpan);
  EXPECT_TRUE(sawInstant);

  // Instant args survive export.
  const Json& instant = events[0];  // chronological: instant committed first
  ASSERT_TRUE(instant.contains("args"));
  EXPECT_EQ(instant.at("args").getNumber("ost"), 2.0);
  EXPECT_EQ(instant.at("args").getNumber("bytes"), 65536.0);
}

TEST(Export, ChromeTraceDumpParsesBack) {
  // The file must be valid JSON with the structure chrome://tracing
  // expects at the top level.
  obs::Tracer tracer;
  recordSample(tracer);
  const Json parsed = Json::parse(streamed(tracer, "parses"));
  ASSERT_TRUE(parsed.contains("traceEvents"));
  EXPECT_TRUE(parsed.at("traceEvents").isArray());
}

TEST(Export, ChromeTraceRecordsItsOwnDropCount) {
  obs::Tracer tracer{{.enabled = true, .capacity = 4}};
  for (int i = 0; i < 11; ++i) {
    tracer.instant("rpc", "op-" + std::to_string(i));
  }
  ASSERT_EQ(tracer.dropped(), 7u);
  const Json doc = Json::parse(streamed(tracer, "dropped"));
  const Json& other = doc.at("otherData");
  EXPECT_EQ(other.getNumber("capacity"), static_cast<double>(tracer.capacity()));
  EXPECT_EQ(other.getNumber("recorded"), static_cast<double>(tracer.recorded()));
  EXPECT_EQ(other.getNumber("dropped"), static_cast<double>(tracer.dropped()));
  // The ring kept the newest records, oldest first.
  const auto& events = doc.at("traceEvents").asArray();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().getString("name"), "op-7");
  EXPECT_EQ(events.back().getString("name"), "op-10");
}

TEST(Export, StreamedChromeTraceMatchesReferenceWhenEmpty) {
  const obs::Tracer tracer;
  expectMatchesReference(tracer, "empty");
}

TEST(Export, StreamedChromeTraceMatchesReferenceOnWrappedRing) {
  obs::Tracer tracer{{.enabled = true, .capacity = 5}};
  for (int i = 0; i < 13; ++i) {
    obs::Tracer::Span span = tracer.span("sim", "drain-" + std::to_string(i));
    span.arg("events", Json(static_cast<std::int64_t>(i * 1000)));
    tracer.instant("rpc", "write", {{"ost", Json(i % 3)}});
  }
  ASSERT_GT(tracer.dropped(), 0u);
  expectMatchesReference(tracer, "wrapped");
}

TEST(Export, StreamedChromeTraceMatchesReferenceOnSpansAndInstants) {
  obs::Tracer tracer;
  recordSample(tracer);
  {
    obs::Tracer::Span bare = tracer.span("harness", "repeat");
  }
  tracer.instant("lock", "wait");
  expectMatchesReference(tracer, "spans");
}

TEST(Export, StreamedChromeTraceMatchesReferenceAcrossBufferFlushes) {
  // ~6 MB of events: the writer hands its buffer to the file several times.
  obs::Tracer tracer{{.enabled = true, .capacity = 1 << 15}};
  for (int i = 0; i < 30000; ++i) {
    tracer.instant("rpc", "write", {{"ost", Json(i % 7)}, {"bytes", Json(65536.0 * i)}});
  }
  expectMatchesReference(tracer, "flushes");
}

TEST(Export, StreamedChromeTraceMatchesReferenceOnEveryArgType) {
  obs::Tracer tracer;
  Json nestedArray = Json::makeArray();
  nestedArray.push(1);
  nestedArray.push("two");
  nestedArray.push(Json::makeArray());
  Json inner = Json::makeObject();
  inner.set("deep", Json{Json::Array{Json{true}, Json{nullptr}, Json{0.25}}});
  nestedArray.push(inner);
  Json nestedObject = Json::makeObject();
  nestedObject.set("list", nestedArray);
  nestedObject.set("empty", Json::makeObject());
  nestedObject.set("name", "x");
  tracer.instant("tuning", "decision",
                 {{"null", Json{}},
                  {"yes", Json{true}},
                  {"no", Json{false}},
                  {"int", Json{42}},
                  {"real", Json{3.14159}},
                  {"text", Json{"hello"}},
                  {"array", nestedArray},
                  {"empty-array", Json::makeArray()},
                  {"object", nestedObject}});
  {
    obs::Tracer::Span span = tracer.span("tuning", "iteration:0");
    span.arg("config", nestedObject);
  }
  expectMatchesReference(tracer, "argtypes");
}

TEST(Export, StreamedChromeTraceMatchesReferenceOnEscapedStrings) {
  obs::Tracer tracer;
  const std::string nasty = std::string{"q\"uo\\te/\n\t\r\b\f"} + '\x01' + '\x1f' +
                            '\x7f' + "caf\xc3\xa9" + std::string(1, '\0') + "end";
  tracer.instant("rpc\"\\", nasty, {{nasty, Json{nasty}}, {"plain", Json{"a\\b"}}});
  {
    obs::Tracer::Span span = tracer.span("sim", "tab\there");
    span.arg("key\nline", Json{"\x02"});
  }
  expectMatchesReference(tracer, "escapes");
}

TEST(Export, StreamedChromeTraceMatchesReferenceOnDuplicateArgKeys) {
  obs::Tracer tracer;
  tracer.instant("rpc", "dups",
                 {{"a", Json{1}}, {"b", Json{2}}, {"a", Json{"three"}}, {"c", Json{4}},
                  {"b", Json::makeArray()}, {"a", Json{5}}});
  {
    obs::Tracer::Span span = tracer.span("sim", "dup-span");
    span.arg("k", Json{1});
    span.arg("k", Json{2});
  }
  expectMatchesReference(tracer, "dups");
}

TEST(Export, StreamedChromeTraceMatchesReferenceOnNumberEdges) {
  obs::Tracer tracer;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> numbers = {
      9e15 - 1, 9e15,    9e15 + 1, -9e15 + 1, -9e15,          -9e15 - 1,
      -0.0,     0.0,     1e-7,     -1e-7,     0.1,            1.0 / 3,
      1e300,    -1e-300, 4.94e-324, 65536.0,  123456789012.5, 9007199254740993.0,
      std::nan(""), -std::nan(""), inf, -inf};
  std::vector<obs::TraceArg> args;
  for (std::size_t i = 0; i < numbers.size(); ++i) {
    args.push_back({"n" + std::to_string(i), Json{numbers[i]}});
  }
  tracer.instant("sim", "numbers", args);
  tracer.instant("sim", "as-array",
                 {{"all", Json{Json::Array(numbers.begin(), numbers.end())}}});
  expectMatchesReference(tracer, "numbers");
}

TEST(Export, WriteChromeTraceThrowsOnIoErrors) {
  const obs::Tracer empty;
  const std::filesystem::path missingDir =
      std::filesystem::path{::testing::TempDir()} / "export_no_such_dir";
  EXPECT_THROW(obs::writeChromeTrace(empty, (missingDir / "t.json").string()),
               std::runtime_error);

  // /dev/full fails every write with ENOSPC: a small trace fails when
  // fclose flushes stdio's buffer, a large one at its first 1 MiB fwrite.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this platform";
  }
  EXPECT_THROW(obs::writeChromeTrace(empty, "/dev/full"), std::runtime_error);
  obs::Tracer large{{.enabled = true, .capacity = 1 << 14}};
  for (int i = 0; i < 12000; ++i) {
    large.instant("rpc", "write", {{"ost", Json(i % 7)}, {"bytes", Json(65536.0 * i)}});
  }
  EXPECT_THROW(obs::writeChromeTrace(large, "/dev/full"), std::runtime_error);
}
