#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "util/file.hpp"

namespace stellar::obs {
namespace {

/// Output file of writeChromeTrace: callers format into buffer(), which
/// goes to the file in ~1 MiB fwrite calls. Failures throw
/// std::runtime_error with util::writeFile's messages.
class BufferedFile {
 public:
  explicit BufferedFile(std::string path)
      : path_(std::move(path)), file_(std::fopen(path_.c_str(), "wb")) {
    if (file_ == nullptr) {
      throw std::runtime_error("cannot open file for writing: " + path_);
    }
    buffer_.reserve(kFlushBytes + kFlushBytes / 16);
  }
  ~BufferedFile() {
    if (file_ != nullptr) {
      (void)std::fclose(file_);  // error path: the write already threw
    }
  }
  BufferedFile(const BufferedFile&) = delete;
  BufferedFile& operator=(const BufferedFile&) = delete;

  [[nodiscard]] std::string& buffer() noexcept { return buffer_; }

  void flushIfFull() {
    if (buffer_.size() >= kFlushBytes) {
      flush();
    }
  }

  /// Writes what is buffered and closes the file; the trace is complete
  /// only if this returns.
  void close() {
    flush();
    std::FILE* file = file_;
    file_ = nullptr;
    if (std::fclose(file) != 0) {
      fail();
    }
  }

 private:
  static constexpr std::size_t kFlushBytes = std::size_t{1} << 20;

  void flush() {
    if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_) != buffer_.size()) {
      fail();
    }
    buffer_.clear();
  }

  [[noreturn]] void fail() const {
    throw std::runtime_error("error while writing file: " + path_);
  }

  std::string path_;
  std::FILE* file_;
  std::string buffer_;
};

/// One traceEvents element, laid out as util::Json::dump(1) lays out the
/// event object two levels deep. Args collapse duplicate keys the way
/// Json::set does: the first occurrence's position, the last one's value.
void appendChromeEvent(std::string& out, const TraceRecord& record) {
  out += "{\n   \"name\": ";
  util::appendJsonString(out, record.name);
  out += ",\n   \"cat\": ";
  util::appendJsonString(out, record.category);
  out += ",\n   \"pid\": 1,\n   \"tid\": ";
  util::appendJsonNumber(out, static_cast<double>(record.tid));
  out += ",\n   \"ts\": ";
  util::appendJsonNumber(out, record.startUs);
  if (record.phase == TraceRecord::Phase::Span) {
    out += ",\n   \"ph\": \"X\",\n   \"dur\": ";
    util::appendJsonNumber(out, record.durUs);
  } else {
    out += ",\n   \"ph\": \"i\",\n   \"s\": \"t\"";  // thread-scoped instant
  }
  const std::vector<TraceArg>& args = record.args;
  if (!args.empty()) {
    out += ",\n   \"args\": {";
    for (auto it = args.begin(); it != args.end(); ++it) {
      const auto sameKey = [&key = it->key](const TraceArg& arg) {
        return arg.key == key;
      };
      if (std::any_of(args.begin(), it, sameKey)) {
        continue;  // emitted at its first occurrence
      }
      out += it == args.begin() ? "\n    " : ",\n    ";
      util::appendJsonString(out, it->key);
      out += ": ";
      std::find_if(args.rbegin(), args.rend(), sameKey)->value.dumpTo(out, 1, 4);
    }
    out += "\n   }";
  }
  out += "\n  }";
}

util::Json argsObject(const std::vector<TraceArg>& args) {
  util::Json obj = util::Json::makeObject();
  for (const TraceArg& arg : args) {
    obj.set(arg.key, arg.value);
  }
  return obj;
}

util::Json recordJson(const TraceRecord& record) {
  util::Json obj = util::Json::makeObject();
  obj.set("type", record.phase == TraceRecord::Phase::Span ? "span" : "instant");
  obj.set("cat", record.category);
  obj.set("name", record.name);
  obj.set("ts", record.startUs);
  obj.set("dur", record.durUs);
  obj.set("tid", static_cast<std::int64_t>(record.tid));
  obj.set("depth", static_cast<std::int64_t>(record.depth));
  if (!record.args.empty()) {
    obj.set("args", argsObject(record.args));
  }
  return obj;
}

}  // namespace

std::string toJsonl(const std::vector<TraceRecord>& records) {
  std::string out;
  for (const TraceRecord& record : records) {
    out += recordJson(record).dump();
    out += '\n';
  }
  return out;
}

std::vector<TraceRecord> fromJsonl(const std::string& text) {
  std::vector<TraceRecord> records;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    const std::string_view line{text.data() + pos, eol - pos};
    pos = eol + 1;
    if (line.empty()) {
      continue;
    }
    util::Json obj;
    try {
      obj = util::Json::parse(line);
    } catch (const util::JsonError& e) {
      throw util::JsonError("jsonl record " + std::to_string(records.size() + 1) +
                            ": " + e.what());
    }
    TraceRecord record;
    record.phase = obj.getString("type") == "instant" ? TraceRecord::Phase::Instant
                                                      : TraceRecord::Phase::Span;
    record.category = obj.getString("cat");
    record.name = obj.getString("name");
    record.startUs = obj.getNumber("ts");
    record.durUs = obj.getNumber("dur");
    record.tid = static_cast<std::uint32_t>(obj.getNumber("tid"));
    record.depth = static_cast<std::uint32_t>(obj.getNumber("depth"));
    if (obj.contains("args")) {
      for (const auto& [key, value] : obj.at("args").asObject()) {
        record.args.push_back(TraceArg{key, value});
      }
    }
    records.push_back(std::move(record));
  }
  return records;
}

void writeChromeTrace(const Tracer& tracer, const std::string& path) {
  BufferedFile file{path};
  std::string& out = file.buffer();
  out += "{\n \"traceEvents\": [";
  bool first = true;
  tracer.forEach([&](const TraceRecord& record) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    appendChromeEvent(out, record);
    file.flushIfFull();
  });
  out += first ? "]" : "\n ]";
  out += ",\n \"displayTimeUnit\": \"ms\",\n \"otherData\": {\n  \"capacity\": ";
  util::appendJsonNumber(out, static_cast<double>(tracer.capacity()));
  out += ",\n  \"recorded\": ";
  util::appendJsonNumber(out, static_cast<double>(tracer.recorded()));
  out += ",\n  \"dropped\": ";
  util::appendJsonNumber(out, static_cast<double>(tracer.dropped()));
  out += "\n }\n}";
  file.close();
}

void writeCountersJson(const CounterRegistry& registry, const std::string& path) {
  util::writeFile(path, registry.toJson().dump(2));
}

}  // namespace stellar::obs
