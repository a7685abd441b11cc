#include "dta/trace_io.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/status.hpp"
#include "util/stream.hpp"

namespace tevot::dta {

namespace {

using util::Status;
using util::StatusError;

constexpr const char* kMagic = "tevot-dtatrace v1";

std::string hexDouble(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

[[noreturn]] void parseFail(const std::string& detail) {
  throw StatusError(Status::parseError("trace parse error: " + detail));
}

double parseHexDouble(const std::string& token, const char* context) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    parseFail(std::string("bad number '") + token + "' in " + context);
  }
  if (!std::isfinite(value)) {
    parseFail(std::string("non-finite number '") + token + "' in " + context);
  }
  return value;
}

std::uint64_t parseU64(const std::string& token, const char* context) {
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    parseFail(std::string("bad integer '") + token + "' in " + context);
  }
  return value;
}

std::string nextToken(std::istream& is, const char* context) {
  std::string token;
  if (!(is >> token)) {
    parseFail(std::string("unexpected end of trace, expected ") + context);
  }
  return token;
}

void expectToken(std::istream& is, const char* literal) {
  const std::string token = nextToken(is, literal);
  if (token != literal) {
    parseFail(std::string("expected '") + literal + "', got '" + token +
              "'");
  }
}

}  // namespace

void writeTrace(std::ostream& os, const DtaTrace& trace) {
  os << kMagic << "\n";
  os << "corner " << hexDouble(trace.corner.voltage) << " "
     << hexDouble(trace.corner.temperature) << "\n";
  // The name is the remainder of the line (it may contain spaces).
  os << "workload " << trace.workload_name << "\n";
  os << "sim_events " << trace.sim_events << "\n";
  os << "samples " << trace.samples.size() << "\n";
  for (const DtaSample& s : trace.samples) {
    os << s.a << " " << s.b << " " << s.prev_a << " " << s.prev_b << " "
       << hexDouble(s.delay_ps) << " " << s.start_word << " "
       << s.settled_word << " " << s.toggles.size();
    for (const sim::ToggleEvent& t : s.toggles) {
      os << " " << hexDouble(t.time_ps) << " " << t.output_bit << " "
         << (t.value ? 1 : 0);
    }
    os << "\n";
  }
  os << "end\n";
  if (!os) {
    throw StatusError(Status::ioError("writeTrace: stream write failed"));
  }
}

DtaTrace readTrace(std::istream& is) {
  DtaTrace trace;
  std::string line;
  if (!std::getline(is, line) || line != kMagic) {
    parseFail("missing '" + std::string(kMagic) + "' header");
  }
  expectToken(is, "corner");
  trace.corner.voltage =
      parseHexDouble(nextToken(is, "corner voltage"), "corner voltage");
  trace.corner.temperature = parseHexDouble(
      nextToken(is, "corner temperature"), "corner temperature");
  expectToken(is, "workload");
  // Rest of the line (skipping the single separator space).
  if (!std::getline(is, line)) parseFail("unexpected EOF in workload name");
  trace.workload_name = line.empty() ? line : line.substr(1);
  expectToken(is, "sim_events");
  trace.sim_events = parseU64(nextToken(is, "sim_events"), "sim_events");
  expectToken(is, "samples");
  const std::uint64_t count =
      parseU64(nextToken(is, "sample count"), "sample count");
  // A sample is at least 8 one-char tokens with separators, a toggle 3.
  const std::uint64_t input_left = util::bytesLeft(is);
  trace.samples.reserve(std::min(count, input_left / 16));
  for (std::uint64_t i = 0; i < count; ++i) {
    DtaSample s;
    s.a = static_cast<std::uint32_t>(parseU64(nextToken(is, "a"), "a"));
    s.b = static_cast<std::uint32_t>(parseU64(nextToken(is, "b"), "b"));
    s.prev_a =
        static_cast<std::uint32_t>(parseU64(nextToken(is, "prev_a"), "prev_a"));
    s.prev_b =
        static_cast<std::uint32_t>(parseU64(nextToken(is, "prev_b"), "prev_b"));
    s.delay_ps = parseHexDouble(nextToken(is, "delay_ps"), "delay_ps");
    s.start_word = parseU64(nextToken(is, "start_word"), "start_word");
    s.settled_word = parseU64(nextToken(is, "settled_word"), "settled_word");
    const std::uint64_t toggles =
        parseU64(nextToken(is, "toggle count"), "toggle count");
    s.toggles.reserve(std::min(toggles, input_left / 6));
    for (std::uint64_t t = 0; t < toggles; ++t) {
      sim::ToggleEvent event{};
      event.time_ps =
          parseHexDouble(nextToken(is, "toggle time"), "toggle time");
      event.output_bit = static_cast<std::uint32_t>(
          parseU64(nextToken(is, "toggle bit"), "toggle bit"));
      event.value =
          parseU64(nextToken(is, "toggle value"), "toggle value") != 0;
      s.toggles.push_back(event);
    }
    trace.samples.push_back(std::move(s));
  }
  expectToken(is, "end");
  return trace;
}

std::string traceToString(const DtaTrace& trace) {
  std::ostringstream os;
  writeTrace(os, trace);
  return os.str();
}

DtaTrace traceFromString(const std::string& text) {
  std::istringstream is(text);
  return readTrace(is);
}

void writeTraceFileAtomic(const std::string& path, const DtaTrace& trace,
                          util::FaultInjector* faults,
                          std::string_view fault_key) {
  const std::string tmp_path = path + ".tmp";
  {
    if (faults != nullptr && faults->shouldFail("io.open", fault_key)) {
      throw StatusError(Status::ioError(
          "writeTraceFileAtomic " + tmp_path + ": injected io.open fault"));
    }
    std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw StatusError(
          util::ioErrorFor("writeTraceFileAtomic: cannot open", tmp_path,
                           errno));
    }
    writeTrace(os, trace);
    os.flush();
    const bool write_fault =
        faults != nullptr && faults->shouldFail("io.write", fault_key);
    if (!os || write_fault) {
      os.close();
      std::remove(tmp_path.c_str());
      throw StatusError(Status::ioError(
          "writeTraceFileAtomic: write failed for " + tmp_path +
          (write_fault ? ": injected io.write fault" : "")));
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const Status status =
        util::ioErrorFor("writeTraceFileAtomic: cannot rename", path, errno);
    std::remove(tmp_path.c_str());
    throw StatusError(status);
  }
}

DtaTrace readTraceFile(const std::string& path, util::FaultInjector* faults,
                       std::string_view fault_key) {
  if (faults != nullptr && faults->shouldFail("io.open", fault_key)) {
    throw StatusError(Status::ioError("readTraceFile " + path +
                                      ": injected io.open fault"));
  }
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw StatusError(
        util::ioErrorFor("readTraceFile: cannot open", path, errno));
  }
  return readTrace(is);
}

bool tracesBitIdentical(const DtaTrace& a, const DtaTrace& b) {
  if (a.corner.voltage != b.corner.voltage ||
      a.corner.temperature != b.corner.temperature) {
    return false;
  }
  if (a.workload_name != b.workload_name) return false;
  if (a.sim_events != b.sim_events) return false;
  if (a.samples.size() != b.samples.size()) return false;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const DtaSample& x = a.samples[i];
    const DtaSample& y = b.samples[i];
    if (x.a != y.a || x.b != y.b || x.prev_a != y.prev_a ||
        x.prev_b != y.prev_b) {
      return false;
    }
    if (x.delay_ps != y.delay_ps) return false;  // bit-exact
    if (x.start_word != y.start_word) return false;
    if (x.settled_word != y.settled_word) return false;
    if (x.toggles.size() != y.toggles.size()) return false;
    for (std::size_t t = 0; t < x.toggles.size(); ++t) {
      if (x.toggles[t].time_ps != y.toggles[t].time_ps ||
          x.toggles[t].output_bit != y.toggles[t].output_bit ||
          x.toggles[t].value != y.toggles[t].value) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace tevot::dta
