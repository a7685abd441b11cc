#include "dta/trace_io.hpp"

#include <algorithm>
#include <sstream>

#include "util/status.hpp"
#include "util/text_io.hpp"

namespace tevot::dta {

namespace {

void writeTrace(util::TextWriter& out, const DtaTrace& trace) {
  out.text("tevot-dtatrace v1\ncorner ").hexDouble(trace.corner.voltage);
  out.text(" ").hexDouble(trace.corner.temperature).text("\n");
  // The name is the remainder of the line (it may contain spaces).
  out.text("workload ").text(trace.workload_name).text("\n");
  out.text("sim_events ").number(trace.sim_events).text("\n");
  out.text("samples ").number(trace.samples.size()).text("\n");
  for (const DtaSample& s : trace.samples) {
    out.number(s.a).text(" ").number(s.b).text(" ").number(s.prev_a);
    out.text(" ").number(s.prev_b).text(" ").hexDouble(s.delay_ps);
    out.text(" ").number(s.start_word).text(" ").number(s.settled_word);
    out.text(" ").number(s.toggles.size());
    for (const sim::ToggleEvent& t : s.toggles) {
      out.text(" ").hexDouble(t.time_ps).text(" ").number(t.output_bit);
      out.text(t.value ? " 1" : " 0");
    }
    out.text("\n");
  }
  out.text("end\n");
}

DtaTrace readTrace(util::TextReader& in) {
  DtaTrace trace;
  in.expect("tevot-dtatrace");
  in.expect("v1");
  in.expect("corner");
  trace.corner.voltage = in.hexDouble("corner voltage");
  trace.corner.temperature = in.hexDouble("corner temperature");
  in.expect("workload");
  // The rest of the line after its one separator.
  const std::string_view name = in.restOfLine();
  trace.workload_name = name.substr(name.empty() ? 0 : 1);
  in.expect("sim_events");
  trace.sim_events = in.integer<std::uint64_t>("sim_events");
  in.expect("samples");
  const auto count = in.integer<std::size_t>("sample count");
  // A sample is at least 8 one-char tokens with separators, a toggle 3.
  trace.samples.reserve(std::min(count, in.bytesLeft() / 16));
  for (std::size_t i = 0; i < count; ++i) {
    DtaSample& s = trace.samples.emplace_back();
    s.a = in.integer<std::uint32_t>("a");
    s.b = in.integer<std::uint32_t>("b");
    s.prev_a = in.integer<std::uint32_t>("prev_a");
    s.prev_b = in.integer<std::uint32_t>("prev_b");
    s.delay_ps = in.hexDouble("delay_ps");
    s.start_word = in.integer<std::uint64_t>("start_word");
    s.settled_word = in.integer<std::uint64_t>("settled_word");
    const auto toggles = in.integer<std::size_t>("toggle count");
    s.toggles.reserve(std::min(toggles, in.bytesLeft() / 6));
    // sim::latchWord stops at the first toggle past the clock, so the
    // log must be in time order from the cycle start.
    double earliest = 0.0;
    for (std::size_t t = 0; t < toggles; ++t) {
      sim::ToggleEvent& event = s.toggles.emplace_back();
      event.time_ps = in.hexDouble("toggle time");
      if (event.time_ps < earliest) {
        in.fail("toggle time before the cycle start or the previous "
                "toggle");
      }
      earliest = event.time_ps;
      event.output_bit = in.integer<std::uint32_t>("toggle bit");
      event.value = in.integer<int>("toggle value", 0, 1) == 1;
    }
  }
  in.expectLastLine("end");
  return trace;
}

}  // namespace

std::string traceToString(const DtaTrace& trace) {
  std::ostringstream os;
  {
    util::TextWriter out(os);
    writeTrace(out, trace);
  }
  return os.str();
}

DtaTrace traceFromString(std::string_view text) {
  util::TextReader in(text);
  try {
    return readTrace(in);
  } catch (const util::StatusError& error) {
    throw util::StatusError(
        util::Status::parseError("trace: " + error.status().message));
  }
}

void writeTraceFileAtomic(const std::string& path, const DtaTrace& trace,
                          util::FaultInjector* faults,
                          std::string_view fault_key) {
  util::writeFileAtomic(
      path, "writeTraceFileAtomic",
      [&](util::TextWriter& out) { writeTrace(out, trace); }, faults,
      fault_key);
}

DtaTrace readTraceFile(const std::string& path, util::FaultInjector* faults,
                       std::string_view fault_key) {
  if (faults != nullptr && faults->shouldFail("io.open", fault_key)) {
    throw util::StatusError(util::Status::ioError(
        "readTraceFile " + path + ": injected io.open fault"));
  }
  return traceFromString(util::readFile(path, "readTraceFile"));
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
