#include "vcd/vcd.hpp"

#include <ostream>
#include <stdexcept>
#include <string_view>

#include "util/status.hpp"
#include "util/text_io.hpp"

namespace tevot::vcd {
namespace {

// VCD identifier codes use the printable ASCII range 33..126.
constexpr int kIdBase = 94;
constexpr char kIdFirst = '!';
// Largest signal id a parsed file may use. signal_names is sized by
// the largest id, so the cap bounds what one $var line can allocate;
// real netlists stay far below it.
constexpr std::uint64_t kMaxSignalId = (1u << 20) - 1;

}  // namespace

SignalId VcdData::signal(const std::string& name) const {
  for (SignalId i = 0; i < signal_names.size(); ++i) {
    if (signal_names[i] == name) return i;
  }
  throw std::out_of_range("VcdData: no signal named '" + name + "'");
}

VcdWriter::VcdWriter(std::ostream& os, std::string module)
    : os_(os), module_(std::move(module)) {}

std::string VcdWriter::idCode(SignalId signal) const {
  std::string code;
  std::uint32_t v = signal;
  do {
    code.push_back(static_cast<char>(kIdFirst + v % kIdBase));
    v /= kIdBase;
  } while (v != 0);
  return code;
}

SignalId VcdWriter::addSignal(const std::string& name) {
  if (header_written_) {
    throw std::logic_error("VcdWriter: addSignal after beginDump");
  }
  names_.push_back(name);
  return static_cast<SignalId>(names_.size() - 1);
}

void VcdWriter::beginDump() {
  if (header_written_) throw std::logic_error("VcdWriter: double beginDump");
  os_ << "$date tevot $end\n";
  os_ << "$version tevot-vcd $end\n";
  os_ << "$timescale 1ps $end\n";
  os_ << "$scope module " << module_ << " $end\n";
  for (SignalId i = 0; i < names_.size(); ++i) {
    os_ << "$var wire 1 " << idCode(i) << " " << names_[i] << " $end\n";
  }
  os_ << "$upscope $end\n";
  os_ << "$enddefinitions $end\n";
  os_ << "$dumpvars\n";
  for (SignalId i = 0; i < names_.size(); ++i) {
    os_ << "0" << idCode(i) << "\n";
  }
  os_ << "$end\n";
  header_written_ = true;
}

void VcdWriter::change(std::uint64_t time_ps, SignalId signal, bool value) {
  if (!header_written_) throw std::logic_error("VcdWriter: no header yet");
  if (signal >= names_.size()) {
    throw std::out_of_range("VcdWriter: unknown signal");
  }
  if (time_emitted_ && time_ps < current_time_) {
    throw std::logic_error("VcdWriter: time went backwards");
  }
  if (!time_emitted_ || time_ps != current_time_) {
    os_ << "#" << time_ps << "\n";
    current_time_ = time_ps;
    time_emitted_ = true;
  }
  os_ << (value ? "1" : "0") << idCode(signal) << "\n";
}

void VcdWriter::finish(std::uint64_t end_time_ps) {
  if (!header_written_) return;
  if (!time_emitted_ || end_time_ps > current_time_) {
    os_ << "#" << end_time_ps << "\n";
  }
}

namespace {

/// The signal `code` names (VcdWriter::idCode read back). Every step
/// stays <= kMaxSignalId * kIdBase + 93, so the decode cannot wrap.
SignalId decodeId(const util::TextReader& in, std::string_view code) {
  if (code.empty()) in.fail("value change without an id code");
  std::uint64_t v = 0;
  for (auto it = code.rbegin(); it != code.rend(); ++it) {
    if (*it < kIdFirst || *it > '~') {
      in.fail("bad id code '" + std::string(code) + "'");
    }
    v = v * kIdBase + static_cast<std::uint64_t>(*it - kIdFirst);
    if (v > kMaxSignalId) {
      in.fail("id code '" + std::string(code) + "' exceeds the signal cap");
    }
  }
  return static_cast<SignalId>(v);
}

VcdData parseVcd(util::TextReader& in) {
  VcdData data;
  std::uint64_t now = 0;
  bool in_definitions = true;
  bool in_dumpvars = false;
  for (std::string_view tok = in.word(); !tok.empty(); tok = in.word()) {
    if (tok == "$date" || tok == "$version" || tok == "$timescale" ||
        tok == "$scope" || tok == "$upscope" || tok == "$comment") {
      std::string body;
      for (std::string_view word = in.word(); word != "$end";
           word = in.word()) {
        if (word.empty()) in.fail(std::string(tok) + " without $end");
        if (!body.empty()) body += ' ';
        body += word;
      }
      if (tok == "$timescale") data.timescale = std::move(body);
    } else if (tok == "$var") {
      in.word();  // type
      const std::string_view width = in.word();
      const std::string_view code = in.word();
      const std::string_view name = in.word();
      if (in.word() != "$end") in.fail("malformed $var");
      if (width != "1") in.fail("only scalar signals supported");
      const SignalId id = decodeId(in, code);
      if (id >= data.signal_names.size()) {
        data.signal_names.resize(id + 1);
      }
      if (!data.signal_names[id].empty()) {
        in.fail("id code '" + std::string(code) + "' declared twice");
      }
      data.signal_names[id] = name;
    } else if (tok == "$enddefinitions") {
      in.expect("$end");
      in_definitions = false;
    } else if (tok == "$dumpvars" || (tok == "$end" && in_dumpvars)) {
      // The initial values between them are read as value changes.
      in_dumpvars = tok == "$dumpvars";
    } else if (tok[0] == '#') {
      std::uint64_t time = 0;
      if (!util::parseInteger(tok.substr(1), &time)) {
        in.fail("bad timestamp '" + std::string(tok) + "'");
      }
      if (time < now) {
        in.fail("timestamp '" + std::string(tok) + "' before #" +
                std::to_string(now));
      }
      now = time;
    } else if (tok[0] == '0' || tok[0] == '1') {
      if (in_definitions) in.fail("value change before $enddefinitions");
      const SignalId id = decodeId(in, tok.substr(1));
      if (id >= data.signal_names.size()) {
        in.fail("change for unknown signal");
      }
      data.changes.push_back(Change{now, id, tok[0] == '1'});
    } else {
      in.fail("unexpected token '" + std::string(tok) + "'");
    }
  }
  return data;
}

}  // namespace

VcdData parseVcdString(std::string_view text) {
  util::TextReader in(text);
  try {
    return parseVcd(in);
  } catch (const util::StatusError& error) {
    throw util::StatusError(util::Status::parseError(
        "VCD parse error: " + error.status().message));
  }
}

}  // namespace tevot::vcd
