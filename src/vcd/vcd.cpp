#include "vcd/vcd.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>

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

VcdData parseVcd(std::istream& is) {
  VcdData data;
  std::vector<SignalId> id_map;  // dense decode table is built lazily
  // Every step stays <= kMaxSignalId * kIdBase + 93, so the decode
  // cannot wrap.
  auto decodeId = [](const std::string& code) -> std::uint64_t {
    std::uint64_t v = 0;
    for (auto it = code.rbegin(); it != code.rend(); ++it) {
      const char c = *it;
      if (c < kIdFirst || c > '~') {
        throw std::runtime_error("VCD parse error: bad id code '" + code +
                                 "'");
      }
      v = v * kIdBase + static_cast<std::uint64_t>(c - kIdFirst);
      if (v > kMaxSignalId) {
        throw std::runtime_error("VCD parse error: id code '" + code +
                                 "' exceeds the signal cap");
      }
    }
    return v;
  };

  std::uint64_t now = 0;
  bool in_definitions = true;
  std::string tok;
  while (is >> tok) {
    if (tok == "$date" || tok == "$version" || tok == "$timescale" ||
        tok == "$scope" || tok == "$upscope" || tok == "$comment") {
      std::string word;
      std::ostringstream body;
      while (is >> word && word != "$end") body << word << ' ';
      if (tok == "$timescale") {
        std::string ts = body.str();
        if (!ts.empty() && ts.back() == ' ') ts.pop_back();
        data.timescale = ts;
      }
    } else if (tok == "$var") {
      std::string type, width, code, name, end;
      if (!(is >> type >> width >> code >> name >> end) || end != "$end") {
        throw std::runtime_error("VCD parse error: malformed $var");
      }
      if (width != "1") {
        throw std::runtime_error(
            "VCD parse error: only scalar signals supported");
      }
      const std::uint64_t id = decodeId(code);
      if (id >= data.signal_names.size()) {
        data.signal_names.resize(id + 1);
      }
      data.signal_names[id] = name;
    } else if (tok == "$enddefinitions") {
      std::string end;
      is >> end;
      in_definitions = false;
    } else if (tok == "$dumpvars" || tok == "$end") {
      // Initial-value section markers; values inside are parsed below.
    } else if (!tok.empty() && tok[0] == '#') {
      // stoull would throw a bare std::invalid_argument (or accept
      // trailing garbage) on a corrupt timestamp; keep the error typed.
      try {
        std::size_t consumed = 0;
        now = std::stoull(tok.substr(1), &consumed);
        if (consumed != tok.size() - 1) throw std::invalid_argument(tok);
      } catch (const std::exception&) {
        throw std::runtime_error("VCD parse error: bad timestamp '" + tok +
                                 "'");
      }
    } else if (!tok.empty() && (tok[0] == '0' || tok[0] == '1')) {
      if (in_definitions) {
        throw std::runtime_error(
            "VCD parse error: value change before $enddefinitions");
      }
      const bool value = tok[0] == '1';
      const std::uint64_t id = decodeId(tok.substr(1));
      if (id >= data.signal_names.size()) {
        throw std::runtime_error("VCD parse error: change for unknown signal");
      }
      data.changes.push_back(
          Change{now, static_cast<SignalId>(id), value});
    } else {
      throw std::runtime_error("VCD parse error: unexpected token '" + tok +
                               "'");
    }
  }
  (void)id_map;
  return data;
}

VcdData parseVcdString(const std::string& text) {
  std::istringstream is(text);
  return parseVcd(is);
}

}  // namespace tevot::vcd
