#include "lint/waiver.hpp"

#include <sstream>
#include <stdexcept>

#include "util/text_io.hpp"

namespace tevot::lint {

bool waiverPatternMatches(std::string_view pattern,
                          std::string_view location) {
  if (!pattern.empty() && pattern.back() == '*') {
    const std::string_view prefix = pattern.substr(0, pattern.size() - 1);
    return location.substr(0, prefix.size()) == prefix;
  }
  return pattern == location;
}

WaiverSet WaiverSet::parseString(const std::string& text) {
  std::istringstream is(text);
  WaiverSet set;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::string comment;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      comment = line.substr(hash + 1);
      // Trim the comment's surrounding whitespace.
      const std::size_t first = comment.find_first_not_of(" \t");
      comment = first == std::string::npos ? "" : comment.substr(first);
      const std::size_t last = comment.find_last_not_of(" \t\r");
      if (last != std::string::npos) comment.resize(last + 1);
      line.resize(hash);
    }
    std::istringstream fields(line);
    Waiver waiver;
    waiver.comment = std::move(comment);
    waiver.line = line_no;
    if (!(fields >> waiver.rule)) continue;  // blank / comment-only
    if (!(fields >> waiver.pattern)) {
      throw std::runtime_error("waiver line " + std::to_string(line_no) +
                               ": expected `<rule> <location>`, got only `" +
                               waiver.rule + "`");
    }
    std::string extra;
    if (fields >> extra) {
      throw std::runtime_error("waiver line " + std::to_string(line_no) +
                               ": unexpected trailing field `" + extra + "`");
    }
    set.waivers_.push_back(std::move(waiver));
  }
  set.used_.assign(set.waivers_.size(), false);
  return set;
}

WaiverSet WaiverSet::parseFile(const std::string& path) {
  return parseString(util::readFile(path, "waiver file"));
}

bool WaiverSet::matches(const Finding& finding) {
  bool matched = false;
  for (std::size_t i = 0; i < waivers_.size(); ++i) {
    if (waivers_[i].rule == finding.rule &&
        waiverPatternMatches(waivers_[i].pattern, finding.location)) {
      used_[i] = true;
      matched = true;
    }
  }
  return matched;
}

std::vector<Waiver> WaiverSet::unused() const {
  std::vector<Waiver> result;
  for (std::size_t i = 0; i < waivers_.size(); ++i) {
    if (!used_[i]) result.push_back(waivers_[i]);
  }
  return result;
}

}  // namespace tevot::lint
