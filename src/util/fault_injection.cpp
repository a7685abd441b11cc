#include "util/fault_injection.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/env.hpp"
#include "util/status.hpp"
#include "util/text_io.hpp"

namespace tevot::util {

namespace {

/// FNV-1a over bytes, then a splitmix64 finalizer — enough mixing to
/// turn (seed, point, key) into an unbiased uniform draw.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hashBytes(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

std::string siteKey(std::string_view point, std::string_view key) {
  std::string site(point);
  site.push_back('\0');
  site.append(key);
  return site;
}

}  // namespace

std::string FaultPlan::spec() const {
  std::ostringstream os;
  os << "points=";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) os << '|';
    os << points[i];
  }
  os << ";rate=" << rate << ";seed=" << seed
     << ";attempts=" << fail_attempts << ";slow-ms=" << slow_ms;
  return os.str();
}

void FaultInjector::arm(const FaultPlan& plan) {
  std::lock_guard lock(mutex_);
  plan_ = plan;
  armed_ = plan.enabled();
  attempts_.clear();
}

void FaultInjector::disarm() {
  std::lock_guard lock(mutex_);
  armed_ = false;
  plan_ = FaultPlan{};
  attempts_.clear();
}

bool FaultInjector::armed() const {
  std::lock_guard lock(mutex_);
  return armed_;
}

FaultPlan FaultInjector::plan() const {
  std::lock_guard lock(mutex_);
  return plan_;
}

bool FaultInjector::pointArmed(std::string_view point) const {
  std::lock_guard lock(mutex_);
  if (!armed_) return false;
  return std::find(plan_.points.begin(), plan_.points.end(), point) !=
         plan_.points.end();
}

bool FaultInjector::siteIsFaulty(std::string_view point,
                                 std::string_view key) const {
  std::lock_guard lock(mutex_);
  if (!armed_) return false;
  if (std::find(plan_.points.begin(), plan_.points.end(), point) ==
      plan_.points.end()) {
    return false;
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  h = hashBytes(h, point);
  h = hashBytes(h, "\0");
  h = hashBytes(h, key);
  const std::uint64_t draw = mix64(h ^ mix64(plan_.seed));
  // Top 53 bits -> uniform double in [0, 1).
  const double u =
      static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);
  return u < plan_.rate;
}

bool FaultInjector::shouldFail(std::string_view point, std::string_view key) {
  if (!siteIsFaulty(point, key)) return false;
  std::lock_guard lock(mutex_);
  const int attempt = ++attempts_[siteKey(point, key)];
  return attempt <= plan_.fail_attempts;
}

void FaultInjector::maybeThrow(std::string_view point, std::string_view key) {
  if (shouldFail(point, key)) {
    throw StatusError(Status::faultInjected(
        "injected fault at " + std::string(point) + " for " +
        std::string(key)));
  }
}

bool FaultInjector::maybeDelay(std::string_view point, std::string_view key) {
  if (!shouldFail(point, key)) return false;
  const double ms = plan().slow_ms;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<long>(ms * 1000.0)));
  return true;
}

int FaultInjector::attemptCount(std::string_view point,
                                std::string_view key) const {
  std::lock_guard lock(mutex_);
  const auto it = attempts_.find(siteKey(point, key));
  return it == attempts_.end() ? 0 : it->second;
}

void FaultInjector::resetCounters() {
  std::lock_guard lock(mutex_);
  attempts_.clear();
}

FaultPlan FaultInjector::planFromSpec(const std::string& spec) {
  FaultPlan plan;
  std::string pair;
  // Pairs are ';'- or ','-separated; normalize ',' first.
  std::string normalized = spec;
  std::replace(normalized.begin(), normalized.end(), ',', ';');
  std::istringstream stream(normalized);
  while (std::getline(stream, pair, ';')) {
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("fault spec: expected key=value in '" +
                                  pair + "'");
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    const auto bad = [&] {
      return std::invalid_argument("fault spec: bad " + key + " '" + value +
                                   "'");
    };
    if (key == "points") {
      std::istringstream points(value);
      std::string point;
      while (std::getline(points, point, '|')) {
        if (!point.empty()) plan.points.push_back(point);
      }
      if (plan.points.empty()) {
        throw std::invalid_argument("fault spec: empty points list");
      }
    } else if (key == "rate") {
      if (!parseDecimal(std::string_view(value), &plan.rate) ||
          plan.rate < 0.0 || plan.rate > 1.0) {
        throw bad();
      }
    } else if (key == "seed") {
      if (!parseInteger(std::string_view(value), &plan.seed)) throw bad();
    } else if (key == "attempts") {
      if (!parseInteger(std::string_view(value), &plan.fail_attempts) ||
          plan.fail_attempts < 1) {
        throw bad();
      }
    } else if (key == "slow-ms" || key == "slow_ms") {
      if (!parseDecimal(std::string_view(value), &plan.slow_ms) ||
          plan.slow_ms < 0.0) {
        throw bad();
      }
    } else {
      throw std::invalid_argument("fault spec: unknown key '" + key + "'");
    }
  }
  return plan;
}

FaultInjector& FaultInjector::global() {
  static FaultInjector* injector = [] {
    auto* instance = new FaultInjector();
    const std::string spec = envString("TEVOT_FAULTS", "");
    if (!spec.empty()) instance->arm(planFromSpec(spec));
    return instance;
  }();
  return *injector;
}

}  // namespace tevot::util
