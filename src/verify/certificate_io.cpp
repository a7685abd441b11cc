#include "verify/certificate_io.hpp"

#include <cmath>
#include <tuple>
#include <utility>

#include "util/json.hpp"
#include "util/text_io.hpp"

namespace tevot::verify {

namespace {

using util::json::Value;

const Value& field(const Value& object, const std::string& key,
                   Value::Kind kind, const char* kind_name) {
  const Value* value = object.find(key);
  if (value == nullptr) {
    throw util::StatusError(util::Status::parseError(
        "certificate JSON: missing field '" + key + "'"));
  }
  if (value->kind != kind) {
    throw util::StatusError(util::Status::parseError(
        "certificate JSON: field '" + key + "' is not " + kind_name));
  }
  return *value;
}

double numberField(const Value& object, const std::string& key) {
  const double value =
      field(object, key, Value::Kind::kNumber, "a number").number;
  if (!std::isfinite(value)) {
    throw util::StatusError(util::Status::invalidArgument(
        "certificate JSON: field '" + key + "' is not finite"));
  }
  return value;
}

std::size_t countField(const Value& object, const std::string& key) {
  const double value = numberField(object, key);
  if (value < 0.0 || value != std::floor(value)) {
    throw util::StatusError(util::Status::invalidArgument(
        "certificate JSON: field '" + key +
        "' is not a non-negative integer"));
  }
  return static_cast<std::size_t>(value);
}

/// [lo, hi] pair with lo <= hi, both finite.
std::pair<double, double> rangeField(const Value& object,
                                     const std::string& key) {
  const Value& range = field(object, key, Value::Kind::kArray, "an array");
  if (range.array.size() != 2 ||
      range.array[0].kind != Value::Kind::kNumber ||
      range.array[1].kind != Value::Kind::kNumber) {
    throw util::StatusError(util::Status::parseError(
        "certificate JSON: field '" + key +
        "' is not a two-number array"));
  }
  const double lo = range.array[0].number;
  const double hi = range.array[1].number;
  if (!std::isfinite(lo) || !std::isfinite(hi) || lo > hi) {
    throw util::StatusError(util::Status::invalidArgument(
        "certificate JSON: field '" + key + "' range [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "] is invalid"));
  }
  return {lo, hi};
}

SafeTclkCertificate certificateFromJson(const Value& root) {
  if (root.kind != Value::Kind::kObject) {
    throw util::StatusError(util::Status::parseError(
        "certificate JSON: document is not an object"));
  }
  const std::string& schema =
      field(root, "schema", Value::Kind::kString, "a string").text;
  if (schema != "tevot-safe-tclk-certificate-v1") {
    throw util::StatusError(util::Status::invalidArgument(
        "certificate JSON: unsupported schema '" + schema + "'"));
  }

  SafeTclkCertificate cert;
  cert.model_path =
      field(root, "model", Value::Kind::kString, "a string").text;
  cert.history =
      field(root, "history", Value::Kind::kBool, "a boolean").boolean;
  cert.feature_count = countField(root, "features");
  cert.tree_count = countField(root, "trees");
  if (cert.feature_count == 0 || cert.tree_count == 0) {
    throw util::StatusError(util::Status::invalidArgument(
        "certificate JSON: zero features or trees"));
  }

  const Value& box =
      field(root, "operating_box", Value::Kind::kObject, "an object");
  std::tie(cert.v_lo, cert.v_hi) = rangeField(box, "voltage");
  std::tie(cert.t_lo, cert.t_hi) = rangeField(box, "temperature");

  cert.tclk_ps = numberField(root, "tclk_ps");
  if (cert.tclk_ps <= 0.0) {
    throw util::StatusError(util::Status::invalidArgument(
        "certificate JSON: tclk_ps must be positive, got " +
        std::to_string(cert.tclk_ps)));
  }
  cert.certified =
      field(root, "certified", Value::Kind::kBool, "a boolean").boolean;

  const Value& bound =
      field(root, "delay_bound_ps", Value::Kind::kObject, "an object");
  cert.bound_lo_ps = static_cast<float>(numberField(bound, "min"));
  cert.bound_hi_ps = static_cast<float>(numberField(bound, "max"));
  if (cert.bound_lo_ps > cert.bound_hi_ps) {
    throw util::StatusError(util::Status::invalidArgument(
        "certificate JSON: delay bound min exceeds max"));
  }
  cert.box_evals = countField(root, "box_evals");

  const Value* counterexample = root.find("counterexample");
  if (counterexample == nullptr ||
      counterexample->kind != Value::Kind::kNull) {
    const Value& box = field(root, "counterexample", Value::Kind::kObject,
                             "null or an object");
    cert.counterexample_json = box.raw;
  }
  return cert;
}

}  // namespace

util::Status loadCertificate(std::string_view json,
                             SafeTclkCertificate* out) {
  Value root;
  util::Status status = util::json::parse(json, &root);
  if (!status.ok()) {
    status.message = "certificate " + status.message;
    return status;
  }
  try {
    *out = certificateFromJson(root);
    return util::Status::okStatus();
  } catch (const util::StatusError& error) {
    return error.status();
  }
}

util::Status loadCertificateFile(const std::string& path,
                                 SafeTclkCertificate* out) {
  std::string text;
  try {
    text = util::readFile(path, "certificate");
  } catch (const util::StatusError& error) {
    return error.status();
  }
  util::Status status = loadCertificate(text, out);
  if (!status.ok()) {
    status.message += " (" + path + ")";
  }
  return status;
}

}  // namespace tevot::verify
