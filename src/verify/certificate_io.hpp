// Reader for the tevot-safe-tclk-certificate-v1 JSON documents that
// `tevot_cli verify-model --cert` writes (SafeTclkCertificate::toJson).
//
// Until now the certificate was write-only: producers emitted it and
// humans or CI read it. The DVFS controller consumes it as a *safety
// artifact* — the certified worst-case clock it falls back to when the
// model path degrades — so parsing must be as strict as the sweep
// parsers: truncated, garbage, or field-missing input yields a typed
// util::Status (kParseError / kInvalidArgument), never a half-filled
// struct the controller could clock a circuit from.
#pragma once

#include <string>
#include <string_view>

#include "util/status.hpp"
#include "verify/model_rules.hpp"

namespace tevot::verify {

/// Parses one certificate document. On success fills `out` with every
/// field round-tripped exactly (doubles are printed with %.17g and
/// floats with %.9g by the writer, so parse(write(c)) == c bit for
/// bit). The document is read by util::json::parse. Failure modes:
///   kParseError       malformed JSON, truncated input, trailing bytes
///                     after the document, nesting deeper than
///                     util::json::kMaxDepth, a repeated key, or a
///                     missing/mistyped field
///   kInvalidArgument  well-formed JSON with out-of-contract values: a
///                     wrong schema tag, non-finite or non-positive
///                     tclk_ps, an inverted operating box or delay
///                     bound, or zero trees/features
util::Status loadCertificate(std::string_view json,
                             SafeTclkCertificate* out);

/// loadCertificate over the contents of `path`; open/read failures are
/// kIoError with errno text and the path spelled out.
util::Status loadCertificateFile(const std::string& path,
                                 SafeTclkCertificate* out);

}  // namespace tevot::verify
