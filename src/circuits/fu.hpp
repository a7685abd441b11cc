// Unified interface over the four functional units the paper models:
// 32-bit integer add/multiply and IEEE-754 single-precision FP
// add/multiply. Everything downstream (DTA, TEVoT, the application
// layer) is written against this interface.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"

namespace tevot::circuits {

enum class FuKind { kIntAdd, kIntMul, kFpAdd, kFpMul };

inline constexpr std::array<FuKind, 4> kAllFus = {
    FuKind::kIntAdd, FuKind::kIntMul, FuKind::kFpAdd, FuKind::kFpMul};

/// Paper-style display name ("INT ADD", ...).
std::string_view fuName(FuKind kind);

/// Machine name ("int_add", ...): filesystem- and wire-protocol-safe,
/// matching the tevot_cli FU arguments and the "<slug>.model" files a
/// model directory holds.
std::string_view fuSlug(FuKind kind);

/// The FU whose fuSlug() is `slug`; nullopt for any other text. The
/// one reader of FU names (tool arguments, the wire protocol).
std::optional<FuKind> fuFromSlug(std::string_view slug);

/// Builds the gate-level netlist of a functional unit: inputs a[32]
/// then b[32] (64 primary inputs), outputs are the 32 result bits.
netlist::Netlist buildFu(FuKind kind);

/// Software golden model: the settled FU output for operands (a, b).
/// For the FP units this is the bit-exact fp_ref algorithm.
std::uint32_t fuReference(FuKind kind, std::uint32_t a, std::uint32_t b);

/// Encodes an operand pair as the 64-entry input-bit vector expected
/// by buildFu() netlists: a[0..31] then b[0..31], LSB first.
std::vector<std::uint8_t> encodeOperands(std::uint32_t a, std::uint32_t b);

/// In-place variant (no allocation) for hot loops; `out` must have 64
/// entries.
void encodeOperandsInto(std::uint32_t a, std::uint32_t b,
                        std::vector<std::uint8_t>& out);

}  // namespace tevot::circuits
