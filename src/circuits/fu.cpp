#include "circuits/fu.hpp"

#include <stdexcept>

#include "circuits/fp_add.hpp"
#include "circuits/fp_mul.hpp"
#include "circuits/fp_ref.hpp"
#include "circuits/int_add.hpp"
#include "circuits/int_mul.hpp"

namespace tevot::circuits {

std::string_view fuName(FuKind kind) {
  switch (kind) {
    case FuKind::kIntAdd:
      return "INT ADD";
    case FuKind::kIntMul:
      return "INT MUL";
    case FuKind::kFpAdd:
      return "FP ADD";
    case FuKind::kFpMul:
      return "FP MUL";
  }
  throw std::invalid_argument("fuName: bad kind");
}

std::string_view fuSlug(FuKind kind) {
  switch (kind) {
    case FuKind::kIntAdd:
      return "int_add";
    case FuKind::kIntMul:
      return "int_mul";
    case FuKind::kFpAdd:
      return "fp_add";
    case FuKind::kFpMul:
      return "fp_mul";
  }
  throw std::invalid_argument("fuSlug: bad kind");
}

std::optional<FuKind> fuFromSlug(std::string_view slug) {
  for (const FuKind kind : kAllFus) {
    if (fuSlug(kind) == slug) return kind;
  }
  return std::nullopt;
}

netlist::Netlist buildFu(FuKind kind) {
  switch (kind) {
    case FuKind::kIntAdd:
      // Ripple-carry: its data-dependent carry chains give the
      // long-tailed dynamic-delay distribution the paper observes for
      // INT ADD (the critical path is rarely sensitized), unlike a
      // parallel-prefix adder whose paths all have similar depth.
      return buildIntAdd(32, AdderArch::kRipple);
    case FuKind::kIntMul:
      return buildIntMul(32);
    case FuKind::kFpAdd:
      return buildFpAdd();
    case FuKind::kFpMul:
      return buildFpMul();
  }
  throw std::invalid_argument("buildFu: bad kind");
}

std::uint32_t fuReference(FuKind kind, std::uint32_t a, std::uint32_t b) {
  switch (kind) {
    case FuKind::kIntAdd:
      return a + b;
    case FuKind::kIntMul:
      return a * b;
    case FuKind::kFpAdd:
      return fpAddRef(a, b);
    case FuKind::kFpMul:
      return fpMulRef(a, b);
  }
  throw std::invalid_argument("fuReference: bad kind");
}

std::vector<std::uint8_t> encodeOperands(std::uint32_t a, std::uint32_t b) {
  std::vector<std::uint8_t> bits(64);
  encodeOperandsInto(a, b, bits);
  return bits;
}

void encodeOperandsInto(std::uint32_t a, std::uint32_t b,
                        std::vector<std::uint8_t>& out) {
  if (out.size() != 64) out.assign(64, 0);
  for (int i = 0; i < 32; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((a >> i) & 1u);
    out[static_cast<std::size_t>(32 + i)] =
        static_cast<std::uint8_t>((b >> i) & 1u);
  }
}

}  // namespace tevot::circuits
