// Runtime values for the IR interpreter.
#pragma once

#include <array>
#include <cstdint>

#include "ir/type.h"

namespace grover::rt {

/// A pointer at run time: an address space, a base object, and a byte
/// offset. For Global/Constant, `base` is the bound buffer index; for
/// Local, the offset is within the work-group arena; for Private, within
/// the work-item arena (base unused for both). A trivial type, so that it
/// can share RtValue's payload union: value-initialize it (`PtrVal p{}`)
/// where it is declared.
struct PtrVal {
  ir::AddrSpace space;
  std::uint32_t base;
  std::int64_t offset;
};

/// One SSA value during execution. A plain struct (no allocation) — the
/// interpreter stores one per value slot per work-item and copies it on
/// every slot write, phi move and work-item reset, so the payloads share
/// one union. Read only the member that `kind` (or the instruction's
/// decoded type) selects: the others hold the bits of the last write.
struct RtValue {
  enum class Kind : std::uint8_t { Int, Float, Ptr, VecInt, VecFloat };

  Kind kind = Kind::Int;
  std::uint8_t lanes = 1;  // vectors only
  union {
    std::int64_t i = 0;
    double f;
    PtrVal ptr;
    std::array<std::int64_t, 4> vi;
    std::array<double, 4> vf;
  };

  static RtValue ofInt(std::int64_t v) {
    RtValue r;
    r.kind = Kind::Int;
    r.i = v;
    return r;
  }
  static RtValue ofFloat(double v) {
    RtValue r;
    r.kind = Kind::Float;
    r.f = v;
    return r;
  }
  static RtValue ofPtr(PtrVal p) {
    RtValue r;
    r.kind = Kind::Ptr;
    r.ptr = p;
    return r;
  }
  /// A vector with every lane zero.
  static RtValue ofVecFloat(std::uint8_t lanes) {
    RtValue r;
    r.kind = Kind::VecFloat;
    r.lanes = lanes;
    r.vf = {};
    return r;
  }
  static RtValue ofVecInt(std::uint8_t lanes) {
    RtValue r;
    r.kind = Kind::VecInt;
    r.lanes = lanes;
    r.vi = {};
    return r;
  }
};

static_assert(sizeof(RtValue) == 40, "RtValue: kind, lanes, 32-byte payload");

}  // namespace grover::rt
