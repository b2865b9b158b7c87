#include "rt/interpreter.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "ir/casting.h"
#include "support/diagnostics.h"
#include "support/str.h"
#include "support/thread_pool.h"

namespace grover::rt {

using namespace ir;

// --- KernelImage -------------------------------------------------------------

KernelImage::KernelImage(ir::Function& fn, const NDRange& range,
                         const std::vector<KernelArg>& args)
    : fn_(fn), range_(range) {
  range_.validate();
  num_slots_ = fn.renumber();

  if (args.size() != fn.numArgs()) {
    throw GroverError(cat("kernel '", fn.name(), "' expects ", fn.numArgs(),
                          " arguments, got ", args.size()));
  }
  arg_values_.resize(args.size());
  for (unsigned i = 0; i < args.size(); ++i) {
    const Argument* param = fn.arg(i);
    if (std::holds_alternative<Buffer*>(args[i].value)) {
      if (!param->type()->isPointer()) {
        throw GroverError(cat("argument ", i, " is a buffer but parameter '",
                              param->name(), "' is not a pointer"));
      }
      PtrVal ptr{};
      ptr.space = param->type()->addrSpace();
      ptr.base = static_cast<std::uint32_t>(buffers_.size());
      buffers_.push_back(std::get<Buffer*>(args[i].value));
      arg_values_[i] = RtValue::ofPtr(ptr);
    } else if (std::holds_alternative<std::int64_t>(args[i].value)) {
      if (!param->type()->isInteger()) {
        throw GroverError(cat("argument ", i, " type mismatch (expected ",
                              param->type()->str(), ")"));
      }
      arg_values_[i] = RtValue::ofInt(std::get<std::int64_t>(args[i].value));
    } else {
      if (!param->type()->isFloatingPoint()) {
        throw GroverError(cat("argument ", i, " type mismatch (expected ",
                              param->type()->str(), ")"));
      }
      arg_values_[i] = RtValue::ofFloat(std::get<double>(args[i].value));
    }
  }

  // Arena layouts: allocas live in the entry block, 16-byte aligned.
  auto align16 = [](std::uint64_t v) { return (v + 15) & ~std::uint64_t{15}; };
  for (const auto& inst : *fn.entry()) {
    const auto* alloca = dyn_cast<AllocaInst>(inst.get());
    if (alloca == nullptr) continue;
    if (alloca->space() == AddrSpace::Local) {
      local_size_ = align16(local_size_);
      alloca_offsets_[alloca] = static_cast<std::int64_t>(local_size_);
      local_size_ += alloca->sizeInBytes();
    } else if (alloca->space() == AddrSpace::Private) {
      private_size_ = align16(private_size_);
      alloca_offsets_[alloca] = static_cast<std::int64_t>(private_size_);
      private_size_ += alloca->sizeInBytes();
    } else {
      throw GroverError("alloca in unsupported address space");
    }
  }

  decoded_ = DecodedKernel::build(fn_, alloca_offsets_);
}

std::int64_t KernelImage::allocaOffset(const ir::AllocaInst* a) const {
  auto it = alloca_offsets_.find(a);
  if (it == alloca_offsets_.end()) {
    throw GroverError("alloca outside the entry block is unsupported");
  }
  return it->second;
}

// --- GroupExecutor -----------------------------------------------------------

namespace {

std::int64_t finalizeInt(TypeKind kind, std::int64_t v) {
  switch (kind) {
    case TypeKind::Bool:
      return v & 1;
    case TypeKind::Int32:
      return static_cast<std::int32_t>(v);
    default:
      return v;
  }
}

std::int64_t intOp(BinaryOp op, std::int64_t a, std::int64_t b) {
  switch (op) {
    case BinaryOp::Add: return a + b;
    case BinaryOp::Sub: return a - b;
    case BinaryOp::Mul: return a * b;
    case BinaryOp::SDiv: return b == 0 ? 0 : a / b;
    case BinaryOp::SRem: return b == 0 ? 0 : a % b;
    case BinaryOp::Shl: return a << (b & 63);
    case BinaryOp::AShr: return a >> (b & 63);
    case BinaryOp::LShr:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) >>
                                       (b & 63));
    case BinaryOp::And: return a & b;
    case BinaryOp::Or: return a | b;
    case BinaryOp::Xor: return a ^ b;
    default:
      throw GroverError("intOp: bad opcode");
  }
}

double floatOp(BinaryOp op, double a, double b, bool single) {
  if (single) {
    const float fa = static_cast<float>(a);
    const float fb = static_cast<float>(b);
    switch (op) {
      case BinaryOp::FAdd: return fa + fb;
      case BinaryOp::FSub: return fa - fb;
      case BinaryOp::FMul: return fa * fb;
      case BinaryOp::FDiv: return fa / fb;
      default: break;
    }
  } else {
    switch (op) {
      case BinaryOp::FAdd: return a + b;
      case BinaryOp::FSub: return a - b;
      case BinaryOp::FMul: return a * b;
      case BinaryOp::FDiv: return a / b;
      default: break;
    }
  }
  throw GroverError("floatOp: bad opcode");
}

RtValue readScalar(TypeKind kind, const std::byte* p) {
  switch (kind) {
    case TypeKind::Bool:
      return RtValue::ofInt(static_cast<std::uint8_t>(*p) != 0 ? 1 : 0);
    case TypeKind::Int32: {
      std::int32_t v;
      std::memcpy(&v, p, 4);
      return RtValue::ofInt(v);
    }
    case TypeKind::Int64: {
      std::int64_t v;
      std::memcpy(&v, p, 8);
      return RtValue::ofInt(v);
    }
    case TypeKind::Float: {
      float v;
      std::memcpy(&v, p, 4);
      return RtValue::ofFloat(v);
    }
    case TypeKind::Double: {
      double v;
      std::memcpy(&v, p, 8);
      return RtValue::ofFloat(v);
    }
    default:
      throw GroverError("load of unsupported type");
  }
}

/// In-place scalar writes to a value slot. The hot loop runs one of these
/// per instruction, so updating only the kind and the payload (instead of
/// constructing and copy-assigning a full RtValue) matters.
inline void setInt(RtValue& out, std::int64_t v) {
  out.kind = RtValue::Kind::Int;
  out.lanes = 1;
  out.i = v;
}

inline void setFloat(RtValue& out, double v) {
  out.kind = RtValue::Kind::Float;
  out.lanes = 1;
  out.f = v;
}

void readScalarInto(TypeKind kind, const std::byte* p, RtValue& out) {
  switch (kind) {
    case TypeKind::Bool:
      setInt(out, static_cast<std::uint8_t>(*p) != 0 ? 1 : 0);
      return;
    case TypeKind::Int32: {
      std::int32_t v;
      std::memcpy(&v, p, 4);
      setInt(out, v);
      return;
    }
    case TypeKind::Int64: {
      std::int64_t v;
      std::memcpy(&v, p, 8);
      setInt(out, v);
      return;
    }
    case TypeKind::Float: {
      float v;
      std::memcpy(&v, p, 4);
      setFloat(out, v);
      return;
    }
    case TypeKind::Double: {
      double v;
      std::memcpy(&v, p, 8);
      setFloat(out, v);
      return;
    }
    default:
      throw GroverError("load of unsupported type");
  }
}

/// Store lane `lane` of `value` (the scalar payload when `vector` is
/// false) as a `kind` scalar. Reads only the payload member `kind`
/// selects: integers from `i`/`vi`, floats from `f`/`vf`.
void writeScalar(TypeKind kind, std::byte* p, const RtValue& value,
                 bool vector, unsigned lane) {
  const auto asInt = [&] { return vector ? value.vi[lane] : value.i; };
  const auto asFloat = [&] { return vector ? value.vf[lane] : value.f; };
  switch (kind) {
    case TypeKind::Bool: {
      const std::uint8_t v = asInt() != 0 ? 1 : 0;
      std::memcpy(p, &v, 1);
      return;
    }
    case TypeKind::Int32: {
      const auto v = static_cast<std::int32_t>(asInt());
      std::memcpy(p, &v, 4);
      return;
    }
    case TypeKind::Int64: {
      const std::int64_t v = asInt();
      std::memcpy(p, &v, 8);
      return;
    }
    case TypeKind::Float: {
      const auto v = static_cast<float>(asFloat());
      std::memcpy(p, &v, 4);
      return;
    }
    case TypeKind::Double: {
      const double v = asFloat();
      std::memcpy(p, &v, 8);
      return;
    }
    default:
      throw GroverError("store of unsupported type");
  }
}

}  // namespace

GroupExecutor::GroupExecutor(const KernelImage& image) : image_(image) {
  local_arena_.resize(image.localArenaSize());
  items_.resize(image.range().groupSize());
  // Seed argument slots once; every reset copies this prototype.
  proto_slots_.assign(image.numSlots(), RtValue{});
  const auto& argValues = image.argValues();
  for (unsigned i = 0; i < argValues.size(); ++i) {
    proto_slots_[image.function().arg(i)->slot()] = argValues[i];
  }
}

void GroupExecutor::resetWorkItem(WorkItem& wi) {
  wi.slots = proto_slots_;
  wi.privateArena.assign(image_.privateArenaSize(), std::byte{0});
  wi.pc = image_.decoded().entryPc();
  wi.status = WiStatus::Running;
  wi.barrierAt = 0;
}

void GroupExecutor::runGroup(const std::array<std::uint32_t, 3>& groupId) {
  group_ = groupId;
  const auto numGroups = image_.range().numGroups();
  group_linear_ =
      groupId[0] + numGroups[0] * (groupId[1] + numGroups[1] * groupId[2]);
  std::fill(local_arena_.begin(), local_arena_.end(), std::byte{0});
  counters_ = InstCounters{};
  if (trace_ != nullptr) {
    trace_->clear();
    trace_->group = group_linear_;
  }

  const NDRange& range = image_.range();
  std::uint32_t linear = 0;
  for (std::uint32_t lz = 0; lz < range.local[2]; ++lz) {
    for (std::uint32_t ly = 0; ly < range.local[1]; ++ly) {
      for (std::uint32_t lx = 0; lx < range.local[0]; ++lx) {
        WorkItem& wi = items_[linear];
        wi.localId = {lx, ly, lz};
        wi.linear = linear;
        resetWorkItem(wi);
        ++linear;
      }
    }
  }

  for (;;) {
    for (WorkItem& wi : items_) {
      if (wi.status == WiStatus::Running) advance(wi);
    }
    std::size_t done = 0;
    std::size_t atBarrier = 0;
    bool haveBarrier = false;
    std::uint32_t barrierPc = 0;
    for (const WorkItem& wi : items_) {
      if (wi.status == WiStatus::Done) {
        ++done;
      } else {
        ++atBarrier;
        if (!haveBarrier) {
          haveBarrier = true;
          barrierPc = wi.barrierAt;
        } else if (barrierPc != wi.barrierAt) {
          throw GroverError(
              "barrier divergence: work-items stopped at different barriers");
        }
      }
    }
    if (atBarrier == 0) break;
    if (done != 0) {
      throw GroverError(
          "barrier divergence: some work-items returned while others wait");
    }
    if (trace_ != nullptr) {
      trace_->barriers.push_back(
          static_cast<std::uint32_t>(trace_->accesses.size()));
    }
    for (WorkItem& wi : items_) wi.status = WiStatus::Running;
  }

  if (trace_ != nullptr) trace_->counters = counters_;
  total_counters_ += counters_;
}

void GroupExecutor::takeEdge(WorkItem& wi, const DEdge& edge) {
  const std::uint32_t n = edge.phiEnd - edge.phiBegin;
  if (n != 0) {
    const DPhiCopy* copies = image_.decoded().phiCopies() + edge.phiBegin;
    if (edge.phiOverlap) {
      // Two-phase phi moves: read every source before writing any slot.
      phi_scratch_.resize(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        phi_scratch_[i] = readRef(wi, copies[i].src);
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        wi.slots[static_cast<std::size_t>(copies[i].dest)] = phi_scratch_[i];
      }
    } else {
      // No dest is another copy's source (checked at decode time): move
      // values directly, skipping the scratch pass.
      for (std::uint32_t i = 0; i < n; ++i) {
        wi.slots[static_cast<std::size_t>(copies[i].dest)] =
            readRef(wi, copies[i].src);
      }
    }
    counters_.other += n;
  }
  wi.pc = edge.targetPc;
}

std::byte* GroupExecutor::resolve(WorkItem& wi, const PtrVal& ptr,
                                  std::uint64_t size,
                                  std::uint64_t& traceAddr) {
  switch (ptr.space) {
    case AddrSpace::Global:
    case AddrSpace::Constant: {
      Buffer* buffer = image_.buffers().at(ptr.base);
      if (ptr.offset < 0 ||
          static_cast<std::uint64_t>(ptr.offset) + size > buffer->size()) {
        throw GroverError(cat("out-of-bounds ", toString(ptr.space),
                              " access at offset ", ptr.offset, " size ", size,
                              " (buffer ", buffer->size(), " bytes)"));
      }
      traceAddr = bufferBaseAddress(ptr.base) +
                  static_cast<std::uint64_t>(ptr.offset);
      return buffer->data() + ptr.offset;
    }
    case AddrSpace::Local: {
      if (ptr.offset < 0 ||
          static_cast<std::uint64_t>(ptr.offset) + size > local_arena_.size()) {
        throw GroverError(cat("out-of-bounds local access at offset ",
                              ptr.offset));
      }
      traceAddr = static_cast<std::uint64_t>(ptr.offset);
      return local_arena_.data() + ptr.offset;
    }
    case AddrSpace::Private: {
      if (ptr.offset < 0 || static_cast<std::uint64_t>(ptr.offset) + size >
                                wi.privateArena.size()) {
        throw GroverError("out-of-bounds private access");
      }
      traceAddr = static_cast<std::uint64_t>(ptr.offset);
      return wi.privateArena.data() + ptr.offset;
    }
  }
  throw GroverError("bad address space");
}

void GroupExecutor::execLoad(WorkItem& wi, const DInst& d, const PtrVal& ptr,
                             RtValue& out) {
  std::uint64_t traceAddr = 0;
  const std::byte* mem = resolve(wi, ptr, d.memSize, traceAddr);
  if (trace_ != nullptr) {
    trace_->accesses.push_back({ptr.space, traceAddr, d.memSize, false,
                                group_linear_, wi.linear, d.instSlot});
  }
  if (d.lanes == 0) {
    readScalarInto(d.tkind, mem, out);
    return;
  }
  out = d.elemIsFloat ? RtValue::ofVecFloat(d.lanes)
                      : RtValue::ofVecInt(d.lanes);
  for (unsigned lane = 0; lane < d.lanes; ++lane) {
    const RtValue v = readScalar(d.tkind, mem + lane * d.elemSize);
    if (out.kind == RtValue::Kind::VecFloat) {
      out.vf[lane] = v.f;
    } else {
      out.vi[lane] = v.i;
    }
  }
}

void GroupExecutor::execStore(WorkItem& wi, const DInst& d, const PtrVal& ptr,
                              const RtValue& value) {
  std::uint64_t traceAddr = 0;
  std::byte* mem = resolve(wi, ptr, d.memSize, traceAddr);
  if (trace_ != nullptr) {
    trace_->accesses.push_back({ptr.space, traceAddr, d.memSize, true,
                                group_linear_, wi.linear, d.instSlot});
  }
  if (d.lanes == 0) {
    writeScalar(d.tkind, mem, value, false, 0);
    return;
  }
  for (unsigned lane = 0; lane < d.lanes; ++lane) {
    writeScalar(d.tkind, mem + lane * d.elemSize, value, true, lane);
  }
}

std::int64_t GroupExecutor::execIdQuery(WorkItem& wi, const DInst& d) {
  const NDRange& range = image_.range();
  const auto builtin = static_cast<Builtin>(d.sub);
  counters_.other += 1;
  if (builtin == Builtin::GetWorkDim) return range.dims;
  const std::int64_t dv = readRef(wi, d.a).i;
  const unsigned dim = dv >= 0 && dv < 3 ? static_cast<unsigned>(dv) : 3;
  switch (builtin) {
    case Builtin::GetGlobalId:
      if (dim >= 3) return 0;
      return std::int64_t{group_[dim]} * range.local[dim] + wi.localId[dim];
    case Builtin::GetLocalId:
      return dim < 3 ? wi.localId[dim] : 0;
    case Builtin::GetGroupId:
      return dim < 3 ? group_[dim] : 0;
    case Builtin::GetGlobalSize:
      return dim < 3 ? range.global[dim] : 1;
    case Builtin::GetLocalSize:
      return dim < 3 ? range.local[dim] : 1;
    case Builtin::GetNumGroups:
      return dim < 3 ? range.numGroups()[dim] : 1;
    default:
      throw GroverError("unsupported builtin call");
  }
}

void GroupExecutor::execMathCall(WorkItem& wi, const DInst& d, RtValue& out) {
  counters_.mathCall += 1;
  const auto builtin = static_cast<Builtin>(d.sub);
  const bool single = d.tkind == TypeKind::Float;
  const bool isFp = single || d.tkind == TypeKind::Double;
  auto f1 = [&](double (*fn)(double)) {
    const double x = readRef(wi, d.a).f;
    setFloat(out, single ? static_cast<float>(fn(static_cast<float>(x)))
                         : fn(x));
  };
  switch (builtin) {
    case Builtin::Sqrt: f1(std::sqrt); return;
    case Builtin::RSqrt: {
      const double x = readRef(wi, d.a).f;
      setFloat(out, single ? 1.0F / std::sqrt(static_cast<float>(x))
                           : 1.0 / std::sqrt(x));
      return;
    }
    case Builtin::Fabs: f1(std::fabs); return;
    case Builtin::Exp: f1(std::exp); return;
    case Builtin::Log: f1(std::log); return;
    case Builtin::Sin: f1(std::sin); return;
    case Builtin::Cos: f1(std::cos); return;
    case Builtin::Floor: f1(std::floor); return;
    case Builtin::Ceil: f1(std::ceil); return;
    case Builtin::Pow: {
      const double a = readRef(wi, d.a).f;
      const double b = readRef(wi, d.b).f;
      setFloat(out, single ? std::pow(static_cast<float>(a),
                                      static_cast<float>(b))
                           : std::pow(a, b));
      return;
    }
    case Builtin::FMin:
    case Builtin::FMax: {
      const double a = readRef(wi, d.a).f;
      const double b = readRef(wi, d.b).f;
      const bool isMin = builtin == Builtin::FMin;
      setFloat(out, isMin ? std::fmin(a, b) : std::fmax(a, b));
      return;
    }
    case Builtin::Fma:
    case Builtin::Mad: {
      const double a = readRef(wi, d.a).f;
      const double b = readRef(wi, d.b).f;
      const double c = readRef(wi, d.c).f;
      if (single) {
        setFloat(out, static_cast<float>(a) * static_cast<float>(b) +
                          static_cast<float>(c));
      } else {
        setFloat(out, a * b + c);
      }
      return;
    }
    case Builtin::IMin:
    case Builtin::IMax: {
      if (isFp) {
        const double a = readRef(wi, d.a).f;
        const double b = readRef(wi, d.b).f;
        setFloat(out, builtin == Builtin::IMin ? std::fmin(a, b)
                                               : std::fmax(a, b));
        return;
      }
      const std::int64_t a = readRef(wi, d.a).i;
      const std::int64_t b = readRef(wi, d.b).i;
      setInt(out, builtin == Builtin::IMin ? std::min(a, b) : std::max(a, b));
      return;
    }
    case Builtin::IAbs: {
      const std::int64_t a = readRef(wi, d.a).i;
      setInt(out, a < 0 ? -a : a);
      return;
    }
    case Builtin::Mul24: {
      const auto a = static_cast<std::int32_t>(readRef(wi, d.a).i);
      const auto b = static_cast<std::int32_t>(readRef(wi, d.b).i);
      setInt(out, static_cast<std::int32_t>(a * b));
      return;
    }
    case Builtin::Mad24: {
      const auto a = static_cast<std::int32_t>(readRef(wi, d.a).i);
      const auto b = static_cast<std::int32_t>(readRef(wi, d.b).i);
      const auto c = static_cast<std::int32_t>(readRef(wi, d.c).i);
      setInt(out, static_cast<std::int32_t>(a * b + c));
      return;
    }
    case Builtin::Clamp: {
      if (isFp) {
        const double x = readRef(wi, d.a).f;
        const double lo = readRef(wi, d.b).f;
        const double hi = readRef(wi, d.c).f;
        setFloat(out, std::fmin(std::fmax(x, lo), hi));
        return;
      }
      const std::int64_t x = readRef(wi, d.a).i;
      const std::int64_t lo = readRef(wi, d.b).i;
      const std::int64_t hi = readRef(wi, d.c).i;
      setInt(out, std::min(std::max(x, lo), hi));
      return;
    }
    case Builtin::Dot: {
      const RtValue& a = readRef(wi, d.a);
      const RtValue& b = readRef(wi, d.b);
      float acc = 0.0F;
      for (unsigned i = 0; i < a.lanes; ++i) {
        acc += static_cast<float>(a.vf[i]) * static_cast<float>(b.vf[i]);
      }
      setFloat(out, acc);
      return;
    }
    default:
      throw GroverError("unsupported builtin call");
  }
}

void GroupExecutor::advance(WorkItem& wi) {
  const DecodedKernel& dk = image_.decoded();
  const DInst* code = dk.code();
  for (;;) {
    const DInst& d = code[wi.pc];
    switch (d.op) {
      case DOp::BinInt: {
        const std::int64_t a = readRef(wi, d.a).i;
        const std::int64_t b = readRef(wi, d.b).i;
        setInt(wi.slots[static_cast<std::size_t>(d.dest)],
               finalizeInt(d.tkind, intOp(static_cast<BinaryOp>(d.sub), a, b)));
        counters_.intAlu += 1;
        ++wi.pc;
        continue;
      }
      case DOp::BinFloat: {
        const double a = readRef(wi, d.a).f;
        const double b = readRef(wi, d.b).f;
        setFloat(wi.slots[static_cast<std::size_t>(d.dest)],
                 floatOp(static_cast<BinaryOp>(d.sub), a, b,
                         d.tkind == TypeKind::Float));
        counters_.floatAlu += 1;
        ++wi.pc;
        continue;
      }
      case DOp::BinVecInt: {
        const RtValue& l = readRef(wi, d.a);
        const RtValue& r = readRef(wi, d.b);
        // SSA: dest never aliases an operand, so writing in place is safe.
        RtValue& out = wi.slots[static_cast<std::size_t>(d.dest)];
        out.kind = RtValue::Kind::VecInt;
        out.lanes = d.lanes;
        for (unsigned i = 0; i < d.lanes; ++i) {
          out.vi[i] = finalizeInt(
              d.tkind, intOp(static_cast<BinaryOp>(d.sub), l.vi[i], r.vi[i]));
        }
        counters_.vectorAlu += 1;
        ++wi.pc;
        continue;
      }
      case DOp::BinVecFloat: {
        const RtValue& l = readRef(wi, d.a);
        const RtValue& r = readRef(wi, d.b);
        RtValue& out = wi.slots[static_cast<std::size_t>(d.dest)];
        out.kind = RtValue::Kind::VecFloat;
        out.lanes = d.lanes;
        const bool single = d.tkind == TypeKind::Float;
        for (unsigned i = 0; i < d.lanes; ++i) {
          out.vf[i] =
              floatOp(static_cast<BinaryOp>(d.sub), l.vf[i], r.vf[i], single);
        }
        counters_.vectorAlu += 1;
        ++wi.pc;
        continue;
      }
      case DOp::ICmp: {
        const std::int64_t a = readRef(wi, d.a).i;
        const std::int64_t b = readRef(wi, d.b).i;
        const auto ua = static_cast<std::uint64_t>(a);
        const auto ub = static_cast<std::uint64_t>(b);
        bool r = false;
        switch (static_cast<CmpPred>(d.sub)) {
          case CmpPred::EQ: r = a == b; break;
          case CmpPred::NE: r = a != b; break;
          case CmpPred::SLT: r = a < b; break;
          case CmpPred::SLE: r = a <= b; break;
          case CmpPred::SGT: r = a > b; break;
          case CmpPred::SGE: r = a >= b; break;
          case CmpPred::ULT: r = ua < ub; break;
          case CmpPred::ULE: r = ua <= ub; break;
          case CmpPred::UGT: r = ua > ub; break;
          case CmpPred::UGE: r = ua >= ub; break;
          default:
            throw GroverError("bad icmp predicate");
        }
        setInt(wi.slots[static_cast<std::size_t>(d.dest)], r ? 1 : 0);
        counters_.intAlu += 1;
        ++wi.pc;
        continue;
      }
      case DOp::FCmp: {
        const double a = readRef(wi, d.a).f;
        const double b = readRef(wi, d.b).f;
        bool r = false;
        switch (static_cast<CmpPred>(d.sub)) {
          case CmpPred::OEQ: r = a == b; break;
          case CmpPred::ONE: r = a != b; break;
          case CmpPred::OLT: r = a < b; break;
          case CmpPred::OLE: r = a <= b; break;
          case CmpPred::OGT: r = a > b; break;
          case CmpPred::OGE: r = a >= b; break;
          default:
            throw GroverError("bad fcmp predicate");
        }
        setInt(wi.slots[static_cast<std::size_t>(d.dest)], r ? 1 : 0);
        counters_.floatAlu += 1;
        ++wi.pc;
        continue;
      }
      case DOp::Cast: {
        const RtValue& v = readRef(wi, d.a);
        RtValue& out = wi.slots[static_cast<std::size_t>(d.dest)];
        switch (static_cast<CastOp>(d.sub)) {
          case CastOp::SExt:
          case CastOp::Trunc:
            setInt(out, finalizeInt(d.tkind, v.i));
            break;
          case CastOp::ZExt: {
            std::int64_t raw = v.i;
            if (d.srcKind == TypeKind::Bool) {
              raw &= 1;
            } else if (d.srcKind == TypeKind::Int32) {
              raw = static_cast<std::int64_t>(static_cast<std::uint32_t>(raw));
            }
            setInt(out, finalizeInt(d.tkind, raw));
            break;
          }
          case CastOp::SIToFP:
          case CastOp::UIToFP: {
            double f = static_cast<double>(v.i);
            if (d.tkind == TypeKind::Float) f = static_cast<float>(f);
            setFloat(out, f);
            break;
          }
          case CastOp::FPToSI:
            setInt(out, finalizeInt(d.tkind, static_cast<std::int64_t>(v.f)));
            break;
          case CastOp::FPExt:
            setFloat(out, v.f);
            break;
          case CastOp::FPTrunc:
            setFloat(out, static_cast<float>(v.f));
            break;
        }
        counters_.intAlu += 1;
        ++wi.pc;
        continue;
      }
      case DOp::Select: {
        const bool c = readRef(wi, d.a).i != 0;
        wi.slots[static_cast<std::size_t>(d.dest)] =
            readRef(wi, c ? d.b : d.c);
        counters_.intAlu += 1;
        ++wi.pc;
        continue;
      }
      case DOp::Gep: {
        RtValue& out = wi.slots[static_cast<std::size_t>(d.dest)];
        out = readRef(wi, d.a);
        out.ptr.offset += readRef(wi, d.b).i *
                          static_cast<std::int64_t>(d.elemSize);
        counters_.intAlu += 1;
        ++wi.pc;
        continue;
      }
      case DOp::Load: {
        const PtrVal ptr = readRef(wi, d.a).ptr;
        execLoad(wi, d, ptr, wi.slots[static_cast<std::size_t>(d.dest)]);
        switch (ptr.space) {
          case AddrSpace::Global:
          case AddrSpace::Constant: counters_.globalLoad += 1; break;
          case AddrSpace::Local: counters_.localLoad += 1; break;
          case AddrSpace::Private: counters_.privateAccess += 1; break;
        }
        ++wi.pc;
        continue;
      }
      case DOp::Store: {
        const PtrVal ptr = readRef(wi, d.b).ptr;
        execStore(wi, d, ptr, readRef(wi, d.a));
        switch (ptr.space) {
          case AddrSpace::Global:
          case AddrSpace::Constant: counters_.globalStore += 1; break;
          case AddrSpace::Local: counters_.localStore += 1; break;
          case AddrSpace::Private: counters_.privateAccess += 1; break;
        }
        ++wi.pc;
        continue;
      }
      case DOp::Alloca:
        wi.slots[static_cast<std::size_t>(d.dest)] = readRef(wi, d.a);
        counters_.other += 1;
        ++wi.pc;
        continue;
      case DOp::IdQuery:
        setInt(wi.slots[static_cast<std::size_t>(d.dest)],
               execIdQuery(wi, d));
        ++wi.pc;
        continue;
      case DOp::MathCall:
        execMathCall(wi, d, wi.slots[static_cast<std::size_t>(d.dest)]);
        ++wi.pc;
        continue;
      case DOp::ExtractElement: {
        const RtValue& vec = readRef(wi, d.a);
        const auto lane = static_cast<unsigned>(readRef(wi, d.b).i);
        if (lane >= vec.lanes) throw GroverError("extractelement lane OOB");
        RtValue& out = wi.slots[static_cast<std::size_t>(d.dest)];
        if (vec.kind == RtValue::Kind::VecFloat) {
          setFloat(out, vec.vf[lane]);
        } else {
          setInt(out, vec.vi[lane]);
        }
        counters_.vectorAlu += 1;
        ++wi.pc;
        continue;
      }
      case DOp::InsertElement: {
        const RtValue& vec = readRef(wi, d.a);
        const RtValue& scalar = readRef(wi, d.b);
        const auto lane = static_cast<unsigned>(readRef(wi, d.c).i);
        RtValue& out = wi.slots[static_cast<std::size_t>(d.dest)];
        // Undef vectors arrive with the right lane count from the pool.
        if (vec.lanes == 1) {
          out = d.elemIsFloat ? RtValue::ofVecFloat(d.lanes)
                              : RtValue::ofVecInt(d.lanes);
        } else {
          out = vec;
        }
        if (lane >= out.lanes) throw GroverError("insertelement lane OOB");
        if (out.kind == RtValue::Kind::VecFloat) {
          out.vf[lane] = scalar.f;
        } else {
          out.vi[lane] = scalar.i;
        }
        counters_.vectorAlu += 1;
        ++wi.pc;
        continue;
      }
      case DOp::Br:
        counters_.branch += 1;
        takeEdge(wi, dk.edge(d.imm));
        continue;
      case DOp::CondBr: {
        counters_.branch += 1;
        const bool taken = readRef(wi, d.a).i != 0;
        takeEdge(wi, dk.edge(taken ? d.b : d.c));
        continue;
      }
      case DOp::Ret:
        wi.status = WiStatus::Done;
        return;
      case DOp::Barrier:
        counters_.barrier += 1;
        wi.status = WiStatus::AtBarrier;
        wi.barrierAt = wi.pc;
        ++wi.pc;
        return;
      case DOp::Trap:
        throw GroverError(dk.message(d.imm));
    }
    throw GroverError("bad decoded opcode");
  }
}

// --- Launch ------------------------------------------------------------------

Launch::Launch(ir::Function& fn, const NDRange& range,
               std::vector<KernelArg> args)
    : image_(fn, range, args) {}

std::vector<std::array<std::uint32_t, 3>> Launch::sampledGroups() const {
  const auto numGroups = image_.range().numGroups();
  std::vector<std::array<std::uint32_t, 3>> groups;
  std::uint64_t linear = 0;
  for (std::uint32_t gz = 0; gz < numGroups[2]; ++gz) {
    for (std::uint32_t gy = 0; gy < numGroups[1]; ++gy) {
      for (std::uint32_t gx = 0; gx < numGroups[0]; ++gx) {
        if (linear % sample_stride_ == 0) groups.push_back({gx, gy, gz});
        ++linear;
      }
    }
  }
  return groups;
}

InstCounters Launch::run(unsigned threads) {
  // Execution is CPU-bound: never run more threads than the hardware has.
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  threads = threads == 0 ? hw : std::min(threads, hw);
  const auto groups = sampledGroups();

  if (threads <= 1) {
    GroupExecutor exec(image_);
    for (const auto& g : groups) exec.runGroup(g);
    return exec.totalCounters();
  }

  // Parallel execution across groups (kernels write disjoint output regions
  // per group). The calling thread joins the work-stealing loop, so the
  // pool only needs threads-1 workers.
  std::vector<std::unique_ptr<GroupExecutor>> execs;
  execs.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    execs.push_back(std::make_unique<GroupExecutor>(image_));
  }
  ThreadPool pool(threads - 1);
  std::atomic<std::size_t> next{0};
  const auto executeLoop = [&](unsigned t) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= groups.size()) return;
      execs[t]->runGroup(groups[i]);
    }
  };
  for (unsigned t = 1; t < threads; ++t) {
    pool.submit([&executeLoop, t] { executeLoop(t); });
  }
  executeLoop(0);
  pool.waitIdle();
  InstCounters total;
  for (const auto& e : execs) total += e->totalCounters();
  return total;
}

}  // namespace grover::rt
