#include "rt/ref_interpreter.h"

#include <cmath>
#include <cstring>

#include "ir/casting.h"
#include "support/diagnostics.h"
#include "support/str.h"

namespace grover::rt {

using namespace ir;

ReferenceExecutor::ReferenceExecutor(const KernelImage& image, TraceSink* sink)
    : image_(image), sink_(sink) {
  local_arena_.resize(image.localArenaSize());
  items_.resize(image.range().groupSize());
}

void ReferenceExecutor::resetWorkItem(WorkItem& wi) {
  wi.slots.assign(image_.numSlots(), RtValue{});
  wi.privateArena.assign(image_.privateArenaSize(), std::byte{0});
  wi.block = image_.function().entry();
  wi.ip = wi.block->begin();
  wi.status = WiStatus::Running;
  wi.barrierAt = nullptr;
  // Seed argument slots.
  const auto& argValues = image_.argValues();
  for (unsigned i = 0; i < argValues.size(); ++i) {
    wi.slots[image_.function().arg(i)->slot()] = argValues[i];
  }
}

void ReferenceExecutor::runGroup(const std::array<std::uint32_t, 3>& groupId) {
  group_ = groupId;
  const auto numGroups = image_.range().numGroups();
  group_linear_ =
      groupId[0] + numGroups[0] * (groupId[1] + numGroups[1] * groupId[2]);
  std::fill(local_arena_.begin(), local_arena_.end(), std::byte{0});
  counters_ = InstCounters{};

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
    const ir::Instruction* barrierInst = nullptr;
    for (const WorkItem& wi : items_) {
      if (wi.status == WiStatus::Done) {
        ++done;
      } else {
        ++atBarrier;
        if (barrierInst == nullptr) {
          barrierInst = wi.barrierAt;
        } else if (barrierInst != wi.barrierAt) {
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
    if (sink_ != nullptr) sink_->onBarrier(group_linear_);
    for (WorkItem& wi : items_) wi.status = WiStatus::Running;
  }

  if (sink_ != nullptr) sink_->onGroupFinish(group_linear_, counters_);
  total_counters_ += counters_;
}

RtValue& ReferenceExecutor::slot(WorkItem& wi, const ir::Value* v) {
  return wi.slots[v->slot()];
}

RtValue ReferenceExecutor::eval(WorkItem& wi, const ir::Value* v) {
  switch (v->kind()) {
    case ValueKind::ConstantInt:
      return RtValue::ofInt(cast<ConstantInt>(v)->value());
    case ValueKind::ConstantFloat:
      return RtValue::ofFloat(cast<ConstantFloat>(v)->value());
    case ValueKind::ConstantUndef: {
      const Type* t = v->type();
      if (t->isVector()) {
        return t->element()->isFloatingPoint()
                   ? RtValue::ofVecFloat(static_cast<std::uint8_t>(t->lanes()))
                   : RtValue::ofVecInt(static_cast<std::uint8_t>(t->lanes()));
      }
      if (t->isFloatingPoint()) return RtValue::ofFloat(0.0);
      return RtValue::ofInt(0);
    }
    default:
      return wi.slots[v->slot()];
  }
}

void ReferenceExecutor::enterBlock(WorkItem& wi, ir::BasicBlock* from,
                                   ir::BasicBlock* to) {
  // Two-phase phi evaluation: read all incoming values w.r.t. `from`
  // before writing any phi slot.
  std::vector<std::pair<const PhiInst*, RtValue>> pending;
  for (const PhiInst* phi : to->phis()) {
    pending.emplace_back(phi, eval(wi, phi->incomingForBlock(from)));
  }
  for (auto& [phi, value] : pending) {
    wi.slots[phi->slot()] = value;
  }
  counters_.other += pending.size();
  wi.block = to;
  wi.ip = to->begin();
  // Skip the phis (already evaluated).
  while (wi.ip != to->end() && isa<PhiInst>(wi.ip->get())) ++wi.ip;
}

void ReferenceExecutor::advance(WorkItem& wi) {
  for (;;) {
    if (wi.ip == wi.block->end()) {
      throw GroverError("fell off the end of a basic block");
    }
    const Instruction* inst = wi.ip->get();
    switch (inst->kind()) {
      case ValueKind::InstBr: {
        counters_.branch += 1;
        BasicBlock* from = wi.block;
        enterBlock(wi, from, cast<BrInst>(inst)->dest());
        continue;
      }
      case ValueKind::InstCondBr: {
        counters_.branch += 1;
        const auto* br = cast<CondBrInst>(inst);
        const bool taken = eval(wi, br->condition()).i != 0;
        BasicBlock* from = wi.block;
        enterBlock(wi, from, taken ? br->ifTrue() : br->ifFalse());
        continue;
      }
      case ValueKind::InstRet:
        wi.status = WiStatus::Done;
        return;
      case ValueKind::InstCall: {
        const auto* call = cast<CallInst>(inst);
        if (call->builtin() == Builtin::Barrier) {
          counters_.barrier += 1;
          wi.status = WiStatus::AtBarrier;
          wi.barrierAt = inst;
          ++wi.ip;
          return;
        }
        slot(wi, inst) = evalCall(wi, call);
        ++wi.ip;
        continue;
      }
      default:
        exec(wi, inst);
        ++wi.ip;
        continue;
    }
  }
}

std::byte* ReferenceExecutor::resolve(WorkItem& wi, const PtrVal& ptr,
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

RtValue ReferenceExecutor::loadFrom(WorkItem& wi, const PtrVal& ptr,
                                    const ir::Type* type,
                                    std::uint32_t instSlot) {
  const std::uint64_t size = type->sizeInBytes();
  std::uint64_t traceAddr = 0;
  const std::byte* mem = resolve(wi, ptr, size, traceAddr);
  if (sink_ != nullptr) {
    sink_->onAccess({ptr.space, traceAddr, static_cast<std::uint32_t>(size),
                     false, group_linear_, wi.linear, instSlot});
  }
  auto readScalar = [&](const ir::Type* t, const std::byte* p) -> RtValue {
    switch (t->kind()) {
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
        throw GroverError("load of unsupported type " + t->str());
    }
  };
  if (!type->isVector()) return readScalar(type, mem);
  const Type* elem = type->element();
  const std::uint64_t elemSize = elem->sizeInBytes();
  RtValue out = elem->isFloatingPoint()
                    ? RtValue::ofVecFloat(static_cast<std::uint8_t>(type->lanes()))
                    : RtValue::ofVecInt(static_cast<std::uint8_t>(type->lanes()));
  for (unsigned lane = 0; lane < type->lanes(); ++lane) {
    RtValue v = readScalar(elem, mem + lane * elemSize);
    if (out.kind == RtValue::Kind::VecFloat) {
      out.vf[lane] = v.f;
    } else {
      out.vi[lane] = v.i;
    }
  }
  return out;
}

void ReferenceExecutor::storeTo(WorkItem& wi, const PtrVal& ptr,
                                const ir::Type* type, const RtValue& value,
                                std::uint32_t instSlot) {
  const std::uint64_t size = type->sizeInBytes();
  std::uint64_t traceAddr = 0;
  std::byte* mem = resolve(wi, ptr, size, traceAddr);
  if (sink_ != nullptr) {
    sink_->onAccess({ptr.space, traceAddr, static_cast<std::uint32_t>(size),
                     true, group_linear_, wi.linear, instSlot});
  }
  // Store lane `lane` of `value` (the scalar payload when `vector` is
  // false), reading only the payload member the type selects.
  auto writeScalar = [&](const ir::Type* t, std::byte* p, bool vector,
                         unsigned lane) {
    const auto asInt = [&] { return vector ? value.vi[lane] : value.i; };
    const auto asFloat = [&] { return vector ? value.vf[lane] : value.f; };
    switch (t->kind()) {
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
        throw GroverError("store of unsupported type " + t->str());
    }
  };
  if (!type->isVector()) {
    writeScalar(type, mem, false, 0);
    return;
  }
  const Type* elem = type->element();
  const std::uint64_t elemSize = elem->sizeInBytes();
  for (unsigned lane = 0; lane < type->lanes(); ++lane) {
    writeScalar(elem, mem + lane * elemSize, true, lane);
  }
}

namespace {

std::int64_t finalizeInt(const ir::Type* t, std::int64_t v) {
  switch (t->kind()) {
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

}  // namespace

RtValue ReferenceExecutor::evalBinary(const ir::BinaryInst* bin,
                                      const RtValue& l, const RtValue& r) {
  const Type* t = bin->type();
  if (t->isVector()) {
    const Type* elem = t->element();
    if (isFloatOp(bin->op())) {
      RtValue out = RtValue::ofVecFloat(static_cast<std::uint8_t>(t->lanes()));
      const bool single = elem->kind() == TypeKind::Float;
      for (unsigned i = 0; i < t->lanes(); ++i) {
        out.vf[i] = floatOp(bin->op(), l.vf[i], r.vf[i], single);
      }
      return out;
    }
    RtValue out = RtValue::ofVecInt(static_cast<std::uint8_t>(t->lanes()));
    for (unsigned i = 0; i < t->lanes(); ++i) {
      out.vi[i] = finalizeInt(elem, intOp(bin->op(), l.vi[i], r.vi[i]));
    }
    return out;
  }
  if (isFloatOp(bin->op())) {
    return RtValue::ofFloat(
        floatOp(bin->op(), l.f, r.f, t->kind() == TypeKind::Float));
  }
  // Pointer arithmetic never reaches BinaryInst (GEP handles it).
  return RtValue::ofInt(finalizeInt(t, intOp(bin->op(), l.i, r.i)));
}

RtValue ReferenceExecutor::evalCall(WorkItem& wi, const ir::CallInst* call) {
  const NDRange& range = image_.range();
  auto dimArg = [&](unsigned i) -> unsigned {
    const std::int64_t d = eval(wi, call->arg(i)).i;
    return d >= 0 && d < 3 ? static_cast<unsigned>(d) : 3;
  };
  switch (call->builtin()) {
    case Builtin::GetGlobalId: {
      const unsigned d = dimArg(0);
      counters_.other += 1;
      if (d >= 3) return RtValue::ofInt(0);
      return RtValue::ofInt(std::int64_t{group_[d]} * range.local[d] +
                            wi.localId[d]);
    }
    case Builtin::GetLocalId: {
      const unsigned d = dimArg(0);
      counters_.other += 1;
      return RtValue::ofInt(d < 3 ? wi.localId[d] : 0);
    }
    case Builtin::GetGroupId: {
      const unsigned d = dimArg(0);
      counters_.other += 1;
      return RtValue::ofInt(d < 3 ? group_[d] : 0);
    }
    case Builtin::GetGlobalSize: {
      const unsigned d = dimArg(0);
      counters_.other += 1;
      return RtValue::ofInt(d < 3 ? range.global[d] : 1);
    }
    case Builtin::GetLocalSize: {
      const unsigned d = dimArg(0);
      counters_.other += 1;
      return RtValue::ofInt(d < 3 ? range.local[d] : 1);
    }
    case Builtin::GetNumGroups: {
      const unsigned d = dimArg(0);
      counters_.other += 1;
      return RtValue::ofInt(d < 3 ? range.numGroups()[d] : 1);
    }
    case Builtin::GetWorkDim:
      counters_.other += 1;
      return RtValue::ofInt(range.dims);
    case Builtin::Barrier:
      throw GroverError("barrier handled by scheduler");
    default:
      break;
  }

  counters_.mathCall += 1;
  const Type* t = call->type();
  const bool single = t->kind() == TypeKind::Float;
  auto f1 = [&](double (*fn)(double)) {
    const double x = eval(wi, call->arg(0)).f;
    return RtValue::ofFloat(single ? static_cast<float>(
                                         fn(static_cast<float>(x)))
                                   : fn(x));
  };
  switch (call->builtin()) {
    case Builtin::Sqrt: return f1(std::sqrt);
    case Builtin::RSqrt: {
      const double x = eval(wi, call->arg(0)).f;
      return RtValue::ofFloat(
          single ? 1.0F / std::sqrt(static_cast<float>(x))
                 : 1.0 / std::sqrt(x));
    }
    case Builtin::Fabs: return f1(std::fabs);
    case Builtin::Exp: return f1(std::exp);
    case Builtin::Log: return f1(std::log);
    case Builtin::Sin: return f1(std::sin);
    case Builtin::Cos: return f1(std::cos);
    case Builtin::Floor: return f1(std::floor);
    case Builtin::Ceil: return f1(std::ceil);
    case Builtin::Pow: {
      const double a = eval(wi, call->arg(0)).f;
      const double b = eval(wi, call->arg(1)).f;
      return RtValue::ofFloat(single ? std::pow(static_cast<float>(a),
                                                static_cast<float>(b))
                                     : std::pow(a, b));
    }
    case Builtin::FMin:
    case Builtin::FMax: {
      const double a = eval(wi, call->arg(0)).f;
      const double b = eval(wi, call->arg(1)).f;
      const bool isMin = call->builtin() == Builtin::FMin;
      return RtValue::ofFloat(isMin ? std::fmin(a, b) : std::fmax(a, b));
    }
    case Builtin::Fma:
    case Builtin::Mad: {
      const double a = eval(wi, call->arg(0)).f;
      const double b = eval(wi, call->arg(1)).f;
      const double c = eval(wi, call->arg(2)).f;
      if (single) {
        return RtValue::ofFloat(static_cast<float>(a) * static_cast<float>(b) +
                                static_cast<float>(c));
      }
      return RtValue::ofFloat(a * b + c);
    }
    case Builtin::IMin:
    case Builtin::IMax: {
      if (t->isFloatingPoint()) {
        const double a = eval(wi, call->arg(0)).f;
        const double b = eval(wi, call->arg(1)).f;
        return RtValue::ofFloat(call->builtin() == Builtin::IMin
                                    ? std::fmin(a, b)
                                    : std::fmax(a, b));
      }
      const std::int64_t a = eval(wi, call->arg(0)).i;
      const std::int64_t b = eval(wi, call->arg(1)).i;
      return RtValue::ofInt(call->builtin() == Builtin::IMin ? std::min(a, b)
                                                             : std::max(a, b));
    }
    case Builtin::IAbs: {
      const std::int64_t a = eval(wi, call->arg(0)).i;
      return RtValue::ofInt(a < 0 ? -a : a);
    }
    case Builtin::Mul24: {
      const auto a = static_cast<std::int32_t>(eval(wi, call->arg(0)).i);
      const auto b = static_cast<std::int32_t>(eval(wi, call->arg(1)).i);
      return RtValue::ofInt(static_cast<std::int32_t>(a * b));
    }
    case Builtin::Mad24: {
      const auto a = static_cast<std::int32_t>(eval(wi, call->arg(0)).i);
      const auto b = static_cast<std::int32_t>(eval(wi, call->arg(1)).i);
      const auto c = static_cast<std::int32_t>(eval(wi, call->arg(2)).i);
      return RtValue::ofInt(static_cast<std::int32_t>(a * b + c));
    }
    case Builtin::Clamp: {
      if (t->isFloatingPoint()) {
        const double x = eval(wi, call->arg(0)).f;
        const double lo = eval(wi, call->arg(1)).f;
        const double hi = eval(wi, call->arg(2)).f;
        return RtValue::ofFloat(std::fmin(std::fmax(x, lo), hi));
      }
      const std::int64_t x = eval(wi, call->arg(0)).i;
      const std::int64_t lo = eval(wi, call->arg(1)).i;
      const std::int64_t hi = eval(wi, call->arg(2)).i;
      return RtValue::ofInt(std::min(std::max(x, lo), hi));
    }
    case Builtin::Dot: {
      const RtValue a = eval(wi, call->arg(0));
      const RtValue b = eval(wi, call->arg(1));
      float acc = 0.0F;
      for (unsigned i = 0; i < a.lanes; ++i) {
        acc += static_cast<float>(a.vf[i]) * static_cast<float>(b.vf[i]);
      }
      return RtValue::ofFloat(acc);
    }
    default:
      throw GroverError("unsupported builtin call");
  }
}

void ReferenceExecutor::exec(WorkItem& wi, const ir::Instruction* inst) {
  switch (inst->kind()) {
    case ValueKind::InstAlloca: {
      const auto* alloca = cast<AllocaInst>(inst);
      PtrVal ptr{};
      ptr.space = alloca->space();
      ptr.offset = image_.allocaOffset(alloca);
      slot(wi, inst) = RtValue::ofPtr(ptr);
      counters_.other += 1;
      return;
    }
    case ValueKind::InstGep: {
      const auto* gep = cast<GepInst>(inst);
      RtValue base = eval(wi, gep->pointer());
      const std::int64_t index = eval(wi, gep->index()).i;
      base.ptr.offset += index * static_cast<std::int64_t>(
                                     gep->type()->element()->sizeInBytes());
      slot(wi, inst) = base;
      counters_.intAlu += 1;
      return;
    }
    case ValueKind::InstLoad: {
      const auto* load = cast<LoadInst>(inst);
      const RtValue ptr = eval(wi, load->pointer());
      slot(wi, inst) = loadFrom(wi, ptr.ptr, load->type(), inst->slot());
      switch (ptr.ptr.space) {
        case AddrSpace::Global:
        case AddrSpace::Constant: counters_.globalLoad += 1; break;
        case AddrSpace::Local: counters_.localLoad += 1; break;
        case AddrSpace::Private: counters_.privateAccess += 1; break;
      }
      return;
    }
    case ValueKind::InstStore: {
      const auto* store = cast<StoreInst>(inst);
      const RtValue ptr = eval(wi, store->pointer());
      const RtValue value = eval(wi, store->value());
      storeTo(wi, ptr.ptr, store->value()->type(), value, inst->slot());
      switch (ptr.ptr.space) {
        case AddrSpace::Global:
        case AddrSpace::Constant: counters_.globalStore += 1; break;
        case AddrSpace::Local: counters_.localStore += 1; break;
        case AddrSpace::Private: counters_.privateAccess += 1; break;
      }
      return;
    }
    case ValueKind::InstBinary: {
      const auto* bin = cast<BinaryInst>(inst);
      slot(wi, inst) = evalBinary(bin, eval(wi, bin->lhs()),
                                  eval(wi, bin->rhs()));
      if (bin->type()->isVector()) {
        counters_.vectorAlu += 1;
      } else if (isFloatOp(bin->op())) {
        counters_.floatAlu += 1;
      } else {
        counters_.intAlu += 1;
      }
      return;
    }
    case ValueKind::InstICmp: {
      const auto* cmp = cast<ICmpInst>(inst);
      const std::int64_t a = eval(wi, cmp->lhs()).i;
      const std::int64_t b = eval(wi, cmp->rhs()).i;
      const auto ua = static_cast<std::uint64_t>(a);
      const auto ub = static_cast<std::uint64_t>(b);
      bool r = false;
      switch (cmp->pred()) {
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
      slot(wi, inst) = RtValue::ofInt(r ? 1 : 0);
      counters_.intAlu += 1;
      return;
    }
    case ValueKind::InstFCmp: {
      const auto* cmp = cast<FCmpInst>(inst);
      const double a = eval(wi, cmp->lhs()).f;
      const double b = eval(wi, cmp->rhs()).f;
      bool r = false;
      switch (cmp->pred()) {
        case CmpPred::OEQ: r = a == b; break;
        case CmpPred::ONE: r = a != b; break;
        case CmpPred::OLT: r = a < b; break;
        case CmpPred::OLE: r = a <= b; break;
        case CmpPred::OGT: r = a > b; break;
        case CmpPred::OGE: r = a >= b; break;
        default:
          throw GroverError("bad fcmp predicate");
      }
      slot(wi, inst) = RtValue::ofInt(r ? 1 : 0);
      counters_.floatAlu += 1;
      return;
    }
    case ValueKind::InstCast: {
      const auto* cast_ = cast<CastInst>(inst);
      const RtValue v = eval(wi, cast_->value());
      const Type* to = cast_->type();
      switch (cast_->op()) {
        case CastOp::SExt:
        case CastOp::Trunc:
          slot(wi, inst) = RtValue::ofInt(finalizeInt(to, v.i));
          break;
        case CastOp::ZExt: {
          std::int64_t raw = v.i;
          const Type* from = cast_->value()->type();
          if (from->isBool()) {
            raw &= 1;
          } else if (from->kind() == TypeKind::Int32) {
            raw = static_cast<std::int64_t>(static_cast<std::uint32_t>(raw));
          }
          slot(wi, inst) = RtValue::ofInt(finalizeInt(to, raw));
          break;
        }
        case CastOp::SIToFP:
        case CastOp::UIToFP: {
          double d = static_cast<double>(v.i);
          if (to->kind() == TypeKind::Float) d = static_cast<float>(d);
          slot(wi, inst) = RtValue::ofFloat(d);
          break;
        }
        case CastOp::FPToSI:
          slot(wi, inst) =
              RtValue::ofInt(finalizeInt(to, static_cast<std::int64_t>(v.f)));
          break;
        case CastOp::FPExt:
          slot(wi, inst) = RtValue::ofFloat(v.f);
          break;
        case CastOp::FPTrunc:
          slot(wi, inst) = RtValue::ofFloat(static_cast<float>(v.f));
          break;
      }
      counters_.intAlu += 1;
      return;
    }
    case ValueKind::InstSelect: {
      const auto* sel = cast<SelectInst>(inst);
      const bool c = eval(wi, sel->condition()).i != 0;
      slot(wi, inst) = eval(wi, c ? sel->ifTrue() : sel->ifFalse());
      counters_.intAlu += 1;
      return;
    }
    case ValueKind::InstExtractElement: {
      const auto* ext = cast<ExtractElementInst>(inst);
      const RtValue vec = eval(wi, ext->vector());
      const auto lane =
          static_cast<unsigned>(eval(wi, ext->index()).i);
      if (lane >= vec.lanes) throw GroverError("extractelement lane OOB");
      slot(wi, inst) = vec.kind == RtValue::Kind::VecFloat
                           ? RtValue::ofFloat(vec.vf[lane])
                           : RtValue::ofInt(vec.vi[lane]);
      counters_.vectorAlu += 1;
      return;
    }
    case ValueKind::InstInsertElement: {
      const auto* ins = cast<InsertElementInst>(inst);
      RtValue vec = eval(wi, ins->vector());
      const RtValue scalar = eval(wi, ins->scalar());
      const auto lane = static_cast<unsigned>(eval(wi, ins->index()).i);
      // Undef vectors arrive with the right lane count from eval().
      if (vec.lanes == 1) {
        const Type* t = ins->type();
        vec = t->element()->isFloatingPoint()
                  ? RtValue::ofVecFloat(static_cast<std::uint8_t>(t->lanes()))
                  : RtValue::ofVecInt(static_cast<std::uint8_t>(t->lanes()));
      }
      if (lane >= vec.lanes) throw GroverError("insertelement lane OOB");
      if (vec.kind == RtValue::Kind::VecFloat) {
        vec.vf[lane] = scalar.f;
      } else {
        vec.vi[lane] = scalar.i;
      }
      slot(wi, inst) = vec;
      counters_.vectorAlu += 1;
      return;
    }
    case ValueKind::InstPhi:
      throw GroverError("phi executed outside block entry");
    default:
      throw GroverError("unsupported instruction in interpreter: " +
                        inst->opcodeName());
  }
}

}  // namespace grover::rt
