#include "rt/decode.h"

#include "ir/basic_block.h"
#include "ir/casting.h"
#include "support/diagnostics.h"

namespace grover::rt {

using namespace ir;

namespace {

RtValue undefValue(const Type* t) {
  if (t->isVector()) {
    return t->element()->isFloatingPoint()
               ? RtValue::ofVecFloat(static_cast<std::uint8_t>(t->lanes()))
               : RtValue::ofVecInt(static_cast<std::uint8_t>(t->lanes()));
  }
  if (t->isFloatingPoint()) return RtValue::ofFloat(0.0);
  return RtValue::ofInt(0);
}

bool isIdQuery(Builtin b) {
  switch (b) {
    case Builtin::GetGlobalId:
    case Builtin::GetLocalId:
    case Builtin::GetGroupId:
    case Builtin::GetGlobalSize:
    case Builtin::GetLocalSize:
    case Builtin::GetNumGroups:
    case Builtin::GetWorkDim:
      return true;
    default:
      return false;
  }
}

/// Operands a math builtin reads at execution time (seed interpreter order).
unsigned mathArgCount(Builtin b) {
  switch (b) {
    case Builtin::Sqrt:
    case Builtin::RSqrt:
    case Builtin::Fabs:
    case Builtin::Exp:
    case Builtin::Log:
    case Builtin::Sin:
    case Builtin::Cos:
    case Builtin::Floor:
    case Builtin::Ceil:
    case Builtin::IAbs:
      return 1;
    case Builtin::Pow:
    case Builtin::FMin:
    case Builtin::FMax:
    case Builtin::IMin:
    case Builtin::IMax:
    case Builtin::Mul24:
    case Builtin::Dot:
      return 2;
    case Builtin::Fma:
    case Builtin::Mad:
    case Builtin::Mad24:
    case Builtin::Clamp:
      return 3;
    default:
      return 0;
  }
}

}  // namespace

DecodedKernel DecodedKernel::build(
    const ir::Function& fn,
    const std::unordered_map<const ir::AllocaInst*, std::int64_t>&
        allocaOffsets) {
  DecodedKernel dk;

  std::unordered_map<const Value*, DRef> constCache;
  auto poolValue = [&dk](const RtValue& v) -> DRef {
    dk.constants_.push_back(v);
    return -static_cast<DRef>(dk.constants_.size());
  };
  auto refFor = [&](const Value* v) -> DRef {
    if (v->isConstant()) {
      auto it = constCache.find(v);
      if (it != constCache.end()) return it->second;
      RtValue rv;
      switch (v->kind()) {
        case ValueKind::ConstantInt:
          rv = RtValue::ofInt(cast<ConstantInt>(v)->value());
          break;
        case ValueKind::ConstantFloat:
          rv = RtValue::ofFloat(cast<ConstantFloat>(v)->value());
          break;
        default:
          rv = undefValue(v->type());
          break;
      }
      const DRef ref = poolValue(rv);
      constCache.emplace(v, ref);
      return ref;
    }
    return static_cast<DRef>(v->slot());
  };

  auto messageIndex = [&dk](std::string msg) -> std::int64_t {
    dk.messages_.push_back(std::move(msg));
    return static_cast<std::int64_t>(dk.messages_.size() - 1);
  };
  auto makeTrap = [&](std::string msg) -> DInst {
    DInst d;
    d.op = DOp::Trap;
    d.imm = messageIndex(std::move(msg));
    return d;
  };

  /// Load/store shape; false if the scalar kind is not interpretable (the
  /// executed Trap then reproduces the seed's runtime error message).
  auto decodeMemShape = [](DInst& d, const Type* t) -> bool {
    d.memSize = static_cast<std::uint32_t>(t->sizeInBytes());
    const Type* scalar = t->isVector() ? t->element() : t;
    switch (scalar->kind()) {
      case TypeKind::Bool:
      case TypeKind::Int32:
      case TypeKind::Int64:
      case TypeKind::Float:
      case TypeKind::Double:
        break;
      default:
        return false;
    }
    d.tkind = scalar->kind();
    if (t->isVector()) {
      d.lanes = static_cast<std::uint8_t>(t->lanes());
      d.elemSize = static_cast<std::uint32_t>(scalar->sizeInBytes());
      d.elemIsFloat = scalar->isFloatingPoint();
    } else {
      d.lanes = 0;
      d.elemSize = d.memSize;
      d.elemIsFloat = scalar->isFloatingPoint();
    }
    return true;
  };

  const std::vector<BasicBlock*> blocks = fn.blockList();
  std::unordered_map<const BasicBlock*, std::uint32_t> blockPc;
  struct PendingEdge {
    std::size_t codeIdx;
    int which;  // 0 = imm (Br), 1 = b (true), 2 = c (false)
    const BasicBlock* from;
    const BasicBlock* to;
  };
  std::vector<PendingEdge> pendingEdges;

  for (const BasicBlock* bb : blocks) {
    blockPc[bb] = static_cast<std::uint32_t>(dk.code_.size());
    // enterBlock skips head phis; the entry block is entered directly, so a
    // phi there executes (and faults) like any other stray phi.
    bool pastPhis = bb == fn.entry();
    for (const auto& owned : *bb) {
      const Instruction* inst = owned.get();
      if (!pastPhis && isa<PhiInst>(inst)) continue;
      pastPhis = true;

      DInst d;
      switch (inst->kind()) {
        case ValueKind::InstAlloca: {
          const auto* alloca = cast<AllocaInst>(inst);
          auto it = allocaOffsets.find(alloca);
          if (it == allocaOffsets.end()) {
            d = makeTrap("alloca outside the entry block is unsupported");
            break;
          }
          PtrVal ptr{};
          ptr.space = alloca->space();
          ptr.offset = it->second;
          d.op = DOp::Alloca;
          d.dest = static_cast<DRef>(inst->slot());
          d.a = poolValue(RtValue::ofPtr(ptr));
          break;
        }
        case ValueKind::InstGep: {
          const auto* gep = cast<GepInst>(inst);
          d.op = DOp::Gep;
          d.dest = static_cast<DRef>(inst->slot());
          d.a = refFor(gep->pointer());
          d.b = refFor(gep->index());
          d.elemSize = static_cast<std::uint32_t>(
              gep->type()->element()->sizeInBytes());
          break;
        }
        case ValueKind::InstLoad: {
          const auto* load = cast<LoadInst>(inst);
          const Type* t = load->type();
          if (!decodeMemShape(d, t)) {
            const Type* scalar = t->isVector() ? t->element() : t;
            d = makeTrap("load of unsupported type " + scalar->str());
            break;
          }
          d.op = DOp::Load;
          d.dest = static_cast<DRef>(inst->slot());
          d.a = refFor(load->pointer());
          d.instSlot = inst->slot();
          break;
        }
        case ValueKind::InstStore: {
          const auto* store = cast<StoreInst>(inst);
          const Type* t = store->value()->type();
          if (!decodeMemShape(d, t)) {
            const Type* scalar = t->isVector() ? t->element() : t;
            d = makeTrap("store of unsupported type " + scalar->str());
            break;
          }
          d.op = DOp::Store;
          d.a = refFor(store->value());
          d.b = refFor(store->pointer());
          d.instSlot = inst->slot();
          break;
        }
        case ValueKind::InstBinary: {
          const auto* bin = cast<BinaryInst>(inst);
          const Type* t = bin->type();
          const bool fp = isFloatOp(bin->op());
          if (t->isVector()) {
            d.op = fp ? DOp::BinVecFloat : DOp::BinVecInt;
            d.tkind = t->element()->kind();
            d.lanes = static_cast<std::uint8_t>(t->lanes());
          } else {
            d.op = fp ? DOp::BinFloat : DOp::BinInt;
            d.tkind = t->kind();
          }
          d.sub = static_cast<std::uint8_t>(bin->op());
          d.dest = static_cast<DRef>(inst->slot());
          d.a = refFor(bin->lhs());
          d.b = refFor(bin->rhs());
          break;
        }
        case ValueKind::InstICmp: {
          const auto* cmp = cast<ICmpInst>(inst);
          if (cmp->pred() > CmpPred::UGE) {
            d = makeTrap("bad icmp predicate");
            break;
          }
          d.op = DOp::ICmp;
          d.sub = static_cast<std::uint8_t>(cmp->pred());
          d.dest = static_cast<DRef>(inst->slot());
          d.a = refFor(cmp->lhs());
          d.b = refFor(cmp->rhs());
          break;
        }
        case ValueKind::InstFCmp: {
          const auto* cmp = cast<FCmpInst>(inst);
          if (cmp->pred() < CmpPred::OEQ) {
            d = makeTrap("bad fcmp predicate");
            break;
          }
          d.op = DOp::FCmp;
          d.sub = static_cast<std::uint8_t>(cmp->pred());
          d.dest = static_cast<DRef>(inst->slot());
          d.a = refFor(cmp->lhs());
          d.b = refFor(cmp->rhs());
          break;
        }
        case ValueKind::InstCast: {
          const auto* cst = cast<CastInst>(inst);
          d.op = DOp::Cast;
          d.sub = static_cast<std::uint8_t>(cst->op());
          d.tkind = cst->type()->kind();
          d.srcKind = cst->value()->type()->kind();
          d.dest = static_cast<DRef>(inst->slot());
          d.a = refFor(cst->value());
          break;
        }
        case ValueKind::InstSelect: {
          const auto* sel = cast<SelectInst>(inst);
          d.op = DOp::Select;
          d.dest = static_cast<DRef>(inst->slot());
          d.a = refFor(sel->condition());
          d.b = refFor(sel->ifTrue());
          d.c = refFor(sel->ifFalse());
          break;
        }
        case ValueKind::InstPhi:
          d = makeTrap("phi executed outside block entry");
          break;
        case ValueKind::InstCall: {
          const auto* call = cast<CallInst>(inst);
          const Builtin b = call->builtin();
          if (b == Builtin::Barrier) {
            d.op = DOp::Barrier;
            break;
          }
          if (isIdQuery(b)) {
            if (b != Builtin::GetWorkDim && call->numArgs() == 0) {
              d = makeTrap("operand index out of range");
              break;
            }
            d.op = DOp::IdQuery;
            d.sub = static_cast<std::uint8_t>(b);
            d.dest = static_cast<DRef>(inst->slot());
            if (call->numArgs() > 0) d.a = refFor(call->arg(0));
            break;
          }
          const unsigned needed = mathArgCount(b);
          if (needed == 0) {
            d = makeTrap("unsupported builtin call");
            break;
          }
          if (call->numArgs() < needed) {
            d = makeTrap("operand index out of range");
            break;
          }
          d.op = DOp::MathCall;
          d.sub = static_cast<std::uint8_t>(b);
          d.tkind = call->type()->kind();
          d.dest = static_cast<DRef>(inst->slot());
          d.a = refFor(call->arg(0));
          if (needed > 1) d.b = refFor(call->arg(1));
          if (needed > 2) d.c = refFor(call->arg(2));
          break;
        }
        case ValueKind::InstBr: {
          d.op = DOp::Br;
          pendingEdges.push_back({dk.code_.size(), 0, bb,
                                  cast<BrInst>(inst)->dest()});
          break;
        }
        case ValueKind::InstCondBr: {
          const auto* br = cast<CondBrInst>(inst);
          d.op = DOp::CondBr;
          d.a = refFor(br->condition());
          pendingEdges.push_back({dk.code_.size(), 1, bb, br->ifTrue()});
          pendingEdges.push_back({dk.code_.size(), 2, bb, br->ifFalse()});
          break;
        }
        case ValueKind::InstRet:
          d.op = DOp::Ret;
          break;
        case ValueKind::InstExtractElement: {
          const auto* ext = cast<ExtractElementInst>(inst);
          d.op = DOp::ExtractElement;
          d.dest = static_cast<DRef>(inst->slot());
          d.a = refFor(ext->vector());
          d.b = refFor(ext->index());
          break;
        }
        case ValueKind::InstInsertElement: {
          const auto* ins = cast<InsertElementInst>(inst);
          const Type* t = ins->type();
          d.op = DOp::InsertElement;
          d.dest = static_cast<DRef>(inst->slot());
          d.a = refFor(ins->vector());
          d.b = refFor(ins->scalar());
          d.c = refFor(ins->index());
          d.lanes = static_cast<std::uint8_t>(t->lanes());
          d.elemIsFloat = t->element()->isFloatingPoint();
          break;
        }
        default:
          d = makeTrap("unsupported instruction in interpreter: " +
                       inst->opcodeName());
          break;
      }
      dk.code_.push_back(d);
    }
    // A block whose instruction list does not end in a terminator runs off
    // its end at execution time, exactly as the tree-walking interpreter
    // reported it.
    if (bb->empty() || !bb->terminator()->isTerminator()) {
      dk.code_.push_back(makeTrap("fell off the end of a basic block"));
    }
  }

  // Resolve branch edges and their phi moves. A malformed edge (phi without
  // an incoming value for the predecessor) is deferred to execution time by
  // routing the edge to a trap stub, matching the seed's runtime error.
  for (const PendingEdge& pe : pendingEdges) {
    DEdge edge;
    edge.phiBegin = static_cast<std::uint32_t>(dk.phi_copies_.size());
    edge.targetPc = blockPc.at(pe.to);
    try {
      for (const PhiInst* phi : pe.to->phis()) {
        dk.phi_copies_.push_back(
            {static_cast<std::int32_t>(phi->slot()),
             refFor(phi->incomingForBlock(pe.from))});
      }
    } catch (const GroverError& e) {
      dk.phi_copies_.resize(edge.phiBegin);
      edge.targetPc = static_cast<std::uint32_t>(dk.code_.size());
      dk.code_.push_back(makeTrap(e.what()));
    }
    edge.phiEnd = static_cast<std::uint32_t>(dk.phi_copies_.size());
    for (std::uint32_t i = edge.phiBegin; !edge.phiOverlap && i < edge.phiEnd;
         ++i) {
      for (std::uint32_t j = edge.phiBegin; j < edge.phiEnd; ++j) {
        if (dk.phi_copies_[j].src == dk.phi_copies_[i].dest) {
          edge.phiOverlap = true;
          break;
        }
      }
    }
    const auto edgeIndex = static_cast<std::int64_t>(dk.edges_.size());
    dk.edges_.push_back(edge);
    DInst& site = dk.code_[pe.codeIdx];
    if (pe.which == 0) {
      site.imm = edgeIndex;
    } else if (pe.which == 1) {
      site.b = static_cast<DRef>(edgeIndex);
    } else {
      site.c = static_cast<DRef>(edgeIndex);
    }
  }

  if (fn.entry() != nullptr) dk.entry_pc_ = blockPc.at(fn.entry());
  return dk;
}

}  // namespace grover::rt
