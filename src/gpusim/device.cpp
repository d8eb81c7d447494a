#include "gpusim/device.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/worker_pool.hpp"

namespace hauberk::gpusim {

using kir::BinOp;
using kir::BuiltinVal;
using kir::DType;
using kir::Instr;
using kir::OpCode;
using kir::UnOp;

const char* exec_engine_name(ExecEngine e) noexcept {
  switch (e) {
    case ExecEngine::Fast: return "fast";
    case ExecEngine::Reference: return "reference";
    case ExecEngine::Sanitizer: return "sanitizer";
    case ExecEngine::Threaded: return "threaded";
  }
  return "?";
}

const char* launch_status_name(LaunchStatus s) noexcept {
  switch (s) {
    case LaunchStatus::Ok: return "ok";
    case LaunchStatus::CrashOutOfBounds: return "crash-oob";
    case LaunchStatus::CrashSharedOutOfBounds: return "crash-shared-oob";
    case LaunchStatus::CrashDivByZero: return "crash-divzero";
    case LaunchStatus::CrashInvalidInstr: return "crash-invalid-instr";
    case LaunchStatus::CrashBarrierDeadlock: return "crash-barrier-deadlock";
    case LaunchStatus::Hang: return "hang";
    case LaunchStatus::LaunchFailure: return "launch-failure";
    case LaunchStatus::DeviceDisabled: return "device-disabled";
    case LaunchStatus::EccUncorrectable: return "ecc-uncorrectable";
  }
  return "?";
}

Device::Device(DeviceProps props)
    : props_(props),
      mem_(std::make_unique<DeviceMemory>(props.memory_model, props.global_mem_words,
                                          props.protection)) {}

Device::~Device() = default;  // out of line: WorkerPool is incomplete in the header

void Device::install_fault(const DeviceFaultModel& fm) {
  fault_ = fm;
  fault_op_counter_.store(0);
  fault_injected_ops_.store(0);
}

void Device::clear_fault() {
  fault_ = DeviceFaultModel{};
  fault_op_counter_.store(0);
  fault_injected_ops_.store(0);
}

namespace {

/// The launch status of a failed DeviceMemory load/store/rmw: crash-oob for
/// an invalid address, the machine-check analog for an uncorrectable ECC
/// error.
constexpr LaunchStatus crash_status_of(MemAccess r) noexcept {
  return r == MemAccess::EccUncorrectable ? LaunchStatus::EccUncorrectable
                                          : LaunchStatus::CrashOutOfBounds;
}

constexpr std::uint32_t aux_op(std::uint32_t aux) noexcept { return aux & 0xffffu; }
constexpr DType aux_type(std::uint32_t aux) noexcept {
  return static_cast<DType>((aux >> 16) & 0xffu);
}

constexpr float as_f(std::uint32_t b) noexcept { return std::bit_cast<float>(b); }
constexpr std::uint32_t f_bits(float v) noexcept { return std::bit_cast<std::uint32_t>(v); }
constexpr std::int32_t as_i(std::uint32_t b) noexcept { return static_cast<std::int32_t>(b); }
constexpr std::uint32_t i_bits(std::int32_t v) noexcept { return static_cast<std::uint32_t>(v); }

/// CUDA-like saturating f32 -> i32 conversion; NaN -> 0.  Shared by the
/// reference evaluator and the opcode table's F2I so the two can never
/// drift.
inline std::uint32_t f2i_sat(std::uint32_t a) noexcept {
  const float x = as_f(a);
  if (std::isnan(x)) return 0;
  if (x >= 2147483648.0f) return 0x7fffffffu;
  if (x < -2147483648.0f) return 0x80000000u;
  return i_bits(static_cast<std::int32_t>(x));
}

/// fmin/fmax tie-breaking on (-0.0, +0.0) is not pinned by IEEE 754, and the
/// compiler may expand the builtin differently at different call sites (the
/// differential fuzzer caught exactly this: fmin(-0.0f, +0.0f) returning a
/// different zero in the fast engine than in eval_bin).  Forcing every
/// engine through these single out-of-line bodies makes the choice —
/// whatever it is — bitwise identical everywhere.
[[gnu::noinline]] std::uint32_t fmin_bits(std::uint32_t a, std::uint32_t b) noexcept {
  return f_bits(std::fmin(as_f(a), as_f(b)));
}
[[gnu::noinline]] std::uint32_t fmax_bits(std::uint32_t a, std::uint32_t b) noexcept {
  return f_bits(std::fmax(as_f(a), as_f(b)));
}

/// f32 arithmetic shared by both engines.  x86 float ops propagate the
/// *first* NaN operand's payload, and GCC may legally commute a float
/// add/mul per call site — so the same `x + y` source can return a
/// different NaN payload in the fast engine than in eval_bin (the fuzzer
/// caught this through a float atomicAdd onto a stored integer that
/// happened to be a NaN bit pattern).  Canonicalizing every NaN result
/// removes the operand-order dependence while staying inlinable.
inline std::uint32_t canon_f(float r) noexcept {
  return r != r ? 0x7fc00000u : f_bits(r);
}
inline std::uint32_t fadd_bits(std::uint32_t a, std::uint32_t b) noexcept {
  return canon_f(as_f(a) + as_f(b));
}
inline std::uint32_t fsub_bits(std::uint32_t a, std::uint32_t b) noexcept {
  return canon_f(as_f(a) - as_f(b));
}
inline std::uint32_t fmul_bits(std::uint32_t a, std::uint32_t b) noexcept {
  return canon_f(as_f(a) * as_f(b));
}
inline std::uint32_t fdiv_bits(std::uint32_t a, std::uint32_t b) noexcept {
  return canon_f(as_f(a) / as_f(b));  // IEEE: /0 -> inf, no trap
}

/// Evaluate a binary op; `crash` set on integer division by zero.
std::uint32_t eval_bin(BinOp op, DType t, std::uint32_t a, std::uint32_t b,
                       bool& crash) noexcept {
  if (t == DType::F32) {
    const float x = as_f(a), y = as_f(b);
    switch (op) {
      case BinOp::Add: return fadd_bits(a, b);
      case BinOp::Sub: return fsub_bits(a, b);
      case BinOp::Mul: return fmul_bits(a, b);
      case BinOp::Div: return fdiv_bits(a, b);
      case BinOp::Mod: return f_bits(std::fmod(x, y));
      case BinOp::Min: return fmin_bits(a, b);
      case BinOp::Max: return fmax_bits(a, b);
      case BinOp::Lt: return x < y;
      case BinOp::Le: return x <= y;
      case BinOp::Gt: return x > y;
      case BinOp::Ge: return x >= y;
      case BinOp::Eq: return x == y;
      case BinOp::Ne: return x != y;
      case BinOp::LogicalAnd: return (x != 0.0f) && (y != 0.0f);
      case BinOp::LogicalOr: return (x != 0.0f) || (y != 0.0f);
      case BinOp::BitAnd: return a & b;
      case BinOp::BitOr: return a | b;
      case BinOp::BitXor: return a ^ b;
      case BinOp::Shl: return a << (b & 31);
      case BinOp::Shr: return a >> (b & 31);
    }
    return 0;
  }
  if (t == DType::PTR) {
    // Pointer (unsigned word) arithmetic.
    switch (op) {
      case BinOp::Add: return a + b;
      case BinOp::Sub: return a - b;
      case BinOp::Mul: return a * b;
      case BinOp::Lt: return a < b;
      case BinOp::Le: return a <= b;
      case BinOp::Gt: return a > b;
      case BinOp::Ge: return a >= b;
      case BinOp::Eq: return a == b;
      case BinOp::Ne: return a != b;
      case BinOp::Min: return a < b ? a : b;
      case BinOp::Max: return a > b ? a : b;
      case BinOp::BitAnd: return a & b;
      case BinOp::BitOr: return a | b;
      case BinOp::BitXor: return a ^ b;
      case BinOp::Shl: return a << (b & 31);
      case BinOp::Shr: return a >> (b & 31);
      case BinOp::Div:
        if (b == 0) { crash = true; return 0; }
        return a / b;
      case BinOp::Mod:
        if (b == 0) { crash = true; return 0; }
        return a % b;
      case BinOp::LogicalAnd: return (a != 0) && (b != 0);
      case BinOp::LogicalOr: return (a != 0) || (b != 0);
    }
    return 0;
  }
  // I32: signed, wraparound via 64-bit intermediates (defined overflow).
  const std::int64_t x = as_i(a), y = as_i(b);
  switch (op) {
    case BinOp::Add: return i_bits(static_cast<std::int32_t>(x + y));
    case BinOp::Sub: return i_bits(static_cast<std::int32_t>(x - y));
    case BinOp::Mul: return i_bits(static_cast<std::int32_t>(x * y));
    case BinOp::Div:
      if (y == 0) { crash = true; return 0; }
      return i_bits(static_cast<std::int32_t>(x / y));
    case BinOp::Mod:
      if (y == 0) { crash = true; return 0; }
      return i_bits(static_cast<std::int32_t>(x % y));
    case BinOp::Min: return i_bits(static_cast<std::int32_t>(x < y ? x : y));
    case BinOp::Max: return i_bits(static_cast<std::int32_t>(x > y ? x : y));
    case BinOp::BitAnd: return a & b;
    case BinOp::BitOr: return a | b;
    case BinOp::BitXor: return a ^ b;
    case BinOp::Shl: return a << (b & 31);
    case BinOp::Shr: return i_bits(as_i(a) >> (b & 31));  // arithmetic shift
    case BinOp::Lt: return x < y;
    case BinOp::Le: return x <= y;
    case BinOp::Gt: return x > y;
    case BinOp::Ge: return x >= y;
    case BinOp::Eq: return x == y;
    case BinOp::Ne: return x != y;
    case BinOp::LogicalAnd: return (x != 0) && (y != 0);
    case BinOp::LogicalOr: return (x != 0) || (y != 0);
  }
  return 0;
}

std::uint32_t eval_un(UnOp op, DType t, std::uint32_t a) noexcept {
  if (t == DType::F32) {
    const float x = as_f(a);
    switch (op) {
      case UnOp::Neg: return f_bits(-x);
      case UnOp::LogicalNot: return x == 0.0f;
      case UnOp::BitNot: return ~a;
      case UnOp::Sqrt: return f_bits(std::sqrt(x));
      case UnOp::Rsqrt: return f_bits(1.0f / std::sqrt(x));
      case UnOp::Abs: return f_bits(std::fabs(x));
      case UnOp::Exp: return f_bits(std::exp(x));
      case UnOp::Log: return f_bits(std::log(x));
      case UnOp::Sin: return f_bits(std::sin(x));
      case UnOp::Cos: return f_bits(std::cos(x));
      case UnOp::Floor: return f_bits(std::floor(x));
      case UnOp::CastF32: return a;
      case UnOp::CastI32: return f2i_sat(a);
    }
    return 0;
  }
  // I32 / PTR source.
  const std::int32_t x = as_i(a);
  switch (op) {
    case UnOp::Neg: return i_bits(-x);
    case UnOp::LogicalNot: return a == 0;
    case UnOp::BitNot: return ~a;
    case UnOp::Abs: return i_bits(x < 0 ? -x : x);
    case UnOp::CastF32:
      return t == DType::PTR ? f_bits(static_cast<float>(a)) : f_bits(static_cast<float>(x));
    case UnOp::CastI32: return a;
    default:
      // Transcendentals on integers: promote, compute, keep float bits
      // (workloads never do this; defined for completeness).
      return eval_un(op, DType::F32, f_bits(static_cast<float>(x)));
  }
}

// ---------------------------------------------------------------------------
// Production opcode semantics
// ---------------------------------------------------------------------------
//
// One table defines what every kir::DecodedOp does in the production
// engines.  The fast switch, the threaded engine's accounted singles and its
// naked (run-interior) singles are expansions of it, and the fused
// superinstructions take their compare/ALU evaluators from it, so those
// engines cannot drift apart.  The reference interpreter (run_thread over
// eval_un/eval_bin) deliberately stays outside: it re-derives every op from
// the raw bytecode as an independent oracle, and the differential fuzzer
// compares the two.
//
// Entries are X(op, kind, semantics), split like the kir master list into
// the ops that may run inside a straight-line run and control transfer
// (plus Invalid), which never does.  Kinds:
//
//   UN   pure result expression over the operand word `a`
//   BIN  pure result expression over the operand words `a` and `b`
//   DIV  BIN that crashes with CrashDivByZero when `b` is zero
//   DO   statement body
//
// UN/BIN/DIV expressions become the inline evaluators op_<op>(a[, b]).  DO
// bodies see the instruction as the pointer `in` (a kir::DecodedInstr or a
// kir::ThreadedInstr), the register file `regs`, the block state, and the
// engine's hooks:
//
//   OP_SET(v)            write result v to regs[in->dst] (the fast engine
//                        applies the hardware fault model to it first)
//   OP_CRASH(status)     stop the thread with a crash status
//   OP_PC                the thread's next pc, for control transfer
//   OP_SHADOW(ev, addr)  sanitizer shadow event on a shared-memory address
//   OP_REG_FAULT(r)      register-file fault model on register r (Mov)
//
// A DO body runs in its own block scope, so its locals (the atomics'
// lock_guard in particular) are gone before the engine dispatches on.

/// Global load with the FlatGpu fast path: the hoisted arena span is valid
/// exactly for addr < gsize (see DeviceMemory::flat_arena); PagedCpu and
/// protected memory take the out-of-line load().
#define OP_GLOAD(DST, ADDR)                                                 \
  {                                                                         \
    const std::uint32_t ga_ = (ADDR);                                       \
    if (gmem) {                                                             \
      if (ga_ >= gsize) OP_CRASH(LaunchStatus::CrashOutOfBounds);           \
      (DST) = gmem[ga_];                                                    \
    } else if (const MemAccess r_ = mem.load(ga_, (DST)); r_ != MemAccess::Ok) { \
      OP_CRASH(crash_status_of(r_));                                        \
    }                                                                       \
  }
/// Atomic read-modify-write add; ADD is the op_ evaluator of the type.
#define OP_ATOMIC_ADD(ADD)                                                  \
  std::lock_guard<std::mutex> lk(dev_.atomic_mutex());                      \
  const std::uint32_t addr = regs[in->a];                                   \
  if (gmem) {                                                               \
    if (addr >= gsize) OP_CRASH(LaunchStatus::CrashOutOfBounds);            \
    mem.note_store(addr);                                                   \
    gmem[addr] = ADD(gmem[addr], regs[in->b]);                              \
  } else if (const MemAccess r_ =                                           \
                 mem.rmw(addr, [&](std::uint32_t w) { return ADD(w, regs[in->b]); }); \
             r_ != MemAccess::Ok) {                                         \
    OP_CRASH(crash_status_of(r_));                                          \
  }

// clang-format off
#define HB_OPS_STRAIGHT(X)                                                              \
  X(Nop, DO, {})                                                                        \
  X(Const, DO, regs[in->dst] = in->imm;)                                                \
  X(Mov, DO, regs[in->dst] = regs[in->a]; OP_REG_FAULT(regs[in->dst]);)                 \
  X(Builtin, DO, regs[in->dst] = builtin_value(t, static_cast<BuiltinVal>(in->aux));)   \
  X(Select, DO,                                                                         \
    regs[in->dst] = regs[in->a] != 0 ? regs[in->b] : regs[static_cast<std::uint16_t>(in->imm)];) \
                                                                                        \
  X(NegF, UN, f_bits(-as_f(a)))                                                         \
  X(NegI, UN, i_bits(-as_i(a)))                                                         \
  X(NotF, UN, as_f(a) == 0.0f)                                                          \
  X(NotW, UN, a == 0)                                                                   \
  X(BitNot, UN, ~a)                                                                     \
  X(AbsF, UN, f_bits(std::fabs(as_f(a))))                                               \
  X(AbsI, UN, i_bits(as_i(a) < 0 ? -as_i(a) : as_i(a)))                                 \
  X(SqrtF, UN, f_bits(std::sqrt(as_f(a))))                                              \
  X(RsqrtF, UN, f_bits(1.0f / std::sqrt(as_f(a))))                                      \
  X(ExpF, UN, f_bits(std::exp(as_f(a))))                                                \
  X(LogF, UN, f_bits(std::log(as_f(a))))                                                \
  X(SinF, UN, f_bits(std::sin(as_f(a))))                                                \
  X(CosF, UN, f_bits(std::cos(as_f(a))))                                                \
  X(FloorF, UN, f_bits(std::floor(as_f(a))))                                            \
  X(I2F, UN, f_bits(static_cast<float>(as_i(a))))                                       \
  X(P2F, UN, f_bits(static_cast<float>(a)))                                             \
  X(F2I, UN, f2i_sat(a))                                                                \
  X(CopyA, UN, a)                                                                       \
  X(UnGeneric, DO,                                                                      \
    OP_SET(eval_un(static_cast<UnOp>(aux_op(in->aux)), aux_type(in->aux), regs[in->a]));) \
                                                                                        \
  X(AddF, BIN, fadd_bits(a, b))                                                         \
  X(SubF, BIN, fsub_bits(a, b))                                                         \
  X(MulF, BIN, fmul_bits(a, b))                                                         \
  X(DivF, BIN, fdiv_bits(a, b))                                                         \
  X(MinF, BIN, fmin_bits(a, b))                                                         \
  X(MaxF, BIN, fmax_bits(a, b))                                                         \
  X(LtF, BIN, as_f(a) < as_f(b))                                                        \
  X(LeF, BIN, as_f(a) <= as_f(b))                                                       \
  X(GtF, BIN, as_f(a) > as_f(b))                                                        \
  X(GeF, BIN, as_f(a) >= as_f(b))                                                       \
  X(EqF, BIN, as_f(a) == as_f(b))                                                       \
  X(NeF, BIN, as_f(a) != as_f(b))                                                       \
  X(AddW, BIN, a + b)                                                                   \
  X(SubW, BIN, a - b)                                                                   \
  X(MulW, BIN, a * b)                                                                   \
  X(DivI, DIV, i_bits(static_cast<std::int32_t>(std::int64_t{as_i(a)} / as_i(b))))      \
  X(ModI, DIV, i_bits(static_cast<std::int32_t>(std::int64_t{as_i(a)} % as_i(b))))      \
  X(DivU, DIV, a / b)                                                                   \
  X(ModU, DIV, a % b)                                                                   \
  X(MinI, BIN, as_i(a) < as_i(b) ? a : b)                                               \
  X(MaxI, BIN, as_i(a) > as_i(b) ? a : b)                                               \
  X(MinU, BIN, a < b ? a : b)                                                           \
  X(MaxU, BIN, a > b ? a : b)                                                           \
  X(LtI, BIN, as_i(a) < as_i(b))                                                        \
  X(LeI, BIN, as_i(a) <= as_i(b))                                                       \
  X(GtI, BIN, as_i(a) > as_i(b))                                                        \
  X(GeI, BIN, as_i(a) >= as_i(b))                                                       \
  X(LtU, BIN, a < b)                                                                    \
  X(LeU, BIN, a <= b)                                                                   \
  X(GtU, BIN, a > b)                                                                    \
  X(GeU, BIN, a >= b)                                                                   \
  X(EqW, BIN, a == b)                                                                   \
  X(NeW, BIN, a != b)                                                                   \
  X(AndB, BIN, a & b)                                                                   \
  X(OrB, BIN, a | b)                                                                    \
  X(XorB, BIN, a ^ b)                                                                   \
  X(ShlB, BIN, a << (b & 31))                                                           \
  X(ShrL, BIN, a >> (b & 31))                                                           \
  X(ShrA, BIN, i_bits(as_i(a) >> (b & 31)))                                             \
  X(LAndW, BIN, (a != 0) && (b != 0))                                                   \
  X(LOrW, BIN, (a != 0) || (b != 0))                                                    \
  X(BinGeneric, DO,                                                                     \
    bool crash = false;                                                                 \
    const std::uint32_t r = eval_bin(static_cast<BinOp>(aux_op(in->aux)),               \
                                     aux_type(in->aux), regs[in->a], regs[in->b], crash); \
    if (crash) OP_CRASH(LaunchStatus::CrashDivByZero);                                  \
    OP_SET(r);)                                                                         \
                                                                                        \
  X(LoadG, DO, OP_GLOAD(regs[in->dst], regs[in->a]))                                    \
  X(StoreG, DO,                                                                         \
    const std::uint32_t addr = regs[in->a];                                             \
    if (gmem) {                                                                         \
      if (addr >= gsize) OP_CRASH(LaunchStatus::CrashOutOfBounds);                      \
      gmem[addr] = regs[in->b];                                                         \
      mem.note_store(addr);                                                             \
    } else if (const MemAccess r_ = mem.store(addr, regs[in->b]); r_ != MemAccess::Ok) { \
      OP_CRASH(crash_status_of(r_));                                                    \
    })                                                                                  \
  X(LoadS, DO,                                                                          \
    const std::uint32_t addr = regs[in->a];                                             \
    if (addr >= ssize) {                                                                \
      OP_SHADOW(on_oob, addr);                                                          \
      OP_CRASH(LaunchStatus::CrashSharedOutOfBounds);                                   \
    }                                                                                   \
    OP_SHADOW(on_load, addr);                                                           \
    regs[in->dst] = shared_[addr];)                                                     \
  X(StoreS, DO,                                                                         \
    const std::uint32_t addr = regs[in->a];                                             \
    if (addr >= ssize) {                                                                \
      OP_SHADOW(on_oob, addr);                                                          \
      OP_CRASH(LaunchStatus::CrashSharedOutOfBounds);                                   \
    }                                                                                   \
    OP_SHADOW(on_store, addr);                                                          \
    shared_[addr] = regs[in->b];)                                                       \
  X(AtomicAddF, DO, OP_ATOMIC_ADD(op_AddF))                                             \
  X(AtomicAddI, DO, OP_ATOMIC_ADD(op_AddW))                                             \
                                                                                        \
  X(ChkXor, DO, regs[in->dst] ^= regs[in->a];)                                          \
  X(ChkValidate, DO, if (regs[in->dst] != 0) sdc = true;)                               \
  X(DupCmp, DO, if (regs[in->a] != regs[in->b]) sdc = true;)                            \
  X(RangeCheck, DO,                                                                     \
    if (opts_.hooks &&                                                                  \
        opts_.hooks->check_range(static_cast<int>(in->aux),                             \
                                 kir::Value{static_cast<DType>(in->t), regs[in->a]}))   \
      sdc = true;)                                                                      \
  X(EqualCheck, DO,                                                                     \
    if (regs[in->a] != regs[in->b]) {                                                   \
      sdc = true;                                                                       \
      if (opts_.hooks) opts_.hooks->equal_check_failed(static_cast<int>(in->aux));      \
    })                                                                                  \
  X(ProfileVal, DO,                                                                     \
    if (opts_.hooks)                                                                    \
      opts_.hooks->profile_value(static_cast<int>(in->aux),                             \
                                 kir::Value{static_cast<DType>(in->t), regs[in->a]});)  \
  X(CountExec, DO, if (opts_.hooks) opts_.hooks->count_exec(in->aux, t.linear);)        \
  X(FIHook, DO, if (opts_.hooks) opts_.hooks->fi_hook(in->aux, t.linear, regs[in->a]);)

#define HB_OPS_CONTROL(X)                                                               \
  X(Jmp, DO, OP_PC = in->aux;)                                                          \
  X(Jz, DO, if (regs[in->a] == 0) OP_PC = in->aux;)                                     \
  X(Barrier, DO, t.barrier_pc = OP_PC - 1; finish(); return ThreadStop::Barrier;)       \
  X(Halt, DO, finish(); t.done = true; return ThreadStop::Done;)                        \
  X(Invalid, DO, OP_CRASH(LaunchStatus::CrashInvalidInstr);)
// clang-format on

/// An op's semantics as a statement, for the expansions.
#define OP_BODY(n, kind, ...) OP_BODY_##kind(n, __VA_ARGS__)
#define OP_BODY_UN(n, ...) OP_SET(op_##n(regs[in->a]));
#define OP_BODY_BIN(n, ...) OP_SET(op_##n(regs[in->a], regs[in->b]));
#define OP_BODY_DIV(n, ...)                                        \
  if (regs[in->b] == 0) OP_CRASH(LaunchStatus::CrashDivByZero);   \
  OP_SET(op_##n(regs[in->a], regs[in->b]));
#define OP_BODY_DO(n, ...) __VA_ARGS__

#define OP_FN(n, kind, ...) OP_FN_##kind(n, __VA_ARGS__)
#define OP_FN_UN(n, ...)                                                          \
  [[gnu::always_inline]] inline std::uint32_t op_##n(std::uint32_t a) noexcept {  \
    return __VA_ARGS__;                                                           \
  }
#define OP_FN_BIN(n, ...)                                                         \
  [[gnu::always_inline]] inline std::uint32_t op_##n(std::uint32_t a,            \
                                                      std::uint32_t b) noexcept { \
    return __VA_ARGS__;                                                           \
  }
#define OP_FN_DIV OP_FN_BIN
#define OP_FN_DO(n, ...)
HB_OPS_STRAIGHT(OP_FN)
#undef OP_FN
#undef OP_FN_UN
#undef OP_FN_BIN
#undef OP_FN_DIV
#undef OP_FN_DO

// The table mirrors the kir master list entry for entry.
#define OP_ENTRY(n, ...) kir::DecodedOp::n,
constexpr kir::DecodedOp kTableStraight[] = {HB_OPS_STRAIGHT(OP_ENTRY)};
constexpr kir::DecodedOp kTableControl[] = {HB_OPS_CONTROL(OP_ENTRY)};
constexpr kir::DecodedOp kListStraight[] = {HAUBERK_DOP_STRAIGHT(OP_ENTRY)};
constexpr kir::DecodedOp kListControl[] = {HAUBERK_DOP_CONTROL(OP_ENTRY) kir::DecodedOp::Invalid};
#undef OP_ENTRY
static_assert(std::ranges::equal(kTableStraight, kListStraight) &&
              std::ranges::equal(kTableControl, kListControl));

enum class ThreadStop : std::uint8_t { Done, Barrier, Crash, Budget };

/// Executes all threads of one block.
class BlockExec {
 public:
  BlockExec(Device& dev, const kir::BytecodeProgram& prog, const LaunchConfig& cfg,
            const LaunchOptions& opts, const std::vector<std::uint32_t>& costs,
            const kir::DecodedProgram& decoded, const kir::ThreadedProgram& threaded,
            ExecEngine engine, std::uint32_t block_linear,
            std::vector<SanitizerReport>* report_sink)
      : dev_(dev), prog_(prog), cfg_(cfg), opts_(opts), costs_(costs),
        dec_(engine != ExecEngine::Reference ? decoded.code.data() : nullptr),
        tcode_(engine == ExecEngine::Threaded && !threaded.code.empty()
                   ? threaded.code.data()
                   : nullptr),
        sites_(decoded.sanitizer_sites.data()),
        block_linear_(block_linear),
        sm_(block_linear % dev.props().num_sms),
        bx_(block_linear % cfg.grid_x), by_(block_linear / cfg.grid_x),
        threads_per_block_(cfg.block_x * cfg.block_y),
        shared_(prog.shared_mem_words, 0u) {
    if (report_sink)
      shadow_ = std::make_unique<SharedShadow>(
          static_cast<std::uint32_t>(shared_.size()), dev.props().warp_size,
          block_linear, *report_sink, opts.sanitize_report_cap);
  }

  LaunchStatus run(std::span<const kir::Value> args);

  std::uint64_t cycles = 0;
  std::uint64_t loop_cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t simt_cycles = 0;
  bool sdc = false;
  std::vector<std::uint64_t> exec_counts;  ///< per-instruction, when profiling
  std::vector<std::uint32_t> thread_counts;  ///< [thread][pc], when SIMT costing
  std::int64_t deadlock_pc = -1;    ///< barrier pc on CrashBarrierDeadlock
  std::int64_t deadlock_site = -1;  ///< its sanitizer site id

  [[nodiscard]] std::uint64_t sanitizer_dropped() const noexcept {
    return shadow_ ? shadow_->dropped() : 0;
  }

 private:
  struct ThreadCtx {
    std::uint32_t pc = 0;
    std::uint64_t budget_used = 0;
    std::uint32_t tx = 0, ty = 0;
    std::uint32_t linear = 0;     // global linear thread id
    std::uint32_t block_index = 0;  // index within the block
    std::uint32_t barrier_pc = 0;   // pc of the barrier this thread last stopped at
    bool done = false;
    std::uint32_t* regs = nullptr;
  };

  ThreadStop run_thread(ThreadCtx& t, LaunchStatus& crash_status);
  template <bool kCounts, bool kSimt, bool kHwFault, bool kSanitize>
  ThreadStop run_thread_fast(ThreadCtx& t, LaunchStatus& crash_status);
  ThreadStop run_thread_threaded(ThreadCtx& t, LaunchStatus& crash_status);
  ThreadStop step_thread(ThreadCtx& t, LaunchStatus& crash_status);
  void finish_simt_cost();
  std::uint32_t builtin_value(const ThreadCtx& t, BuiltinVal b) const noexcept;
  void maybe_hw_fault(std::uint32_t& bits, DType t) noexcept;
  [[nodiscard]] std::int64_t site_of(std::uint32_t pc) const noexcept {
    const std::uint32_t s = sites_[pc];
    return s == kir::kNoSite ? -1 : static_cast<std::int64_t>(s);
  }

  Device& dev_;
  const kir::BytecodeProgram& prog_;
  const LaunchConfig& cfg_;
  const LaunchOptions& opts_;
  const std::vector<std::uint32_t>& costs_;
  const kir::DecodedInstr* dec_;  ///< fast-engine stream; nullptr -> reference
  const kir::ThreadedInstr* tcode_;  ///< threaded-code stream; non-null only for Threaded
  const std::uint32_t* sites_;    ///< per-pc sanitizer site ids (all engines)
  std::uint32_t block_linear_, sm_, bx_, by_, threads_per_block_;
  std::vector<std::uint32_t> shared_;
  std::unique_ptr<SharedShadow> shadow_;  ///< non-null only under ExecEngine::Sanitizer
  std::uint32_t epoch_ = 0;  ///< barrier epoch, bumped at every successful release
  int fast_mode_ = -1;  ///< run(): -1 reference, else fast specialization index
};

std::uint32_t BlockExec::builtin_value(const ThreadCtx& t, BuiltinVal b) const noexcept {
  switch (b) {
    case BuiltinVal::ThreadIdxX: return t.tx;
    case BuiltinVal::ThreadIdxY: return t.ty;
    case BuiltinVal::BlockIdxX: return bx_;
    case BuiltinVal::BlockIdxY: return by_;
    case BuiltinVal::BlockDimX: return cfg_.block_x;
    case BuiltinVal::BlockDimY: return cfg_.block_y;
    case BuiltinVal::GridDimX: return cfg_.grid_x;
    case BuiltinVal::GridDimY: return cfg_.grid_y;
    case BuiltinVal::ThreadLinear: return t.linear;
  }
  return 0;
}

void BlockExec::maybe_hw_fault(std::uint32_t& bits, DType t) noexcept {
  // Slow path: only entered when a device fault model is installed.
  const DeviceFaultModel& fm = dev_.fault_;
  if (sm_ != fm.sm) return;
  const bool is_fp = t == DType::F32;
  if (fm.component == DeviceFaultModel::Component::ALU && is_fp) return;
  if (fm.component == DeviceFaultModel::Component::FPU && !is_fp) return;
  const std::uint64_t n = dev_.fault_op_counter_.fetch_add(1, std::memory_order_relaxed);
  if (fm.period > 1 && (n % fm.period) != 0) return;
  if (fm.kind != DeviceFaultModel::Kind::Permanent && fm.duration_ops > 0) {
    // Check-then-increment: the counter records *actual* injections so the
    // fault expires after exactly duration_ops corruptions.  (A concurrent
    // race could inject one extra op; fault experiments run deterministic
    // single-block configurations where this cannot happen.)
    if (dev_.fault_injected_ops_.load(std::memory_order_relaxed) >= fm.duration_ops) return;
    dev_.fault_injected_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  bits ^= fm.mask;
}

ThreadStop BlockExec::run_thread(ThreadCtx& t, LaunchStatus& crash_status) {
  const Instr* code = prog_.code.data();
  std::uint32_t* regs = t.regs;
  DeviceMemory& mem = dev_.mem();
  const bool hw_fault = dev_.has_fault();
  std::uint64_t local_cycles = 0, local_loop = 0, local_instr = 0;

  auto finish = [&] {
    cycles += local_cycles;
    loop_cycles += local_loop;
    instructions += local_instr;
    t.budget_used += local_instr;
  };

  for (;;) {
    if (local_instr + t.budget_used > opts_.watchdog_instructions) {
      finish();
      return ThreadStop::Budget;
    }
    const Instr& in = code[t.pc];
    const std::uint32_t c = costs_[t.pc];
    local_cycles += c;
    if (in.flags & kir::kInstrInLoop) local_loop += c;
    ++local_instr;
    if (!exec_counts.empty()) ++exec_counts[t.pc];
    if (!thread_counts.empty())
      ++thread_counts[static_cast<std::size_t>(t.block_index) * prog_.code.size() + t.pc];
    ++t.pc;

    switch (in.op) {
      case OpCode::Nop:
        break;
      case OpCode::Const:
        regs[in.dst] = in.imm;
        break;
      case OpCode::Mov:
        regs[in.dst] = regs[in.a];
        if (hw_fault && dev_.fault_.component == DeviceFaultModel::Component::RegisterFile)
          maybe_hw_fault(regs[in.dst], DType::I32);
        break;
      case OpCode::Builtin:
        regs[in.dst] = builtin_value(t, static_cast<BuiltinVal>(in.aux));
        break;
      case OpCode::Un: {
        std::uint32_t r = eval_un(static_cast<UnOp>(aux_op(in.aux)), aux_type(in.aux), regs[in.a]);
        if (hw_fault) maybe_hw_fault(r, aux_type(in.aux));
        regs[in.dst] = r;
        break;
      }
      case OpCode::Bin: {
        bool crash = false;
        std::uint32_t r = eval_bin(static_cast<BinOp>(aux_op(in.aux)), aux_type(in.aux),
                                   regs[in.a], regs[in.b], crash);
        if (crash) {
          crash_status = LaunchStatus::CrashDivByZero;
          finish();
          return ThreadStop::Crash;
        }
        if (hw_fault) maybe_hw_fault(r, aux_type(in.aux));
        regs[in.dst] = r;
        break;
      }
      case OpCode::Select:
        regs[in.dst] = regs[in.a] != 0 ? regs[in.b] : regs[static_cast<std::uint16_t>(in.imm)];
        break;
      case OpCode::LoadG:
        if (const MemAccess r = mem.load(regs[in.a], regs[in.dst]); r != MemAccess::Ok) {
          crash_status = crash_status_of(r);
          finish();
          return ThreadStop::Crash;
        }
        break;
      case OpCode::StoreG:
        if (const MemAccess r = mem.store(regs[in.a], regs[in.b]); r != MemAccess::Ok) {
          crash_status = crash_status_of(r);
          finish();
          return ThreadStop::Crash;
        }
        break;
      case OpCode::LoadS:
        if (regs[in.a] >= shared_.size()) {
          crash_status = LaunchStatus::CrashSharedOutOfBounds;
          finish();
          return ThreadStop::Crash;
        }
        regs[in.dst] = shared_[regs[in.a]];
        break;
      case OpCode::StoreS:
        if (regs[in.a] >= shared_.size()) {
          crash_status = LaunchStatus::CrashSharedOutOfBounds;
          finish();
          return ThreadStop::Crash;
        }
        shared_[regs[in.a]] = regs[in.b];
        break;
      case OpCode::AtomicAddG: {
        std::lock_guard<std::mutex> lk(dev_.atomic_mutex());
        const MemAccess r =
            aux_type(in.aux) == DType::F32
                ? mem.rmw(regs[in.a],
                          [&](std::uint32_t w) { return fadd_bits(w, regs[in.b]); })
                : mem.rmw(regs[in.a], [&](std::uint32_t w) {
                    return i_bits(static_cast<std::int32_t>(
                        static_cast<std::int64_t>(as_i(w)) + as_i(regs[in.b])));
                  });
        if (r != MemAccess::Ok) {
          crash_status = crash_status_of(r);
          finish();
          return ThreadStop::Crash;
        }
        break;
      }
      case OpCode::Jmp:
        t.pc = in.aux;
        break;
      case OpCode::Jz:
        if (regs[in.a] == 0) t.pc = in.aux;
        break;
      case OpCode::Barrier:
        t.barrier_pc = t.pc - 1;
        finish();
        return ThreadStop::Barrier;
      case OpCode::Halt:
        finish();
        t.done = true;
        return ThreadStop::Done;

      case OpCode::ChkXor:
        regs[in.dst] ^= regs[in.a];
        break;
      case OpCode::ChkValidate:
        if (regs[in.dst] != 0) sdc = true;
        break;
      case OpCode::DupCmp:
        if (regs[in.a] != regs[in.b]) sdc = true;
        break;
      case OpCode::RangeCheck:
        if (opts_.hooks) {
          const DType vt = prog_.detectors[in.aux].value_type;
          if (opts_.hooks->check_range(static_cast<int>(in.aux), kir::Value{vt, regs[in.a]}))
            sdc = true;
        }
        break;
      case OpCode::EqualCheck:
        if (regs[in.a] != regs[in.b]) {
          sdc = true;
          if (opts_.hooks) opts_.hooks->equal_check_failed(static_cast<int>(in.aux));
        }
        break;
      case OpCode::ProfileVal:
        if (opts_.hooks) {
          const DType vt = prog_.detectors[in.aux].value_type;
          opts_.hooks->profile_value(static_cast<int>(in.aux), kir::Value{vt, regs[in.a]});
        }
        break;
      case OpCode::CountExec:
        if (opts_.hooks) opts_.hooks->count_exec(in.aux, t.linear);
        break;
      case OpCode::FIHook:
        if (opts_.hooks) opts_.hooks->fi_hook(in.aux, t.linear, regs[in.a]);
        break;
      default:
        crash_status = LaunchStatus::CrashInvalidInstr;
        finish();
        return ThreadStop::Crash;
    }
  }
}

/// The predecoded fast path: the opcode semantics table expanded into one
/// dense switch.  Same observable semantics as run_thread, instruction for
/// instruction: identical watchdog test, identical cost accounting order
/// (cost charged, then loop attribution, then pc++), and identical
/// crash/barrier/halt stop points.  Speed comes from three sources, none of
/// which may change behavior:
///
///  1. the kir::DecodedInstr stream has the (op, type) dispatch pre-resolved
///     and the per-pc cost/loop-cost pre-folded, so the hot loop is one
///     dense switch with no aux decoding or cost-vector lookup;
///  2. the profiling / SIMT-counting / hardware-fault checks are template
///     parameters, so the common uninstrumented launch compiles to a loop
///     with none of those branches;
///  3. FlatGpu global accesses use the hoisted arena span (OP_GLOAD)
///     instead of the out-of-line load()/store() calls.
///
/// Any (op, type) case whose bit-level behavior is not provably shared with
/// the reference falls back to the same eval_un/eval_bin the reference
/// calls (UnGeneric/BinGeneric), so the engines cannot drift there either.
///
/// kHwFault applies the device fault model to every UN/BIN/DIV and generic
/// result, typed by the *original* operand DType carried in
/// DecodedInstr::t so the ALU-vs-FPU component filter matches the
/// reference, and to Mov under the register-file component.  kSanitize
/// layers the shared-memory shadow (gpusim/sanitizer.hpp) on LoadS/StoreS.
/// The shadow only *observes* — register writes, crash points and cost
/// accounting are untouched — which is what makes the sanitizer engine
/// bitwise identical to the others on every observable.
template <bool kCounts, bool kSimt, bool kHwFault, bool kSanitize>
ThreadStop BlockExec::run_thread_fast(ThreadCtx& t, LaunchStatus& crash_status) {
  const kir::DecodedInstr* const code = dec_;
  std::uint32_t* const regs = t.regs;
  DeviceMemory& mem = dev_.mem();
  const std::span<std::uint32_t> arena = mem.flat_arena();
  std::uint32_t* const gmem = arena.data();       // null for PagedCpu
  const auto gsize = static_cast<std::uint32_t>(arena.size());
  const auto ssize = static_cast<std::uint32_t>(shared_.size());
  const std::uint64_t watchdog = opts_.watchdog_instructions;
  [[maybe_unused]] const std::size_t n_instr = prog_.code.size();
  std::uint64_t local_cycles = 0, local_loop = 0, local_instr = 0;

  auto finish = [&] {
    cycles += local_cycles;
    loop_cycles += local_loop;
    instructions += local_instr;
    t.budget_used += local_instr;
  };

#define OP_SET(expr)                                                       \
  {                                                                        \
    std::uint32_t r_ = (expr);                                             \
    if constexpr (kHwFault) maybe_hw_fault(r_, static_cast<DType>(in->t)); \
    regs[in->dst] = r_;                                                    \
  }
#define OP_CRASH(st)          \
  {                           \
    crash_status = (st);      \
    finish();                 \
    return ThreadStop::Crash; \
  }
#define OP_PC (t.pc)
#define OP_SHADOW(ev, addr) \
  if constexpr (kSanitize) shadow_->ev(t.pc - 1, sites_[t.pc - 1], t.block_index, addr, epoch_)
#define OP_REG_FAULT(r)                                                        \
  if constexpr (kHwFault) {                                                    \
    if (dev_.fault_.component == DeviceFaultModel::Component::RegisterFile)    \
      maybe_hw_fault(r, DType::I32);                                           \
  }
#define FAST_CASE(n, ...)         \
  case kir::DecodedOp::n: {       \
    OP_BODY(n, __VA_ARGS__)       \
  } break;

  for (;;) {
    if (local_instr + t.budget_used > watchdog) {
      finish();
      return ThreadStop::Budget;
    }
    const kir::DecodedInstr* const in = &code[t.pc];
    local_cycles += in->cost;
    local_loop += in->loop_cost;
    ++local_instr;
    if constexpr (kCounts) ++exec_counts[t.pc];
    if constexpr (kSimt)
      ++thread_counts[static_cast<std::size_t>(t.block_index) * n_instr + t.pc];
    ++t.pc;

    switch (in->op) {
      HB_OPS_STRAIGHT(FAST_CASE)
      HB_OPS_CONTROL(FAST_CASE)
      default:
        OP_CRASH(LaunchStatus::CrashInvalidInstr)
    }
  }
#undef OP_SET
#undef OP_CRASH
#undef OP_PC
#undef OP_SHADOW
#undef OP_REG_FAULT
#undef FAST_CASE
}

/// The threaded-code engine.  Dispatches the kir::ThreadedProgram stream
/// compiled per launch plan: computed goto when the toolchain has
/// labels-as-values (HAUBERK_COMPUTED_GOTO, see top-level CMakeLists), a
/// switch loop otherwise — the two builds are bitwise identical, only
/// dispatch latency differs.
///
/// Semantics are pinned to run_thread_fast (and through it to run_thread)
/// by two rules:
///
///  * single ops are the fast engine's opcode semantics table expanded
///    again, behind a prologue that rewrites the watchdog test as a
///    countdown (`left`), equivalent step for step to the fast engine's
///    `local_instr + budget_used > watchdog` test; naked singles (run
///    interiors) expand the same table with no accounting at all, refunding
///    the run's unexecuted suffix when they crash;
///  * fused superinstructions evaluate their compare/ALU operators with the
///    table's op_ evaluators and perform *all* their checks — enough budget
///    for the whole region, every memory bound — before any register
///    write, memory write or cost charge.  Any case they cannot replicate
///    bit for bit (budget boundary inside the region, a crash, paged
///    global memory) delegates: finish() then run the rest of the slice on
///    run_thread_fast<false,false,false,false> over the position-stable
///    DecodedProgram, which reproduces reference behavior including
///    partial charges and crash points.
///
/// Only the plain launch mode runs here (see BlockExec::run): exec-count /
/// SIMT / hardware-fault / sanitizer launches use the fast engine's
/// specializations, so instrumentation semantics live in one place.
ThreadStop BlockExec::run_thread_threaded(ThreadCtx& t, LaunchStatus& crash_status) {
  // The threaded stream, the thread's register file and the flat arena are
  // three disjoint allocations; __restrict lets the compiler keep operands
  // in registers across regs[]/gmem[] stores (plain uint32 writes that TBAA
  // alone cannot separate from ThreadedInstr's uint32 fields).
  const kir::ThreadedInstr* const __restrict code = tcode_;
  std::uint32_t* const __restrict regs = t.regs;
  DeviceMemory& mem = dev_.mem();
  const std::span<std::uint32_t> arena = mem.flat_arena();
  std::uint32_t* const __restrict gmem = arena.data();  // null for PagedCpu
  const auto gsize = static_cast<std::uint32_t>(arena.size());
  const auto ssize = static_cast<std::uint32_t>(shared_.size());
  const std::uint64_t watchdog = opts_.watchdog_instructions;
  std::uint64_t local_cycles = 0, local_loop = 0, local_instr = 0;

  // Countdown form of the fast engine's watchdog test: that loop executes
  // an instruction iff local_instr + budget_used <= watchdog, i.e. exactly
  // watchdog - budget_used + 1 instructions this slice (zero if a barrier
  // landed the thread just past the budget).  The +1 can only wrap for
  // watchdog == UINT64_MAX, where the budget is unreachable anyway.
  std::uint64_t left = t.budget_used > watchdog ? 0 : watchdog - t.budget_used + 1;
  if (t.budget_used <= watchdog && left == 0) left = ~std::uint64_t{0};

  // Register-resident instruction cursor: t.pc is a uint32 member, so every
  // regs[] store (also uint32) could alias it as far as the compiler knows,
  // forcing a reload per dispatch.  Keep the cursor local and sync it back
  // only at slice exits (finish covers every return path, including the
  // fast-engine delegation which resumes from t.pc).
  std::uint32_t pc = t.pc;

  auto finish = [&] {
    t.pc = pc;
    cycles += local_cycles;
    loop_cycles += local_loop;
    instructions += local_instr;
    t.budget_used += local_instr;
  };

// Per-single prologue: budget countdown, pre-folded cost charge, pc++ —
// the same order as the fast engine (budget test before any charge).
#define T_STEP1()                     \
  do {                                \
    if (left == 0) {                  \
      finish();                       \
      return ThreadStop::Budget;      \
    }                                 \
    --left;                           \
    local_cycles += in->cost;         \
    local_loop += in->loop_cost;      \
    ++local_instr;                    \
    ++pc;                             \
  } while (0)
// Fused prologue: the region's summed charge under one budget decrement.
// Callers must have verified left >= len and every crash condition first.
#define T_CHARGE(n)                   \
  do {                                \
    left -= (n);                      \
    local_cycles += in->cost;         \
    local_loop += in->loop_cost;      \
    local_instr += (n);               \
  } while (0)
#define T_CRASH(st)                   \
  {                                   \
    crash_status = (st);              \
    finish();                         \
    return ThreadStop::Crash;         \
  }
// Bail out of a fused head the interpreter cannot replicate exactly:
// resume this slice on the single-op fast engine at the (unchanged) head
// pc.  Nothing has been charged or written yet, so the fast engine
// reproduces the reference trace including partial charges and crashes.
#define T_DELEGATE()                                                        \
  do {                                                                      \
    finish();                                                               \
    return run_thread_fast<false, false, false, false>(t, crash_status);    \
  } while (0)
// Crash inside a run: the head charged the whole region up front, so hand
// back the suffix *after* the crashing op (its refund fields) before the
// normal crash exit — the launch then bills exactly what the fast engine
// bills, the prefix up to and including the crashing op.
#define T_NK_CRASH(st)                \
  {                                   \
    left += in->len;                  \
    local_instr -= in->len;           \
    local_cycles -= in->cost;         \
    local_loop -= in->loop_cost;      \
    T_CRASH(st);                      \
  }

#if HAUBERK_COMPUTED_GOTO
#define T_LABEL(n) lbl_##n
#define T_NEXT()                      \
  do {                                \
    in = &code[pc];                   \
    goto* kLabels[in->op];            \
  } while (0)
// RunHead tail: dispatch the head op's naked handler without reloading `in`
// (the head slot carries the first op's operands).
#define T_DISPATCH_D() goto* kLabels[in->d]
#else
#define T_LABEL(n) case kir::TOp::n
#define T_NEXT() break
#define T_DISPATCH_D()                          \
  do {                                          \
    opv = in->d;                                \
    goto lbl_redispatch;                        \
  } while (0)
#endif

// The table's hooks.  OP_CRASH is the accounted crash exit for the singles,
// redefined to the refunding one for run interiors below.
#define OP_SET(expr) regs[in->dst] = (expr)
#define OP_CRASH(st) T_CRASH(st)
#define OP_PC (pc)
#define OP_SHADOW(ev, addr)
#define OP_REG_FAULT(r)
#define T_SINGLE(n, ...)          \
  T_LABEL(n) : {                  \
    T_STEP1();                    \
    { OP_BODY(n, __VA_ARGS__) }   \
    T_NEXT();                     \
  }
#define T_NAKED(n, ...)           \
  T_LABEL(Nk_##n) : {             \
    ++pc;                         \
    { OP_BODY(n, __VA_ARGS__) }   \
    T_NEXT();                     \
  }

  const kir::ThreadedInstr* in = code;
#if HAUBERK_COMPUTED_GOTO
  // Label table in TOp order, expanded from the enum's own layout.
  static const void* const kLabels[] = {
#define HAUBERK_TOP_X(n) &&lbl_##n,
      HAUBERK_TOP_LAYOUT
#undef HAUBERK_TOP_X
  };
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kir::kNumTOps);
  T_NEXT();
#else
  for (;;) {
    in = &code[pc];
    std::uint16_t opv = in->op;
  lbl_redispatch:
    switch (static_cast<kir::TOp>(opv)) {
#endif

  // --- singles ---
  HB_OPS_STRAIGHT(T_SINGLE)
  HB_OPS_CONTROL(T_SINGLE)

  // --- fused superinstructions ---
#define T_CMPJZ(K)                                                           \
  T_LABEL(CmpJz_##K) : {                                                     \
    if (left < 2) T_DELEGATE();                                              \
    T_CHARGE(2);                                                             \
    const std::uint32_t v_ = op_##K(regs[in->a], regs[in->b]);               \
    regs[in->dst] = v_;                                                      \
    pc = v_ == 0 ? in->aux : pc + 2;                                         \
    T_NEXT();                                                                \
  }                                                                          \
  T_LABEL(ConstCmpJz_##K) : {                                                \
    if (left < 3) T_DELEGATE();                                              \
    T_CHARGE(3);                                                             \
    regs[in->c] = in->imm;                                                   \
    const std::uint32_t x_ = regs[in->a];                                    \
    const std::uint32_t v_ = in->t ? op_##K(in->imm, x_) : op_##K(x_, in->imm); \
    regs[in->dst] = v_;                                                      \
    pc = v_ == 0 ? in->aux : pc + 3;                                         \
    T_NEXT();                                                                \
  }
  HAUBERK_TOP_CMP_LIST(T_CMPJZ)
#undef T_CMPJZ

  T_LABEL(ConstAddJmp) : {
    if (left < 3) T_DELEGATE();
    T_CHARGE(3);
    regs[in->c] = in->imm;
    regs[in->dst] = op_AddW(regs[in->a], regs[in->b]);
    pc = in->aux;
    T_NEXT();
  }
  T_LABEL(AddJmp) : {
    if (left < 2) T_DELEGATE();
    T_CHARGE(2);
    regs[in->dst] = op_AddW(regs[in->a], regs[in->b]);
    pc = in->aux;
    T_NEXT();
  }

  // Crash-free two-op fusions, each in two forms sharing one body: a fused
  // head (one budget test, one summed charge) and its naked twin inside a
  // run (the RunHead already charged it).
#define T_PAIR(NAME, ...)                                                    \
  T_LABEL(NAME) : {                                                          \
    if (left < 2) T_DELEGATE();                                              \
    T_CHARGE(2);                                                             \
    __VA_ARGS__                                                              \
    pc += 2;                                                                 \
    T_NEXT();                                                                \
  }                                                                          \
  T_LABEL(Nk##NAME) : {                                                      \
    __VA_ARGS__                                                              \
    pc += 2;                                                                 \
    T_NEXT();                                                                \
  }
#define T_ALUFUSE(K)                                                         \
  T_PAIR(ConstBin_##K, regs[in->c] = in->imm;                                \
         regs[in->dst] = op_##K(regs[in->a], regs[in->b]);)                  \
  T_PAIR(BinChkXor_##K, regs[in->dst] = op_##K(regs[in->a], regs[in->b]);    \
         regs[in->c] ^= regs[in->d];)                                        \
  T_PAIR(BinDupCmp_##K, regs[in->dst] = op_##K(regs[in->a], regs[in->b]);    \
         if (regs[in->c] != regs[in->d]) sdc = true;)                        \
  T_LABEL(LoadBinStore_##K) : {                                              \
    const std::uint32_t la_ = regs[in->a];                                   \
    const std::uint32_t sa_ = regs[in->b];                                   \
    if (left < 3 || la_ >= gsize || sa_ >= gsize) T_DELEGATE();              \
    T_CHARGE(3);                                                             \
    regs[in->c] = gmem[la_];                                                 \
    const std::uint32_t r_ = op_##K(regs[in->aux & 0xffffu], regs[in->aux >> 16]); \
    regs[in->dst] = r_;                                                      \
    gmem[sa_] = r_;                                                          \
    mem.note_store(sa_);                                                     \
    pc += 3;                                                                 \
    T_NEXT();                                                                \
  }
  HAUBERK_TOP_ALU_LIST(T_ALUFUSE)
#undef T_ALUFUSE

  T_PAIR(ChkXor2, regs[in->dst] ^= regs[in->a]; regs[in->c] ^= regs[in->d];)
  T_PAIR(RangeCheck2, if (opts_.hooks) {
    if (opts_.hooks->check_range(static_cast<int>(in->aux),
                                 kir::Value{static_cast<DType>(in->t & 0xf), regs[in->a]}))
      sdc = true;
    if (opts_.hooks->check_range(static_cast<int>(in->imm),
                                 kir::Value{static_cast<DType>(in->t >> 4), regs[in->c]}))
      sdc = true;
  })
#undef T_PAIR

  // --- straight-line runs ---
  // RunHead: one budget test and one pre-summed charge for the whole
  // region, then dispatch the head op's naked handler (`in` unchanged —
  // the head slot carries that op's operands).  A budget boundary inside
  // the region delegates *before* any charge, so the fast engine replays
  // it per-instruction and stops exactly where the reference would.
  T_LABEL(RunHead) : {
    if (left < in->len) T_DELEGATE();
    T_CHARGE(in->len);
    T_DISPATCH_D();
  }

  // Naked singles and tiles: no accounting, and crashable ops refund their
  // suffix (carried in their cost/loop_cost/len fields) before the crash
  // exit.
#undef OP_CRASH
#define OP_CRASH(st) T_NK_CRASH(st)
  HB_OPS_STRAIGHT(T_NAKED)

  // Generic naked tiles (field layouts in threaded.cpp).  Sub-ops execute
  // strictly in source order against regs[], so operand aliasing between
  // them behaves exactly like the singles back to back; a load crash
  // refunds the tile's suffix but keeps the sub-ops already executed
  // billed, matching the fast engine's per-op trace.
#define T_NK_BINBIN(K1, K2)                                                    \
  T_LABEL(NkBinBin_##K1##_##K2) : {                                            \
    regs[in->dst] = op_##K1(regs[in->a], regs[in->b]);                         \
    regs[in->c] = op_##K2(regs[in->aux & 0xffffu], regs[in->aux >> 16]);       \
    pc += 2;                                                                   \
    T_NEXT();                                                                  \
  }
  HAUBERK_TOP_ALU_PAIR_LIST(T_NK_BINBIN)
#undef T_NK_BINBIN

#define T_NK_TILES(K)                                                          \
  T_LABEL(NkBinConst_##K) : {                                                  \
    regs[in->dst] = op_##K(regs[in->a], regs[in->b]);                          \
    regs[in->c] = in->imm;                                                     \
    pc += 2;                                                                   \
    T_NEXT();                                                                  \
  }                                                                            \
  T_LABEL(NkLoadBin_##K) : {                                                   \
    pc += 2;                                                                   \
    OP_GLOAD(regs[in->dst], regs[in->a]);                                      \
    regs[in->c] = op_##K(regs[in->aux & 0xffffu], regs[in->aux >> 16]);        \
    T_NEXT();                                                                  \
  }                                                                            \
  T_LABEL(NkBinLoad_##K) : {                                                   \
    pc += 2;                                                                   \
    regs[in->dst] = op_##K(regs[in->a], regs[in->b]);                          \
    OP_GLOAD(regs[in->c], regs[in->d]);                                        \
    T_NEXT();                                                                  \
  }                                                                            \
  T_LABEL(NkConstBinLoad_##K) : {                                              \
    pc += 3;                                                                   \
    regs[in->dst] = in->imm;                                                   \
    regs[in->c] = op_##K(regs[in->aux & 0xffffu], regs[in->aux >> 16]);        \
    OP_GLOAD(regs[in->b], regs[in->a]);                                        \
    T_NEXT();                                                                  \
  }
  HAUBERK_TOP_ALU_LIST(T_NK_TILES)
#undef T_NK_TILES

  T_LABEL(NkConst2) : {
    regs[in->dst] = in->imm;
    regs[in->c] = in->aux;
    pc += 2;
    T_NEXT();
  }
  T_LABEL(NkLoadConst) : {
    pc += 2;
    OP_GLOAD(regs[in->dst], regs[in->a]);
    regs[in->c] = in->imm;
    T_NEXT();
  }

#if !HAUBERK_COMPUTED_GOTO
      default:
        crash_status = LaunchStatus::CrashInvalidInstr;
        finish();
        return ThreadStop::Crash;
    }
  }
#endif
  // Not reached: every handler ends in a jump, break, or return.
  crash_status = LaunchStatus::CrashInvalidInstr;
  finish();
  return ThreadStop::Crash;

#undef OP_SET
#undef OP_CRASH
#undef OP_PC
#undef OP_SHADOW
#undef OP_REG_FAULT
#undef T_SINGLE
#undef T_NAKED
#undef T_STEP1
#undef T_CHARGE
#undef T_CRASH
#undef T_NK_CRASH
#undef T_DELEGATE
#undef T_LABEL
#undef T_NEXT
#undef T_DISPATCH_D
}

/// Engine dispatch for one thread time-slice: mode -1 is the reference
/// switch interpreter; modes 0..15 select the fast-path specialization on
/// (exec-count profiling, SIMT thread counting, hardware fault installed,
/// sanitizer shadow) so the common uninstrumented launch pays for none of
/// those checks; mode 16 is the threaded-code engine (plain launches under
/// ExecEngine::Threaded only).
ThreadStop BlockExec::step_thread(ThreadCtx& t, LaunchStatus& crash_status) {
  switch (fast_mode_) {
    case 0: return run_thread_fast<false, false, false, false>(t, crash_status);
    case 1: return run_thread_fast<true, false, false, false>(t, crash_status);
    case 2: return run_thread_fast<false, true, false, false>(t, crash_status);
    case 3: return run_thread_fast<true, true, false, false>(t, crash_status);
    case 4: return run_thread_fast<false, false, true, false>(t, crash_status);
    case 5: return run_thread_fast<true, false, true, false>(t, crash_status);
    case 6: return run_thread_fast<false, true, true, false>(t, crash_status);
    case 7: return run_thread_fast<true, true, true, false>(t, crash_status);
    case 8: return run_thread_fast<false, false, false, true>(t, crash_status);
    case 9: return run_thread_fast<true, false, false, true>(t, crash_status);
    case 10: return run_thread_fast<false, true, false, true>(t, crash_status);
    case 11: return run_thread_fast<true, true, false, true>(t, crash_status);
    case 12: return run_thread_fast<false, false, true, true>(t, crash_status);
    case 13: return run_thread_fast<true, false, true, true>(t, crash_status);
    case 14: return run_thread_fast<false, true, true, true>(t, crash_status);
    case 15: return run_thread_fast<true, true, true, true>(t, crash_status);
    case 16: return run_thread_threaded(t, crash_status);
    default: return run_thread(t, crash_status);
  }
}

LaunchStatus BlockExec::run(std::span<const kir::Value> args) {
  if (opts_.instr_exec_counts) exec_counts.assign(prog_.code.size(), 0);
  if (opts_.simt_cost)
    thread_counts.assign(static_cast<std::size_t>(threads_per_block_) * prog_.code.size(), 0);
  fast_mode_ = dec_ ? ((exec_counts.empty() ? 0 : 1) | (thread_counts.empty() ? 0 : 2) |
                       (dev_.has_fault() ? 4 : 0) | (shadow_ ? 8 : 0))
                    : -1;
  // The threaded engine only replaces the *plain* fast path (mode 0): any
  // instrumented launch keeps the fast engine's specializations, which stay
  // bitwise identical by construction.  Campaigns run plain.
  if (fast_mode_ == 0 && tcode_) fast_mode_ = 16;
  const std::uint32_t slots = prog_.num_slots;
  std::vector<std::uint32_t> reg_slab(
      static_cast<std::size_t>(threads_per_block_) * slots, 0u);
  std::vector<ThreadCtx> threads(threads_per_block_);

  for (std::uint32_t i = 0; i < threads_per_block_; ++i) {
    ThreadCtx& t = threads[i];
    t.regs = reg_slab.data() + static_cast<std::size_t>(i) * slots;
    t.tx = i % cfg_.block_x;
    t.ty = i / cfg_.block_x;
    t.linear = block_linear_ * threads_per_block_ + i;
    t.block_index = i;
    for (std::size_t p = 0; p < args.size(); ++p) t.regs[p] = args[p].bits;
  }

  for (;;) {
    std::uint32_t done = 0, at_barrier = 0;
    for (auto& t : threads) {
      if (t.done) {
        ++done;
        continue;
      }
      LaunchStatus crash = LaunchStatus::Ok;
      switch (step_thread(t, crash)) {
        case ThreadStop::Done: ++done; break;
        case ThreadStop::Barrier: ++at_barrier; break;
        case ThreadStop::Crash: return crash;
        case ThreadStop::Budget: return LaunchStatus::Hang;
      }
    }
    if (done == threads_per_block_) {
      finish_simt_cost();
      return LaunchStatus::Ok;
    }
    if (at_barrier > 0 && done > 0) {
      // Barrier deadlock: some threads exited while peers wait at a
      // __syncthreads.  Diagnose with the first waiter's barrier site (all
      // non-done threads are waiters — crash/budget stops returned above).
      const ThreadCtx* waiter = nullptr;
      const ThreadCtx* exited = nullptr;
      for (const auto& t : threads) {
        if (t.done) { if (!exited) exited = &t; }
        else if (!waiter) { waiter = &t; }
      }
      deadlock_pc = waiter->barrier_pc;
      deadlock_site = site_of(waiter->barrier_pc);
      if (shadow_)
        shadow_->on_divergence(waiter->barrier_pc, sites_[waiter->barrier_pc],
                               SanitizerReport::kNoPc, waiter->block_index,
                               exited->block_index, epoch_);
      return LaunchStatus::CrashBarrierDeadlock;
    }
    // All non-done threads are at the barrier: release and continue.  Before
    // releasing, the sanitizer checks the waiters actually sit at the *same*
    // barrier site — releasing threads from different __syncthreads sites is
    // divergence real hardware would deadlock or corrupt on.
    if (shadow_) {
      const ThreadCtx* first = nullptr;
      for (const auto& t : threads) {
        if (!first) { first = &t; continue; }
        if (t.barrier_pc != first->barrier_pc)
          shadow_->on_divergence(t.barrier_pc, sites_[t.barrier_pc], first->barrier_pc,
                                 t.block_index, first->block_index, epoch_);
      }
    }
    ++epoch_;
  }
}

void BlockExec::finish_simt_cost() {
  if (thread_counts.empty()) return;
  // Warp-serialized cost: for each warp, an instruction issues
  // max-over-lanes(count) times.  For structured control flow this equals
  // the classic SIMT stack cost: divergent branches serialize (per-path
  // maxima add) and loops run to the warp's longest trip count.
  const std::size_t n = prog_.code.size();
  const std::uint32_t warp = dev_.props().warp_size;
  for (std::uint32_t w0 = 0; w0 < threads_per_block_; w0 += warp) {
    const std::uint32_t w1 = std::min(threads_per_block_, w0 + warp);
    for (std::size_t pc = 0; pc < n; ++pc) {
      std::uint32_t mx = 0;
      for (std::uint32_t t = w0; t < w1; ++t)
        mx = std::max(mx, thread_counts[static_cast<std::size_t>(t) * n + pc]);
      simt_cycles += static_cast<std::uint64_t>(mx) * costs_[pc];
    }
  }
}

}  // namespace

std::shared_ptr<const Device::LaunchPlan> Device::launch_plan(
    const kir::BytecodeProgram& program) {
  PlanKey key{program.code, program.num_slots, {}, cost_};
  key.detector_types.reserve(program.detectors.size());
  for (const kir::DetectorMeta& d : program.detectors)
    key.detector_types.push_back(d.value_type);
  {
    std::lock_guard<std::mutex> lk(plan_mu_);
    // Most recent first: a campaign's golden plan is usually at the back.
    for (auto it = plan_cache_.rbegin(); it != plan_cache_.rend(); ++it) {
      if ((*it)->key == key) {
        plan_hits_.fetch_add(1, std::memory_order_relaxed);
        std::rotate(std::prev(it.base()), it.base(), plan_cache_.end());  // LRU: refresh
        return plan_cache_.back();
      }
    }
  }
  plan_misses_.fetch_add(1, std::memory_order_relaxed);
  auto plan = std::make_shared<LaunchPlan>();
  plan->costs = instruction_costs(program, cost_, props_.regs_per_thread,
                                  props_.protection != ecc::Scheme::None);
  plan->decoded = kir::decode_program(program, plan->costs);
  plan->threaded = kir::compile_threaded(plan->decoded, program.num_slots,
                                         props_.memory_model == MemoryModel::FlatGpu &&
                                             props_.protection == ecc::Scheme::None);
  plan->key = std::move(key);
  std::lock_guard<std::mutex> lk(plan_mu_);
  if (plan_cache_.size() >= kPlanCacheCapacity)
    plan_cache_.erase(plan_cache_.begin());  // evict least recently used
  plan_cache_.push_back(std::move(plan));
  return plan_cache_.back();
}

LaunchResult Device::launch(const kir::BytecodeProgram& program, const LaunchConfig& cfg,
                            std::span<const kir::Value> args, const LaunchOptions& opts) {
  LaunchResult res;
  if (disabled_) {
    res.status = LaunchStatus::DeviceDisabled;
    return res;
  }
  if (program.shared_mem_words > props_.shared_mem_words ||
      args.size() != program.num_params) {
    res.status = LaunchStatus::LaunchFailure;
    return res;
  }

  const auto plan = launch_plan(program);
  const std::vector<std::uint32_t>& costs = plan->costs;
  const bool sanitize = engine_ == ExecEngine::Sanitizer;
  // Corrections are counted by the memory itself (it scrubs each corrupted
  // codeword exactly once); the delta across the launch is this launch's
  // corrected count, deterministic because the set of pairs read is.
  const std::uint64_t ecc_before = mem_->ecc_corrected();

  const std::uint32_t num_blocks = cfg.grid_x * cfg.grid_y;
  // Per-block results, reduced in block order after the join.
  struct BlockResult {
    LaunchStatus status = LaunchStatus::Ok;
    bool sdc = false;
    std::uint64_t cycles = 0, loop_cycles = 0, instructions = 0, simt_cycles = 0;
    std::uint64_t reports_dropped = 0;
    std::int64_t deadlock_pc = -1, deadlock_site = -1;
  };
  std::vector<BlockResult> blocks(num_blocks);
  std::atomic<std::uint32_t> next_block{0};
  std::atomic<bool> failed{false};
  std::mutex profile_mu;
  if (opts.instr_exec_counts) opts.instr_exec_counts->assign(program.code.size(), 0);
  // Per-block report sinks, flattened in block order after the join, so the
  // sanitizer's report stream does not depend on worker scheduling.
  std::vector<std::vector<SanitizerReport>> block_reports(sanitize ? num_blocks : 0);

  auto worker = [&] {
    // A kernel crash aborts the whole launch (the GPU runtime kills the
    // grid): once any block failed, no worker claims another; the others
    // finish their current block.
    while (!failed.load(std::memory_order_relaxed)) {
      const std::uint32_t b = next_block.fetch_add(1, std::memory_order_relaxed);
      if (b >= num_blocks) return;
      BlockExec exec(*this, program, cfg, opts, costs, plan->decoded, plan->threaded,
                     engine_, b, sanitize ? &block_reports[b] : nullptr);
      BlockResult& r = blocks[b];
      r.status = exec.run(args);
      r.sdc = exec.sdc;
      r.cycles = exec.cycles;
      r.loop_cycles = exec.loop_cycles;
      r.instructions = exec.instructions;
      r.simt_cycles = exec.simt_cycles;
      r.reports_dropped = exec.sanitizer_dropped();
      r.deadlock_pc = exec.deadlock_pc;
      r.deadlock_site = exec.deadlock_site;
      if (opts.instr_exec_counts) {
        std::lock_guard<std::mutex> lk(profile_mu);
        for (std::size_t i = 0; i < exec.exec_counts.size(); ++i)
          (*opts.instr_exec_counts)[i] += exec.exec_counts[i];
      }
      if (r.status != LaunchStatus::Ok) failed.store(true, std::memory_order_relaxed);
    }
  };

  const unsigned hw = common::WorkerPool::default_workers();
  unsigned nw = opts.max_workers > 0 ? static_cast<unsigned>(opts.max_workers) : hw;
  nw = std::min({nw, static_cast<unsigned>(num_blocks), static_cast<unsigned>(props_.num_sms)});
  if (nw <= 1) {
    worker();
  } else {
    // Reusable pool: created once, then fed every subsequent multi-worker
    // launch (the former per-launch spawn/join dominated small kernels).
    // The mutex also serializes concurrent multi-worker launches, which is
    // safe because workers claim blocks from this launch's own counter.
    std::lock_guard<std::mutex> lk(launch_pool_mu_);
    if (!launch_pool_ || launch_pool_->size() < nw)
      launch_pool_ = std::make_unique<common::WorkerPool>(std::max(nw, hw));
    launch_pool_->run(nw, [&](unsigned) { worker(); });
  }

  // Reduce blocks 0..f, where f is the lowest-index failing block (the last
  // block when none failed).  Blocks are claimed in index order and a
  // claimed block always completes, so every block below f ran to success
  // whatever the worker count, and the result equals a single-worker
  // launch's.  Blocks past f that other workers were already running are
  // dropped.
  std::uint32_t end = 0;
  while (end < num_blocks) {
    const BlockResult& r = blocks[end++];
    res.sdc_alarm |= r.sdc;
    res.cycles += r.cycles;
    res.loop_cycles += r.loop_cycles;
    res.instructions += r.instructions;
    res.simt_cycles += r.simt_cycles;
    res.sanitizer_reports_dropped += r.reports_dropped;
    if (r.status != LaunchStatus::Ok) {
      res.status = r.status;
      res.deadlock_pc = r.deadlock_pc;
      res.deadlock_site = r.deadlock_site;
      break;
    }
  }
  if (sanitize) {
    std::size_t total = 0;
    for (std::uint32_t b = 0; b < end; ++b) total += block_reports[b].size();
    res.sanitizer_reports.reserve(total);
    for (std::uint32_t b = 0; b < end; ++b)
      res.sanitizer_reports.insert(res.sanitizer_reports.end(), block_reports[b].begin(),
                                   block_reports[b].end());
  }
  res.threads = cfg.total_threads();
  // Per-correction scrub write-back: charged flat per corrected codeword
  // (the per-access check/encode cost is already folded into the plan's
  // static costs, so only the rare correction path is charged here).
  res.ecc_corrected = mem_->ecc_corrected() - ecc_before;
  res.cycles += res.ecc_corrected * cost_.ecc_scrub;
  // The control-block delivery is a host-side per-launch cost; it is charged
  // to the thread-cycle total only (simt_cycles measures kernel execution at
  // warp granularity and would be distorted by a flat host-side constant).
  if (opts.charge_control_block) res.cycles += cost_.control_block_per_launch;
  return res;
}

}  // namespace hauberk::gpusim
