// Register-slot bytecode: the compiled form of a kernel.
//
// The AST is what the Hauberk translator instruments (its "source code");
// the bytecode is what the simulated GPU executes (its "SASS").  Lowering
// assigns every kernel parameter and virtual variable a fixed register slot
// and compiles expressions into temporaries above them.  The slot count is
// the kernel's register demand: when it exceeds the device's registers per
// thread, the highest slots are modeled as spilled to memory (Section V.A's
// register-pressure discussion; this is what makes naive duplication and the
// Hauberk-NL pass measurably more expensive in register-tight kernels).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kir/ast.hpp"

namespace hauberk::kir {

enum class OpCode : std::uint8_t {
  Nop = 0,
  Const,        ///< dst <- imm
  Mov,          ///< dst <- a
  Builtin,      ///< dst <- builtin(aux)
  Un,           ///< dst <- unop(aux) a
  Bin,          ///< dst <- binop(aux) a, b
  Select,       ///< dst <- a ? b : c(imm slot)
  LoadG,        ///< dst <- global[a]
  StoreG,       ///< global[a] <- b
  LoadS,        ///< dst <- shared[a]
  StoreS,       ///< shared[a] <- b
  AtomicAddG,   ///< global[a] += b (atomic)
  Jmp,          ///< pc <- aux
  Jz,           ///< if (a == 0) pc <- aux
  Barrier,      ///< __syncthreads
  Halt,         ///< end of kernel

  // Hauberk runtime library calls (FT):
  ChkXor,       ///< checksum ^= bits(a)
  ChkValidate,  ///< if (checksum != 0) cb->sdc = true
  DupCmp,       ///< if (bits(a) != bits(b)) cb->sdc = true
  RangeCheck,   ///< HauberkCheckRange(cb, det=aux, value=a)
  EqualCheck,   ///< HauberkCheckEqual(cb, det=aux, a, b)

  // Hauberk profiler library calls:
  ProfileVal,   ///< record sample(det=aux, value=a)
  CountExec,    ///< bump execution count of site aux

  // Hauberk fault injection library call:
  FIHook,       ///< maybe corrupt slot a according to the injection plan (site aux)
};

/// Instruction flag bits.
enum : std::uint8_t {
  kInstrInLoop = 1u << 0,      ///< executes inside a source-level loop
  kInstrScatter = 1u << 1,     ///< added by R-Scatter duplication (cost-modeled separately)
  kInstrHauberkDup = 1u << 2,  ///< Hauberk non-loop duplicate: fills ILP slack of the
                               ///< latency-bound sequential code it shadows
  kInstrDetectorAux = 1u << 3, ///< loop-detector bookkeeping (accumulator/counter adds,
                               ///< post-loop guards) inserted by the translator
};

struct Instr {
  OpCode op = OpCode::Nop;
  std::uint8_t flags = 0;
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t aux = 0;  ///< op-specific: UnOp/BinOp/BuiltinVal/jump target/detector/site
  std::uint32_t imm = 0;  ///< Const bits; Select else-slot

  bool operator==(const Instr&) const = default;
};

/// Fault-injection site metadata (one per FIHook, Fig. 12: identifier,
/// pointer to state, data type, and hardware components used).
struct FISite {
  std::uint32_t site_id = 0;
  VarId var = kInvalidVar;
  std::uint16_t slot = 0;
  DType type = DType::I32;
  HwComponent hw = HwComponent::ALU;
  bool in_loop = false;
  /// Late-window hook: placed after the variable's last use, modeling the
  /// paper's time-random injections that land after the value is dead.
  bool dead_window = false;
  std::string var_name;
};

/// Metadata for a loop/range detector (accumulator value check or iteration
/// count check) referenced by RangeCheck/EqualCheck/ProfileVal `aux`.
struct DetectorMeta {
  int id = -1;
  std::string name;       ///< protected variable name
  DType value_type = DType::F32;
  bool is_iteration_check = false;
};

struct BytecodeProgram {
  std::string name;
  std::vector<Instr> code;
  std::vector<DType> slot_types;   ///< static type of every register slot
  std::uint16_t num_params = 0;    ///< params occupy slots [0, num_params)
  std::uint16_t num_named = 0;     ///< named vars occupy [num_params, num_params+num_named)
  std::uint16_t num_slots = 0;     ///< total including temporaries
  std::vector<std::uint16_t> var_slot;  ///< VarId -> slot
  std::vector<FISite> fi_sites;
  std::vector<DetectorMeta> detectors;
  std::uint32_t shared_mem_words = 0;

  /// Provenance side table, 1:1 with `code`: the pre-order ordinal of the
  /// originating *non-internal* source statement (counting only non-internal
  /// statements), or -1 for instructions the instrumentation inserted.
  /// Because instrumentation only ever inserts whole statements, ordinal k
  /// names the same source statement in a baseline and an instrumented
  /// lowering of one kernel — the anchor the static cycle estimator uses to
  /// transfer measured execution counts between builds.  A side table only:
  /// never read by the engines and excluded from program_digest.
  std::vector<std::int32_t> stmt_origin;

  /// Register demand reported to the launch engine; slots at or above the
  /// device's register budget are modeled as spilled.
  [[nodiscard]] std::uint16_t register_demand() const noexcept { return num_slots; }
};

/// Compile a kernel AST to bytecode.  Throws std::runtime_error on malformed
/// kernels (e.g. unsupported statement nesting).
BytecodeProgram lower(const Kernel& kernel);

/// Disassemble for debugging/tests.
std::string disassemble(const BytecodeProgram& p);

/// Order-sensitive FNV-1a digest over every semantically meaningful field of
/// a program: code, slot layout, FI sites and detector tables.  Two programs
/// digest equal iff the simulated GPU cannot distinguish them; the golden
/// translator-equivalence suite and the printer round-trip tests pin on it.
[[nodiscard]] std::uint64_t program_digest(const BytecodeProgram& p) noexcept;

// ---------------------------------------------------------------------------
// Predecoded execution form
// ---------------------------------------------------------------------------
//
// The interpreter's reference engine re-derives everything per executed
// instruction: it switches on OpCode, unpacks the operator and operand type
// from `aux`, branches on the flag byte for loop attribution, and indexes a
// separate cost vector.  A SWIFI campaign executes the same few hundred
// instructions billions of times, so the fast engine instead runs over this
// predecoded stream where all of that is resolved once per program:
//
//  * `DecodedOp` is a flat opcode with the operator *and* operand type folded
//    in (`Bin(aux=Add,F32)` becomes `AddF`); combinations whose bit-level
//    semantics coincide share one entry (e.g. i32/ptr add both wrap mod 2^32
//    and decode to `AddW`), and anything rare falls back to `UnGeneric` /
//    `BinGeneric`, which re-dispatch exactly like the reference engine.
//  * the per-execution cycle cost (including spill surcharge and duplication
//    discounts) and its loop-attributed share are pre-folded into each
//    instruction, so the hot loop charges both with unconditional adds.
//  * detector operand types (RangeCheck/ProfileVal) are pre-resolved from
//    DetectorMeta into the `t` byte.
//
// The stream is position-stable: decoded[pc] corresponds to code[pc], so
// jump targets, execution-count profiles, and SIMT cost vectors carry over
// unchanged, and a mid-kernel crash happens at the same pc with the same
// partial side effects as the reference engine.
//
// The opcode set is an X-macro master list built from sublists, so each
// consumer expands exactly the groups it needs: DecodedOp and the threaded
// engine's single-op block take all of them (in this order, which fixes
// the numbering), and the threaded engine's run interiors and
// gpusim/device.cpp's opcode semantics table split it into the ops that may
// run inside a straight-line run and the rest.
#define HAUBERK_DOP_BASIC(X) X(Nop) X(Const) X(Mov) X(Builtin) X(Select)
/// Unary, type-resolved.  I2F/P2F are CastF32 of a signed i32 / unsigned
/// ptr word, F2I is CastI32 of an f32 (saturating, NaN -> 0), CopyA an
/// identity cast; UnGeneric unpacks aux and calls the reference evaluator.
#define HAUBERK_DOP_UNARY(X) \
  X(NegF) X(NegI) X(NotF) X(NotW) X(BitNot) X(AbsF) X(AbsI) \
  X(SqrtF) X(RsqrtF) X(ExpF) X(LogF) X(SinF) X(CosF) X(FloorF) \
  X(I2F) X(P2F) X(F2I) X(CopyA) X(UnGeneric)
/// Binary, type-resolved.  W = bitwise-identical for i32 and ptr.
#define HAUBERK_DOP_BINARY(X) \
  X(AddF) X(SubF) X(MulF) X(DivF) X(MinF) X(MaxF) \
  X(LtF) X(LeF) X(GtF) X(GeF) X(EqF) X(NeF) \
  X(AddW) X(SubW) X(MulW) \
  X(DivI) X(ModI) X(DivU) X(ModU) \
  X(MinI) X(MaxI) X(MinU) X(MaxU) \
  X(LtI) X(LeI) X(GtI) X(GeI) \
  X(LtU) X(LeU) X(GtU) X(GeU) \
  X(EqW) X(NeW) \
  X(AndB) X(OrB) X(XorB) X(ShlB) X(ShrL) X(ShrA) \
  X(LAndW) X(LOrW) X(BinGeneric)
#define HAUBERK_DOP_MEMORY(X) \
  X(LoadG) X(StoreG) X(LoadS) X(StoreS) X(AtomicAddF) X(AtomicAddI)
#define HAUBERK_DOP_CONTROL(X) X(Jmp) X(Jz) X(Barrier) X(Halt)
/// Hauberk runtime / profiler / FI library calls.
#define HAUBERK_DOP_DETECTOR(X) \
  X(ChkXor) X(ChkValidate) X(DupCmp) X(RangeCheck) X(EqualCheck) \
  X(ProfileVal) X(CountExec) X(FIHook)
/// Every op that may execute inside a straight-line run: all but control
/// transfer and Invalid (an undecodable encoding, i.e. a code-segment fault).
#define HAUBERK_DOP_STRAIGHT(X) \
  HAUBERK_DOP_BASIC(X) HAUBERK_DOP_UNARY(X) HAUBERK_DOP_BINARY(X) \
  HAUBERK_DOP_MEMORY(X) HAUBERK_DOP_DETECTOR(X)
#define HAUBERK_DOP_LIST(X) \
  HAUBERK_DOP_BASIC(X) HAUBERK_DOP_UNARY(X) HAUBERK_DOP_BINARY(X) \
  HAUBERK_DOP_MEMORY(X) HAUBERK_DOP_CONTROL(X) HAUBERK_DOP_DETECTOR(X) X(Invalid)

enum class DecodedOp : std::uint8_t {
#define HAUBERK_DOP_E(n) n,
  HAUBERK_DOP_LIST(HAUBERK_DOP_E)
#undef HAUBERK_DOP_E
};

/// One predecoded instruction (24 bytes).  `cost`/`loop_cost` are the
/// pre-folded cycle charges; `t` is the operand DType where the handler
/// still needs one at run time (hardware-fault typing, detector values).
struct DecodedInstr {
  DecodedOp op = DecodedOp::Invalid;
  std::uint8_t t = 0;      ///< static_cast<DType>: fault/detector value type
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t aux = 0;   ///< jump target / builtin / detector / site / packed op
  std::uint32_t imm = 0;   ///< Const bits; Select else-slot
  std::uint32_t cost = 0;      ///< cycles charged per execution
  std::uint32_t loop_cost = 0; ///< == cost when the source line is in a loop, else 0
};

/// Marker for instructions that are not sanitizer sites.
inline constexpr std::uint32_t kNoSite = 0xffffffffu;

struct DecodedProgram {
  std::vector<DecodedInstr> code;  ///< 1:1 with BytecodeProgram::code

  /// Per-instruction sanitizer site ids, 1:1 with `code`: every Barrier,
  /// LoadS and StoreS instruction gets a dense ordinal (assigned in pc
  /// order), everything else holds kNoSite.  Site ids give sanitizer
  /// reports and the barrier-deadlock diagnostic a stable, program-relative
  /// identity that survives recompilation of unrelated code (unlike raw
  /// pcs, which shift whenever instrumentation is added upstream).
  std::vector<std::uint32_t> sanitizer_sites;
  std::uint32_t num_sites = 0;          ///< total dense site ids assigned
  std::uint32_t num_barrier_sites = 0;  ///< how many of them are barriers

  [[nodiscard]] std::uint32_t site_of(std::uint32_t pc) const noexcept {
    return pc < sanitizer_sites.size() ? sanitizer_sites[pc] : kNoSite;
  }
};

/// Predecode `p` against a per-instruction cost vector (one entry per
/// instruction, as produced by the device's launch-plan analysis).  Never
/// fails: undecodable encodings become DecodedOp::Invalid, which the fast
/// engine reports as a code-segment crash exactly like the reference
/// engine's default case.
DecodedProgram decode_program(const BytecodeProgram& p,
                              std::span<const std::uint32_t> costs);

}  // namespace hauberk::kir
