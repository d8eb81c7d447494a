// Threaded-code execution form: the compiled stream behind
// gpusim::ExecEngine::Threaded.
//
// The predecoded fast engine (kir::DecodedProgram) already folds operator,
// operand type and cycle cost into one flat instruction, but it still pays
// one dispatch, one watchdog test and one cost/loop-cost/pc update per
// *source* instruction.  A SWIFI campaign replays the same few hundred
// instructions billions of times, so this third compilation step buys the
// remaining headroom:
//
//  * `TOp` is the threaded opcode set: every DecodedOp has a 1:1 single-op
//    entry (same numeric value — both expand one master list), plus fused
//    *superinstructions* for the idioms the lowering actually emits per loop
//    iteration (Const/compare/Jz loop heads, Const/add/Jmp back-edges,
//    load-op-store global accumulates, and the Hauberk detector sequences
//    ChkXor/DupCmp/RangeCheck).  A fused op executes 2-3 source
//    instructions under a single dispatch and a single budget decrement.
//  * straight-line *runs*: a maximal region with no control transfer inside
//    and no jump target after its first slot compiles to a `RunHead` that
//    performs one budget test and one pre-summed cost charge for the whole
//    region, then falls through *naked* op variants (`Nk_*`) that execute
//    with no per-op accounting at all.  Ops that can crash mid-run carry
//    the suffix charge to refund, so a crash bills exactly the prefix the
//    fast engine would have billed.
//  * the stream is position-stable: code[pc] corresponds to decoded pc and
//    a fused head sits at its first instruction's slot.  Slots covered by a
//    2-3-op fused head *retain their single-op translations*, so a jump
//    into the middle lands on ordinary instructions; run interiors instead
//    hold naked ops, which is safe because the compiler only forms runs
//    whose interior slots are not jump targets (and barriers/branches never
//    appear inside a run, so no resume point lands there either).
//  * per-launch-plan specialization: the reloaded loop constants of the
//    Const+compare and Const+add idioms are folded into the
//    superinstruction immediate, and the watchdog budget becomes one
//    countdown decremented once per (super)instruction or run.
//
// Determinism contract: a fused handler must be bit-identical to running
// its singles back to back.  Anything it cannot replicate exactly — a
// watchdog boundary inside the fused region, a crash condition, paged
// (CPU-model) global memory — it *delegates*: the interpreter falls back to
// the position-stable DecodedProgram singles from the head pc, before any
// register write or cost charge, so the observable trace is the reference
// trace by construction.  compile_threaded therefore only emits fused ops
// whose crash conditions are checkable up front (no Div/Mod fusions, store
// addresses not written by the covered instructions).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "kir/bytecode.hpp"

namespace hauberk::kir {

// Fusion operator lists.  The single-op and naked blocks of TOp expand
// bytecode.hpp's DecodedOp master list (all of it, and HAUBERK_DOP_STRAIGHT
// respectively); the CMP/ALU lists are the operator families eligible for
// fusion — none of them can crash, which is what lets fused handlers charge
// their summed cost after one up-front check.

/// Comparison operators fusable with a following Jz (loop heads, while
/// conditions, compare-branch tails).
#define HAUBERK_TOP_CMP_LIST(X) \
  X(LtI) X(LeI) X(GtI) X(GeI) \
  X(LtU) X(LeU) X(GtU) X(GeU) \
  X(LtF) X(LeF) X(GtF) X(GeF) \
  X(EqW) X(NeW) X(EqF) X(NeF)

/// Non-crashing ALU operators fusable inside Const-bin, load-op-store and
/// detector superinstructions, and specialized into the naked tiles below.
/// The set is profile-driven: the arithmetic core plus the compare/mask
/// operators that dominate loop conditions in the workload suites.
#define HAUBERK_TOP_ALU_LIST(X)                            \
  X(AddW) X(SubW) X(MulW) X(AddF) X(SubF) X(MulF)          \
  X(DivF) X(MaxF) X(LtF) X(GtI) X(EqW) X(AndB) X(ShrA) X(LAndW)

/// Every ordered (K1, K2) pair of the ALU list — the naked back-to-back
/// binary tile (NkBinBin) is specialized per combination so both operators
/// dispatch once.  The row macro calls X(K1, K2) for each K2.
#define HAUBERK_TOP_ALU_PAIR_ROW(X, K1)                               \
  X(K1, AddW) X(K1, SubW) X(K1, MulW) X(K1, AddF) X(K1, SubF)         \
  X(K1, MulF) X(K1, DivF) X(K1, MaxF) X(K1, LtF) X(K1, GtI)           \
  X(K1, EqW) X(K1, AndB) X(K1, ShrA) X(K1, LAndW)
#define HAUBERK_TOP_ALU_PAIR_LIST(X)    \
  HAUBERK_TOP_ALU_PAIR_ROW(X, AddW)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, SubW)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, MulW)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, AddF)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, SubF)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, MulF)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, DivF)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, MaxF)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, LtF)      \
  HAUBERK_TOP_ALU_PAIR_ROW(X, GtI)      \
  HAUBERK_TOP_ALU_PAIR_ROW(X, EqW)      \
  HAUBERK_TOP_ALU_PAIR_ROW(X, AndB)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, ShrA)     \
  HAUBERK_TOP_ALU_PAIR_ROW(X, LAndW)

// The whole TOp layout in enum order: HAUBERK_TOP_LAYOUT expands
// HAUBERK_TOP_X(name) once per op.  The enum, top_name's table and the
// threaded engine's computed-goto label table each define HAUBERK_TOP_X and
// expand it, so the three cannot drift.  In order:
//
//  * singles: every DecodedOp, same numeric value;
//  * fused superinstructions (always >= kTOpFusedBegin):
//    [Cmp dst,a,b][Jz dst,target] and [Const c,imm][Cmp dst,a,c][Jz dst,target];
//    loop back-edges [Const c,imm][AddW dst,a,c][Jmp target] / [AddW][Jmp];
//    [Const c,imm][Bin dst,a,b], [LoadG c,a][Bin][StoreG], and the detector
//    tails [Bin][ChkXor] / [Bin][DupCmp], [ChkXor][ChkXor] and
//    [RangeCheck][RangeCheck];
//  * straight-line runs: RunHead performs one budget test + one pre-summed
//    charge for `len` source instructions, then dispatches the naked variant
//    in `d` (the head's own operands live in the same slot, so the head tile
//    must not use the d field itself, and must be crash-free — cost/
//    loop_cost/len carry the region sums, leaving no room for refund data).
//    Interior slots hold naked singles and naked tiles; crashable naked forms
//    carry the suffix charge to refund in their (otherwise unused)
//    cost/loop_cost/len fields;
//  * naked singles (Nk_*): every op that may appear inside a run, executed
//    with no budget test, no cost charge and no instruction count — the
//    RunHead already accounted for the whole region;
//  * naked tiles: the naked twins of the straight-line fused pairs, then the
//    generic tiles for the idioms the pair-frequency profile of the workload
//    suite actually shows inside runs: back-to-back ALU ops, an ALU op next
//    to a reloaded constant, adjacent constants, loads feeding or fed by an
//    ALU op, and the 3-op addressing idiom Const+AddW+LoadG.
#define HAUBERK_TOP_X_CMP(n) HAUBERK_TOP_X(CmpJz_##n) HAUBERK_TOP_X(ConstCmpJz_##n)
#define HAUBERK_TOP_X_ALU(n)                                           \
  HAUBERK_TOP_X(ConstBin_##n) HAUBERK_TOP_X(LoadBinStore_##n)          \
  HAUBERK_TOP_X(BinChkXor_##n) HAUBERK_TOP_X(BinDupCmp_##n)
#define HAUBERK_TOP_X_NK(n) HAUBERK_TOP_X(Nk_##n)
#define HAUBERK_TOP_X_NK_ALU(n) \
  HAUBERK_TOP_X(NkConstBin_##n) HAUBERK_TOP_X(NkBinChkXor_##n) HAUBERK_TOP_X(NkBinDupCmp_##n)
#define HAUBERK_TOP_X_NK_BINBIN(a, b) HAUBERK_TOP_X(NkBinBin_##a##_##b)
#define HAUBERK_TOP_X_NK_TILE(n)                                       \
  HAUBERK_TOP_X(NkBinConst_##n) HAUBERK_TOP_X(NkLoadBin_##n)           \
  HAUBERK_TOP_X(NkBinLoad_##n) HAUBERK_TOP_X(NkConstBinLoad_##n)
#define HAUBERK_TOP_LAYOUT                                               \
  HAUBERK_DOP_LIST(HAUBERK_TOP_X)                                        \
  HAUBERK_TOP_CMP_LIST(HAUBERK_TOP_X_CMP)                                \
  HAUBERK_TOP_X(ConstAddJmp) HAUBERK_TOP_X(AddJmp)                       \
  HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_X_ALU)                                \
  HAUBERK_TOP_X(ChkXor2) HAUBERK_TOP_X(RangeCheck2)                      \
  HAUBERK_TOP_X(RunHead)                                                 \
  HAUBERK_DOP_STRAIGHT(HAUBERK_TOP_X_NK)                                 \
  HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_X_NK_ALU)                             \
  HAUBERK_TOP_X(NkChkXor2) HAUBERK_TOP_X(NkRangeCheck2)                  \
  HAUBERK_TOP_ALU_PAIR_LIST(HAUBERK_TOP_X_NK_BINBIN)                     \
  HAUBERK_TOP_ALU_LIST(HAUBERK_TOP_X_NK_TILE)                            \
  HAUBERK_TOP_X(NkConst2) HAUBERK_TOP_X(NkLoadConst)

enum class TOp : std::uint16_t {
#define HAUBERK_TOP_X(n) n,
  HAUBERK_TOP_LAYOUT
#undef HAUBERK_TOP_X
  Count_,
};

inline constexpr std::uint16_t kTOpFusedBegin =
    static_cast<std::uint16_t>(TOp::Invalid) + 1;
inline constexpr std::size_t kNumTOps = static_cast<std::size_t>(TOp::Count_);

[[nodiscard]] constexpr bool top_is_fused(TOp op) noexcept {
  return static_cast<std::uint16_t>(op) >= kTOpFusedBegin &&
         op != TOp::Count_;
}

/// The single-op TOp for a DecodedOp (the identity mapping: both blocks
/// expand the same master list).  DecodedOp::Invalid maps to TOp::Invalid,
/// which the interpreter reports as a code-segment crash.
[[nodiscard]] constexpr TOp threaded_single_op(DecodedOp op) noexcept {
  return static_cast<TOp>(static_cast<std::uint8_t>(op));
}

[[nodiscard]] const char* top_name(TOp op) noexcept;

/// One threaded instruction (32 bytes).  Singles carry the DecodedInstr
/// fields verbatim (len == 1); fused ops reuse them per the pattern layout
/// documented in threaded.cpp, with `c`/`d` as extra register slots, `len`
/// as the number of covered source instructions, and cost/loop_cost as the
/// pre-summed charge for the whole region.
struct ThreadedInstr {
  std::uint16_t op = static_cast<std::uint16_t>(TOp::Invalid);
  std::uint8_t t = 0;        ///< DType byte / fused operand-order flag / packed pair
  std::uint8_t len = 1;      ///< source instructions covered (1 for singles)
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint16_t c = 0;       ///< fused: extra slot (folded Const dst, 2nd ChkXor dst, ...)
  std::uint16_t d = 0;       ///< fused: extra slot
  std::uint32_t aux = 0;
  std::uint32_t imm = 0;
  std::uint32_t cost = 0;
  std::uint32_t loop_cost = 0;
};
static_assert(sizeof(ThreadedInstr) <= 32);

/// Fusion families, for stats and tests.
enum class FuseFamily : std::uint8_t {
  ConstCmpJz, CmpJz, ConstAddJmp, AddJmp,
  ConstBin, LoadBinStore, BinChkXor, BinDupCmp, ChkXor2, RangeCheck2,
  Count_,
};
inline constexpr std::size_t kNumFuseFamilies = static_cast<std::size_t>(FuseFamily::Count_);

struct ThreadedProgram {
  std::vector<ThreadedInstr> code;  ///< 1:1 with DecodedProgram::code (position-stable)

  // Compile-time statistics (inspect tool, fusion regression tests).
  std::array<std::uint32_t, kNumFuseFamilies> fuse_counts{};  ///< fused heads per family
  std::uint32_t fused_heads = 0;    ///< total fused superinstructions emitted
  std::uint32_t fused_covered = 0;  ///< source instructions covered by fused heads
  std::uint32_t run_heads = 0;      ///< straight-line runs emitted
  std::uint32_t run_covered = 0;    ///< source instructions inside runs (incl. heads)
  /// Divergence dataflow results (the bytecode mirror of the kir divergence
  /// analysis): branches whose condition only depends on thread-uniform
  /// inputs (params, block builtins, constants) vs. thread-dependent ones.
  std::uint32_t uniform_branches = 0;
  std::uint32_t divergent_branches = 0;
  bool has_barriers = false;
};

/// Compile a predecoded stream into threaded-code form.  `num_slots` is the
/// program's register-slot count (divergence dataflow); `flat_global_memory`
/// is whether the target device uses the FlatGpu arena — load/store fusions
/// are only emitted there, because only the flat model's bounds are
/// checkable before any side effect (the PagedCpu fallback keeps singles,
/// which handle paged memory exactly like the fast engine).  `form_runs`
/// enables the straight-line-run pass (off only for the identity-translation
/// test and the inspect tool's per-op view).
[[nodiscard]] ThreadedProgram compile_threaded(const DecodedProgram& d,
                                               std::uint16_t num_slots,
                                               bool flat_global_memory,
                                               bool form_runs = true);

}  // namespace hauberk::kir
