#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/bitops.hpp"
#include "kir/bytecode.hpp"

namespace hauberk::kir {

namespace {

/// Pack an op enum and operand dtype into the instruction `aux` field.
constexpr std::uint32_t pack_aux(std::uint32_t op, DType t) {
  return op | (static_cast<std::uint32_t>(t) << 16);
}

class Lowerer {
 public:
  explicit Lowerer(const Kernel& k) : k_(k) {
    p_.name = k.name;
    p_.shared_mem_words = k.shared_mem_words;
    p_.num_params = static_cast<std::uint16_t>(k.params.size());
    p_.var_slot.resize(k.vars.size());
    for (const auto& prm : k.params) p_.slot_types.push_back(prm.type);
    // Ordinary variables first, R-Scatter shadows last: shadows must not
    // shift the original program's slots into spill territory.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t v = 0; v < k.vars.size(); ++v) {
        if (k.vars[v].scatter_shadow != (pass == 1)) continue;
        p_.var_slot[v] = static_cast<std::uint16_t>(p_.slot_types.size());
        p_.slot_types.push_back(k.vars[v].type);
      }
    }
    p_.num_named = static_cast<std::uint16_t>(k.vars.size());
    // The Hauberk checksum variable is one real register shared by all
    // duplicated virtual variables (Section V.A).  Reserving its slot below
    // the temporaries reproduces the paper's register-pressure effect: in a
    // register-tight kernel the checksum pushes loop temporaries into spill
    // territory, making Hauberk-NL cost more than the non-loop time share.
    if (uses_checksum(k.body)) {
      checksum_slot_ = static_cast<std::uint16_t>(p_.slot_types.size());
      p_.slot_types.push_back(DType::I32);
    }
    temp_base_ = static_cast<std::uint16_t>(p_.slot_types.size());
    next_temp_ = temp_base_;
    max_slot_ = temp_base_;
  }

  static bool uses_checksum(const StmtList& body) {
    for (const auto& s : body) {
      if (s->kind == StmtKind::ChecksumXor || s->kind == StmtKind::ChecksumValidate) return true;
      if (uses_checksum(s->body) || uses_checksum(s->else_body)) return true;
    }
    return false;
  }

  BytecodeProgram run() {
    lower_body(k_.body, /*in_loop=*/false, /*extra=*/0);
    emit(OpCode::Halt, 0);
    p_.num_slots = max_slot_;
    p_.slot_types.resize(max_slot_, DType::I32);
    relocate_scatter_shadows();
    return std::move(p_);
  }

 private:
  /// Renumber register slots so that R-Scatter shadow variables occupy the
  /// highest indices — *above* the temporaries.  Shadows model duplicated
  /// data packed into otherwise-idle register lanes: they must neither push
  /// the original variables nor the temporaries into spill territory
  /// (scatter-flagged instructions are themselves spill-exempt).
  void relocate_scatter_shadows() {
    std::vector<bool> is_shadow(p_.num_slots, false);
    std::size_t n_shadow = 0;
    for (std::size_t v = 0; v < k_.vars.size(); ++v)
      if (k_.vars[v].scatter_shadow) {
        is_shadow[p_.var_slot[v]] = true;
        ++n_shadow;
      }
    if (n_shadow == 0) return;
    std::vector<std::uint16_t> remap(p_.num_slots);
    std::vector<DType> new_types(p_.num_slots, DType::I32);
    std::uint16_t lo = 0;
    std::uint16_t hi = static_cast<std::uint16_t>(p_.num_slots - n_shadow);
    for (std::uint16_t s = 0; s < p_.num_slots; ++s) {
      remap[s] = is_shadow[s] ? hi++ : lo++;
      new_types[remap[s]] = p_.slot_types[s];
    }
    for (auto& slot : p_.var_slot) slot = remap[slot];
    p_.slot_types = std::move(new_types);
    for (Instr& in : p_.code) {
      in.dst = remap[in.dst];
      in.a = remap[in.a];
      in.b = remap[in.b];
      if (in.op == OpCode::Select) in.imm = remap[static_cast<std::uint16_t>(in.imm)];
    }
    for (auto& site : p_.fi_sites) site.slot = remap[site.slot];
  }

  // --- temp slot management (free-list so expression depth, not size,
  //     bounds register demand, approximating a real register allocator) ---
  std::uint16_t alloc_temp() {
    if (!free_.empty()) {
      const std::uint16_t s = free_.back();
      free_.pop_back();
      return s;
    }
    const std::uint16_t s = next_temp_++;
    max_slot_ = std::max<std::uint16_t>(max_slot_, next_temp_);
    return s;
  }
  void release(std::uint16_t slot) {
    if (slot >= temp_base_) free_.push_back(slot);
  }

  std::size_t emit(OpCode op, std::uint32_t aux, std::uint16_t dst = 0, std::uint16_t a = 0,
                   std::uint16_t b = 0, std::uint32_t imm = 0) {
    Instr i;
    i.op = op;
    i.flags = cur_flags_;
    i.dst = dst;
    i.a = a;
    i.b = b;
    i.aux = aux;
    i.imm = imm;
    p_.code.push_back(i);
    p_.stmt_origin.push_back(cur_origin_);
    return p_.code.size() - 1;
  }

  void patch(std::size_t at, std::uint32_t target) {
    p_.code[at].aux = target;
  }
  [[nodiscard]] std::uint32_t here() const { return static_cast<std::uint32_t>(p_.code.size()); }

  // --- expressions ---

  [[nodiscard]] bool is_temp(std::uint16_t slot) const { return slot >= temp_base_; }

  /// Lower `e`, returning the slot holding the result.  Named variables and
  /// params return their fixed slot without emitting code.  Operator nodes
  /// reuse an operand's temp slot as their destination (the interpreter
  /// reads operands before writing), so register demand tracks expression
  /// *depth* rather than size — approximating a real register allocator.
  std::uint16_t lower_expr(const ExprPtr& e) {
    switch (e->kind) {
      case ExprKind::VarRef:
        return p_.var_slot[e->var];
      case ExprKind::ParamRef:
        return static_cast<std::uint16_t>(e->param);
      case ExprKind::Unary: {
        const std::uint16_t a = lower_expr(e->a);
        const std::uint16_t dst = is_temp(a) ? a : alloc_temp();
        emit(OpCode::Un, pack_aux(static_cast<std::uint32_t>(e->un), e->a->type), dst, a);
        return dst;
      }
      case ExprKind::Binary: {
        const std::uint16_t a = lower_expr(e->a);
        const std::uint16_t b = lower_expr(e->b);
        const std::uint16_t dst = is_temp(a) ? a : (is_temp(b) ? b : alloc_temp());
        DType t = e->a->type;
        if (e->b->type == DType::PTR || t == DType::PTR) t = DType::PTR;
        else if (e->a->type == DType::F32 || e->b->type == DType::F32) t = DType::F32;
        emit(OpCode::Bin, pack_aux(static_cast<std::uint32_t>(e->bin), t), dst, a, b);
        if (is_temp(b) && b != dst) release(b);
        if (is_temp(a) && a != dst) release(a);
        return dst;
      }
      case ExprKind::Select: {
        const std::uint16_t c = lower_expr(e->a);
        const std::uint16_t tv = lower_expr(e->b);
        const std::uint16_t ev = lower_expr(e->c);
        std::uint16_t dst = is_temp(c) ? c : (is_temp(tv) ? tv : (is_temp(ev) ? ev : alloc_temp()));
        emit(OpCode::Select, 0, dst, c, tv, ev);
        for (std::uint16_t s : {c, tv, ev})
          if (is_temp(s) && s != dst) release(s);
        return dst;
      }
      case ExprKind::LoadGlobal: {
        const std::uint16_t a = lower_expr(e->a);
        const std::uint16_t dst = is_temp(a) ? a : alloc_temp();
        emit(OpCode::LoadG, 0, dst, a);
        return dst;
      }
      case ExprKind::LoadShared: {
        const std::uint16_t a = lower_expr(e->a);
        const std::uint16_t dst = is_temp(a) ? a : alloc_temp();
        emit(OpCode::LoadS, 0, dst, a);
        return dst;
      }
      default: {
        const std::uint16_t t = alloc_temp();
        lower_expr_to(e, t);
        return t;
      }
    }
  }

  /// Lower `e` into a specific destination slot.
  void lower_expr_to(const ExprPtr& e, std::uint16_t dst) {
    switch (e->kind) {
      case ExprKind::Const:
        emit(OpCode::Const, 0, dst, 0, 0, e->constant.bits);
        break;
      case ExprKind::VarRef:
        emit(OpCode::Mov, 0, dst, p_.var_slot[e->var]);
        break;
      case ExprKind::ParamRef:
        emit(OpCode::Mov, 0, dst, static_cast<std::uint16_t>(e->param));
        break;
      case ExprKind::Builtin:
        emit(OpCode::Builtin, static_cast<std::uint32_t>(e->builtin), dst);
        break;
      case ExprKind::LoadGlobal: {
        const std::uint16_t a = lower_expr(e->a);
        emit(OpCode::LoadG, 0, dst, a);
        release(a);
        break;
      }
      case ExprKind::LoadShared: {
        const std::uint16_t a = lower_expr(e->a);
        emit(OpCode::LoadS, 0, dst, a);
        release(a);
        break;
      }
      case ExprKind::Unary: {
        const std::uint16_t a = lower_expr(e->a);
        emit(OpCode::Un, pack_aux(static_cast<std::uint32_t>(e->un), e->a->type), dst, a);
        release(a);
        break;
      }
      case ExprKind::Binary: {
        const std::uint16_t a = lower_expr(e->a);
        const std::uint16_t b = lower_expr(e->b);
        // Operand dtype: pointer arithmetic dominates, then float.
        DType t = e->a->type;
        if (e->b->type == DType::PTR || t == DType::PTR) t = DType::PTR;
        else if (e->a->type == DType::F32 || e->b->type == DType::F32) t = DType::F32;
        emit(OpCode::Bin, pack_aux(static_cast<std::uint32_t>(e->bin), t), dst, a, b);
        release(a);
        release(b);
        break;
      }
      case ExprKind::Select: {
        const std::uint16_t c = lower_expr(e->a);
        const std::uint16_t tv = lower_expr(e->b);
        const std::uint16_t ev = lower_expr(e->c);
        emit(OpCode::Select, 0, dst, c, tv, ev);
        release(c);
        release(tv);
        release(ev);
        break;
      }
      default:
        throw std::runtime_error("lower_expr_to: bad expression kind");
    }
  }

  // --- statements ---

  void lower_body(const StmtList& body, bool in_loop, std::uint8_t extra) {
    for (const auto& s : body) lower_stmt(*s, in_loop, extra);
  }

  void lower_stmt(const Stmt& s, bool in_loop, std::uint8_t extra) {
    const std::uint8_t saved = cur_flags_;
    // Provenance: non-internal statements are numbered in pre-order (the
    // same order in every lowering of this kernel, since instrumentation
    // only inserts internal statements and never reorders the original).
    const std::int32_t saved_origin = cur_origin_;
    cur_origin_ = s.hauberk_internal ? -1 : next_ordinal_++;
    cur_flags_ = static_cast<std::uint8_t>((in_loop ? kInstrInLoop : 0) | extra | s.extra_flags);
    const std::uint8_t child_extra = static_cast<std::uint8_t>(extra | s.extra_flags);

    switch (s.kind) {
      case StmtKind::Let:
      case StmtKind::Assign:
        lower_expr_to(s.value, p_.var_slot[s.var]);
        break;
      case StmtKind::StoreGlobal: {
        const std::uint16_t a = lower_expr(s.addr);
        const std::uint16_t b = lower_expr(s.value);
        emit(OpCode::StoreG, 0, 0, a, b);
        release(a);
        release(b);
        break;
      }
      case StmtKind::StoreShared: {
        const std::uint16_t a = lower_expr(s.addr);
        const std::uint16_t b = lower_expr(s.value);
        emit(OpCode::StoreS, 0, 0, a, b);
        release(a);
        release(b);
        break;
      }
      case StmtKind::AtomicAddGlobal: {
        const std::uint16_t a = lower_expr(s.addr);
        const std::uint16_t b = lower_expr(s.value);
        emit(OpCode::AtomicAddG, pack_aux(0, s.value->type), 0, a, b);
        release(a);
        release(b);
        break;
      }
      case StmtKind::For: {
        const std::uint16_t iter = p_.var_slot[s.var];
        lower_expr_to(s.init, iter);
        const std::uint32_t cond_pc = here();
        cur_flags_ = static_cast<std::uint8_t>(kInstrInLoop | child_extra);
        const std::uint16_t lim = lower_expr(s.limit);
        const std::uint16_t cmp = alloc_temp();
        emit(OpCode::Bin, pack_aux(static_cast<std::uint32_t>(BinOp::Lt), DType::I32), cmp, iter,
             lim);
        release(lim);
        const std::size_t jz = emit(OpCode::Jz, 0, 0, cmp);
        release(cmp);
        lower_body(s.body, /*in_loop=*/true, child_extra);
        cur_flags_ = static_cast<std::uint8_t>(kInstrInLoop | child_extra);
        const std::uint16_t st = lower_expr(s.step);
        emit(OpCode::Bin, pack_aux(static_cast<std::uint32_t>(BinOp::Add), DType::I32), iter, iter,
             st);
        release(st);
        emit(OpCode::Jmp, cond_pc);
        patch(jz, here());
        break;
      }
      case StmtKind::While: {
        const std::uint32_t cond_pc = here();
        cur_flags_ = static_cast<std::uint8_t>(kInstrInLoop | child_extra);
        const std::uint16_t c = lower_expr(s.value);
        const std::size_t jz = emit(OpCode::Jz, 0, 0, c);
        release(c);
        lower_body(s.body, /*in_loop=*/true, child_extra);
        emit(OpCode::Jmp, cond_pc);
        patch(jz, here());
        break;
      }
      case StmtKind::If: {
        const std::uint16_t c = lower_expr(s.value);
        const std::size_t jz = emit(OpCode::Jz, 0, 0, c);
        release(c);
        lower_body(s.body, in_loop, child_extra);
        if (s.else_body.empty()) {
          patch(jz, here());
        } else {
          const std::size_t jend = emit(OpCode::Jmp, 0);
          patch(jz, here());
          lower_body(s.else_body, in_loop, child_extra);
          patch(jend, here());
        }
        break;
      }
      case StmtKind::Barrier:
        emit(OpCode::Barrier, 0);
        break;

      case StmtKind::ChecksumXor: {
        const std::uint16_t a = lower_expr(s.value);
        emit(OpCode::ChkXor, 0, checksum_slot_, a);
        release(a);
        break;
      }
      case StmtKind::ChecksumValidate:
        emit(OpCode::ChkValidate, 0, checksum_slot_);
        break;
      case StmtKind::DupCheck: {
        const std::uint16_t a = lower_expr(s.value);  // the duplicated computation
        emit(OpCode::DupCmp, 0, 0, a, p_.var_slot[s.var]);
        release(a);
        break;
      }
      case StmtKind::RangeCheck: {
        const std::uint16_t a = lower_expr(s.value);
        emit(OpCode::RangeCheck, static_cast<std::uint32_t>(s.detector_id), 0, a);
        release(a);
        note_detector(s, s.value->type, /*iteration=*/false);
        break;
      }
      case StmtKind::EqualCheck: {
        const std::uint16_t a = lower_expr(s.value);
        const std::uint16_t b = lower_expr(s.rhs);
        emit(OpCode::EqualCheck, static_cast<std::uint32_t>(s.detector_id), 0, a, b);
        release(a);
        release(b);
        note_detector(s, s.value->type, /*iteration=*/true);
        break;
      }
      case StmtKind::ProfileValue: {
        const std::uint16_t a = lower_expr(s.value);
        emit(OpCode::ProfileVal, static_cast<std::uint32_t>(s.detector_id), 0, a);
        release(a);
        note_detector(s, s.value->type, /*iteration=*/false);
        break;
      }
      case StmtKind::CountExec:
        emit(OpCode::CountExec, site_index(s, in_loop));
        break;
      case StmtKind::FIHook:
        emit(OpCode::FIHook, site_index(s, in_loop), 0, p_.var_slot[s.var]);
        break;
    }
    cur_flags_ = saved;
    cur_origin_ = saved_origin;
  }

  /// Register (or find) the FISite for a CountExec/FIHook statement; returns
  /// the index into fi_sites.  The same site id may appear once in the
  /// profiler build (CountExec) and once in the FI build (FIHook).
  std::uint32_t site_index(const Stmt& s, bool in_loop) {
    for (std::uint32_t i = 0; i < p_.fi_sites.size(); ++i)
      if (p_.fi_sites[i].site_id == s.site) return i;
    FISite site;
    site.site_id = s.site;
    site.var = s.var;
    site.slot = s.var != kInvalidVar ? p_.var_slot[s.var] : 0;
    site.type = s.var != kInvalidVar ? k_.vars[s.var].type : DType::I32;
    site.hw = s.hw;
    site.in_loop = in_loop;
    site.dead_window = s.fi_dead_window;
    site.var_name = s.var != kInvalidVar ? k_.vars[s.var].name : "<none>";
    p_.fi_sites.push_back(std::move(site));
    return static_cast<std::uint32_t>(p_.fi_sites.size() - 1);
  }

  void note_detector(const Stmt& s, DType t, bool iteration) {
    const int id = s.detector_id;
    if (id < 0) return;
    if (static_cast<std::size_t>(id) >= p_.detectors.size())
      p_.detectors.resize(static_cast<std::size_t>(id) + 1);
    DetectorMeta& m = p_.detectors[static_cast<std::size_t>(id)];
    m.id = id;
    if (m.name.empty()) m.name = s.label;
    // The value check determines the detector's value type; the iteration
    // check shares the id space but never overrides an existing value check.
    if (!iteration || m.name.empty()) m.value_type = t;
    if (iteration) m.is_iteration_check = true;
  }

  const Kernel& k_;
  BytecodeProgram p_;
  std::uint16_t checksum_slot_ = 0;
  std::uint16_t temp_base_ = 0;
  std::uint16_t next_temp_ = 0;
  std::uint16_t max_slot_ = 0;
  std::vector<std::uint16_t> free_;
  std::uint8_t cur_flags_ = 0;
  std::int32_t cur_origin_ = -1;   ///< stmt_origin value for emitted instrs
  std::int32_t next_ordinal_ = 0;  ///< next non-internal statement ordinal
};

}  // namespace

BytecodeProgram lower(const Kernel& kernel) {
  Lowerer l(kernel);
  auto p = l.run();
  return p;
}

std::string disassemble(const BytecodeProgram& p) {
  static constexpr const char* names[] = {
      "nop",  "const", "mov",  "builtin", "un",   "bin",   "select", "loadg",
      "storeg", "loads", "stores", "atomaddg", "jmp", "jz", "barrier", "halt",
      "chkxor", "chkval", "dupcmp", "rangechk", "eqchk", "profval", "cntexec", "fihook"};
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "kernel %s: %u slots (%u params, %u named)\n", p.name.c_str(),
                p.num_slots, p.num_params, p.num_named);
  out += buf;
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    const Instr& in = p.code[i];
    std::snprintf(buf, sizeof(buf), "%4zu%s %-9s dst=%-4u a=%-4u b=%-4u aux=%-10u imm=%u\n", i,
                  (in.flags & kInstrInLoop) ? "L" : " ",
                  names[static_cast<int>(in.op)], in.dst, in.a, in.b, in.aux, in.imm);
    out += buf;
  }
  return out;
}

namespace {

/// Names are length-prefixed with a 32-bit count in this digest.
void digest_str(common::Fnv1a& f, const std::string& s) noexcept {
  f.pod(static_cast<std::uint32_t>(s.size())).bytes(s.data(), s.size());
}

}  // namespace

std::uint64_t program_digest(const BytecodeProgram& p) noexcept {
  common::Fnv1a f(common::Fnv1a::kLegacyBasis);
  digest_str(f, p.name);
  f.pod(p.num_params);
  f.pod(p.num_named);
  f.pod(p.num_slots);
  f.pod(p.shared_mem_words);
  f.pod<std::uint32_t>(static_cast<std::uint32_t>(p.code.size()));
  for (const auto& in : p.code) {
    f.pod(static_cast<std::uint8_t>(in.op));
    f.pod(in.flags);
    f.pod(in.dst);
    f.pod(in.a);
    f.pod(in.b);
    f.pod(in.aux);
    f.pod(in.imm);
  }
  for (const auto t : p.slot_types) f.pod(static_cast<std::uint8_t>(t));
  for (const auto s : p.var_slot) f.pod(s);
  f.pod<std::uint32_t>(static_cast<std::uint32_t>(p.fi_sites.size()));
  for (const auto& s : p.fi_sites) {
    f.pod(s.site_id);
    f.pod(s.var);
    f.pod(s.slot);
    f.pod(static_cast<std::uint8_t>(s.type));
    f.pod(static_cast<std::uint8_t>(s.hw));
    f.pod(static_cast<std::uint8_t>(s.in_loop));
    f.pod(static_cast<std::uint8_t>(s.dead_window));
    digest_str(f, s.var_name);
  }
  f.pod<std::uint32_t>(static_cast<std::uint32_t>(p.detectors.size()));
  for (const auto& d : p.detectors) {
    f.pod(d.id);
    digest_str(f, d.name);
    f.pod(static_cast<std::uint8_t>(d.value_type));
    f.pod(static_cast<std::uint8_t>(d.is_iteration_check));
  }
  return f.value();
}

}  // namespace hauberk::kir
