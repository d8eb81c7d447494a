#include "hauberk/plan.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/bitops.hpp"
#include "hauberk/passes/pass_manager.hpp"

namespace hauberk::core {

const char* tri_name(Tri t) noexcept {
  switch (t) {
    case Tri::Default: return "default";
    case Tri::Off: return "off";
    case Tri::On: return "on";
  }
  return "?";
}

bool KernelPlan::trivial() const noexcept {
  return maxvar < 0 && loops == Tri::Default && nonloop == Tri::Default &&
         naive == Tri::Default && loop_actions.empty() && var_actions.empty();
}

bool plan_allows_loop(const KernelPlan& kp, std::uint32_t loop_id) noexcept {
  auto it = kp.loop_actions.find(loop_id);
  if (it != kp.loop_actions.end()) return it->second;
  for (const auto& [id, on] : kp.loop_actions)
    if (on) return false;  // allowlist mode: unlisted loops are skipped
  return true;
}

bool plan_allows_var(const KernelPlan& kp, const std::string& name) noexcept {
  auto it = kp.var_actions.find(name);
  if (it != kp.var_actions.end()) return it->second;
  for (const auto& [n, on] : kp.var_actions)
    if (on) return false;
  return true;
}

const KernelPlan* HardeningPlan::find(const std::string& kernel_name) const noexcept {
  const KernelPlan* wildcard = nullptr;
  for (const KernelPlan& kp : kernels) {
    if (kp.kernel == kernel_name) return &kp;
    if (kp.kernel.empty() && !wildcard) wildcard = &kp;
  }
  return wildcard;
}

bool HardeningPlan::trivial() const noexcept {
  for (const KernelPlan& kp : kernels)
    if (!kp.trivial()) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Serializer (canonical: fixed field order, sorted maps via std::map)
// ---------------------------------------------------------------------------

namespace {

void write_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  out += '"';
}

constexpr int kPlanVersion = 1;

}  // namespace

std::string serialize_plan(const HardeningPlan& plan) {
  std::string out = "(hauberk-plan " + std::to_string(kPlanVersion);
  for (const KernelPlan& kp : plan.kernels) {
    out += "\n (kernel ";
    write_string(out, kp.kernel);
    out += " (maxvar " + std::to_string(kp.maxvar) + ")";
    out += " (loops " + std::string(tri_name(kp.loops)) + ")";
    out += " (nonloop " + std::string(tri_name(kp.nonloop)) + ")";
    out += " (naive " + std::string(tri_name(kp.naive)) + ")";
    for (const auto& [id, on] : kp.loop_actions)
      out += " (loop " + std::to_string(id) + (on ? " on)" : " off)");
    for (const auto& [name, on] : kp.var_actions) {
      out += " (var ";
      write_string(out, name);
      out += on ? " on)" : " off)";
    }
    out += ")";
  }
  out += ")\n";
  return out;
}

// ---------------------------------------------------------------------------
// Parser (strict recursive descent over a tiny token stream)
// ---------------------------------------------------------------------------

namespace {

struct Tok {
  enum Kind { LParen, RParen, Atom, Str, End } kind = End;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) {}

  Tok next() {
    while (pos_ < src_.size() &&
           (src_[pos_] == ' ' || src_[pos_] == '\n' || src_[pos_] == '\t' ||
            src_[pos_] == '\r'))
      ++pos_;
    if (pos_ >= src_.size()) return {Tok::End, ""};
    const char c = src_[pos_];
    if (c == '(') { ++pos_; return {Tok::LParen, "("}; }
    if (c == ')') { ++pos_; return {Tok::RParen, ")"}; }
    if (c == '"') {
      ++pos_;
      std::string s;
      while (pos_ < src_.size() && src_[pos_] != '"') {
        char ch = src_[pos_++];
        if (ch == '\\') {
          if (pos_ >= src_.size()) fail("unterminated escape");
          const char e = src_[pos_++];
          switch (e) {
            case '"': ch = '"'; break;
            case '\\': ch = '\\'; break;
            case 'n': ch = '\n'; break;
            case 't': ch = '\t'; break;
            default: fail("bad escape");
          }
        }
        s += ch;
      }
      if (pos_ >= src_.size()) fail("unterminated string");
      ++pos_;  // closing quote
      return {Tok::Str, std::move(s)};
    }
    std::string a;
    while (pos_ < src_.size() && src_[pos_] != '(' && src_[pos_] != ')' &&
           src_[pos_] != '"' && src_[pos_] != ' ' && src_[pos_] != '\n' &&
           src_[pos_] != '\t' && src_[pos_] != '\r')
      a += src_[pos_++];
    return {Tok::Atom, std::move(a)};
  }

  [[noreturn]] static void fail(const std::string& why) {
    throw std::runtime_error("hauberk-plan parse error: " + why);
  }

 private:
  const std::string& src_;
  std::size_t pos_ = 0;
};

class PlanParser {
 public:
  explicit PlanParser(const std::string& src) : lex_(src) { advance(); }

  HardeningPlan parse() {
    expect(Tok::LParen, "plan must start with '('");
    expect_atom("hauberk-plan");
    const long long ver = expect_int("version");
    if (ver != kPlanVersion)
      Lexer::fail("unsupported version " + std::to_string(ver));
    HardeningPlan plan;
    while (cur_.kind == Tok::LParen) plan.kernels.push_back(parse_kernel(plan));
    expect(Tok::RParen, "expected ')' closing hauberk-plan");
    if (cur_.kind != Tok::End) Lexer::fail("trailing garbage after plan");
    return plan;
  }

 private:
  KernelPlan parse_kernel(const HardeningPlan& so_far) {
    expect(Tok::LParen, "expected '(kernel ...)'");
    expect_atom("kernel");
    KernelPlan kp;
    if (cur_.kind != Tok::Str) Lexer::fail("kernel name must be a quoted string");
    kp.kernel = cur_.text;
    advance();
    for (const KernelPlan& prev : so_far.kernels)
      if (prev.kernel == kp.kernel)
        Lexer::fail("duplicate kernel entry \"" + kp.kernel + "\"");
    while (cur_.kind == Tok::LParen) parse_field(kp);
    expect(Tok::RParen, "expected ')' closing kernel entry");
    return kp;
  }

  void parse_field(KernelPlan& kp) {
    advance();  // consume '('
    if (cur_.kind != Tok::Atom) Lexer::fail("expected field name");
    const std::string field = cur_.text;
    advance();
    if (field == "maxvar") {
      const long long v = expect_int("maxvar");
      if (v < -1 || v > 1 << 20) Lexer::fail("maxvar out of range");
      kp.maxvar = static_cast<int>(v);
    } else if (field == "loops") {
      kp.loops = expect_tri("loops");
    } else if (field == "nonloop") {
      kp.nonloop = expect_tri("nonloop");
    } else if (field == "naive") {
      kp.naive = expect_tri("naive");
    } else if (field == "loop") {
      const long long id = expect_int("loop id");
      if (id < 0 || id > 0xfffffffeLL) Lexer::fail("loop id out of range");
      const bool on = expect_on_off("loop action");
      if (!kp.loop_actions.emplace(static_cast<std::uint32_t>(id), on).second)
        Lexer::fail("duplicate loop entry " + std::to_string(id));
    } else if (field == "var") {
      if (cur_.kind != Tok::Str) Lexer::fail("var name must be a quoted string");
      const std::string name = cur_.text;
      advance();
      const bool on = expect_on_off("var action");
      if (!kp.var_actions.emplace(name, on).second)
        Lexer::fail("duplicate var entry \"" + name + "\"");
    } else {
      Lexer::fail("unknown field '" + field + "'");
    }
    expect(Tok::RParen, "expected ')' closing field");
  }

  long long expect_int(const std::string& what) {
    if (cur_.kind != Tok::Atom) Lexer::fail(what + " must be an integer");
    const std::string& t = cur_.text;
    std::size_t i = t[0] == '-' ? 1 : 0;
    if (i >= t.size()) Lexer::fail(what + " must be an integer");
    for (; i < t.size(); ++i)
      if (t[i] < '0' || t[i] > '9') Lexer::fail(what + " must be an integer");
    const long long v = std::stoll(t);
    advance();
    return v;
  }

  Tri expect_tri(const std::string& what) {
    if (cur_.kind != Tok::Atom) Lexer::fail(what + " must be on/off/default");
    Tri t;
    if (cur_.text == "on") t = Tri::On;
    else if (cur_.text == "off") t = Tri::Off;
    else if (cur_.text == "default") t = Tri::Default;
    else { Lexer::fail(what + " must be on/off/default"); }
    advance();
    return t;
  }

  bool expect_on_off(const std::string& what) {
    if (cur_.kind != Tok::Atom || (cur_.text != "on" && cur_.text != "off"))
      Lexer::fail(what + " must be on or off");
    const bool on = cur_.text == "on";
    advance();
    return on;
  }

  void expect_atom(const std::string& word) {
    if (cur_.kind != Tok::Atom || cur_.text != word)
      Lexer::fail("expected '" + word + "'");
    advance();
  }

  void expect(Tok::Kind k, const std::string& why) {
    if (cur_.kind != k) Lexer::fail(why);
    advance();
  }

  void advance() { cur_ = lex_.next(); }

  Lexer lex_;
  Tok cur_;
};

}  // namespace

HardeningPlan parse_plan(const std::string& text) { return PlanParser(text).parse(); }

HardeningPlan load_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("hauberk-plan: cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_plan(buf.str());
}

std::uint64_t plan_digest(const HardeningPlan& plan) noexcept {
  if (plan.trivial()) return 0;  // plan-free campaign digests must not move
  const std::string text = serialize_plan(plan);
  const std::uint64_t h =
      common::Fnv1a(common::Fnv1a::kLegacyBasis).bytes(text.data(), text.size()).value();
  return h ? h : 1;
}

TranslateOptions apply_plan(const TranslateOptions& opt, const HardeningPlan& plan,
                            const std::string& kernel_name) {
  TranslateOptions eff = opt;
  const KernelPlan* kp = plan.find(kernel_name);
  eff.kernel_plan = kp;
  if (!kp) return eff;
  if (kp->maxvar >= 0) eff.maxvar = kp->maxvar;
  if (kp->loops != Tri::Default) eff.protect_loop = kp->loops == Tri::On;
  if (kp->nonloop != Tri::Default) eff.protect_nonloop = kp->nonloop == Tri::On;
  if (kp->naive != Tri::Default) eff.naive_duplication = kp->naive == Tri::On;
  return eff;
}

PassPipeline plan_to_pipeline(const HardeningPlan& plan, const TranslateOptions& base,
                              const std::string& kernel_name, TranslateOptions* resolved) {
  const TranslateOptions eff = apply_plan(base, plan, kernel_name);
  PassPipeline pipe = pipeline_for(eff.mode, eff);
  if (eff.kernel_plan && !eff.kernel_plan->trivial())
    pipe.set_name(pipe.name() + ".plan");
  if (resolved) *resolved = eff;
  return pipe;
}

}  // namespace hauberk::core
