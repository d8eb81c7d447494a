#include "hauberk/prune.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/bitops.hpp"
#include "kir/analysis.hpp"
#include "kir/analysis_manager.hpp"
#include "kir/defuse.hpp"

namespace hauberk::prune {

const SiteFacts* KernelPruneFacts::find(std::uint32_t site_id) const noexcept {
  const auto it = std::lower_bound(
      sites.begin(), sites.end(), site_id,
      [](const SiteFacts& f, std::uint32_t id) { return f.site_id < id; });
  return it != sites.end() && it->site_id == site_id ? &*it : nullptr;
}

const KernelPruneFacts* PruningPlan::find(const std::string& kernel) const noexcept {
  for (const KernelPruneFacts& k : kernels)
    if (k.kernel == kernel) return &k;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Facts builder
// ---------------------------------------------------------------------------

namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ull;
}

}  // namespace

KernelPruneFacts build_kernel_prune_facts(const kir::Kernel& instrumented,
                                          const kir::BytecodeProgram& program,
                                          kir::AnalysisManager* am) {
  kir::AnalysisManager local(instrumented);
  kir::AnalysisManager& mgr = am ? *am : local;
  const kir::DefUseAnalysis& du = mgr.def_use();
  const kir::Analysis& an = mgr.analysis();

  KernelPruneFacts out;
  out.kernel = instrumented.name;
  out.program_digest = kir::program_digest(program);
  out.sites.reserve(program.fi_sites.size());
  for (const kir::FISite& site : program.fi_sites) {
    SiteFacts f;
    f.site_id = site.site_id;
    if (site.var < instrumented.vars.size()) {
      const kir::VarDefUse& v = du.var(site.var);
      // A dead-window hook fires after the variable's last semantic use in
      // the statement list of its definition: stores/branches can no longer
      // see the flip, but detectors that re-read the value at check time
      // (checksum validate, dup compare) still can — only the
      // detector-reachable bits stay live.  The window claim does not hold
      // for values that outlive that list: a loop-carried variable is read
      // again by the next iteration, and a use-before-def variable has reads
      // the placement scan cannot order against the hook.
      const bool window_closed = !v.loop_carried && !v.use_before_def;
      f.live_mask = site.dead_window && window_closed ? v.detector_observed_mask
                                                     : v.observed_mask;
      f.uniform = !v.divergent;
      const bool iterator_site = site.hw == kir::HwComponent::Scheduler ||
                                 an.facts(site.var).is_loop_iterator;
      f.occ_symmetric = du.occurrence_symmetric(site.var) && !iterator_site;
      // Fold the site-level attributes the cone hash cannot see from the
      // variable alone: hw component, dtype, loop membership, dead window.
      f.cone_sig = fnv(v.cone_sig, static_cast<std::uint64_t>(site.hw));
      f.cone_sig = fnv(f.cone_sig, static_cast<std::uint64_t>(site.type));
      f.cone_sig = fnv(f.cone_sig, (site.in_loop ? 2u : 0u) | (site.dead_window ? 1u : 0u));
    } else {
      f.live_mask = 0xffffffffu;  // unknown var: never prune
      f.cone_sig = fnv(0x6261Dull, site.site_id);
    }
    out.sites.push_back(f);
  }
  std::sort(out.sites.begin(), out.sites.end(),
            [](const SiteFacts& a, const SiteFacts& b) { return a.site_id < b.site_id; });
  return out;
}

// ---------------------------------------------------------------------------
// Serializer (canonical: fixed field order, sites sorted by id)
// ---------------------------------------------------------------------------

namespace {

constexpr int kPruneVersion = 1;

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

std::string hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  if (v == 0) return "0";
  char buf[16];
  int i = 16;
  while (v != 0) {
    buf[--i] = digits[v & 0xf];
    v >>= 4;
  }
  return std::string(buf + i, buf + 16);
}

}  // namespace

std::string serialize_pruning_plan(const PruningPlan& plan) {
  std::string out = "(hauberk-prune " + std::to_string(kPruneVersion);
  for (const KernelPruneFacts& k : plan.kernels) {
    out += "\n (kernel ";
    write_string(out, k.kernel);
    out += " (program " + hex(k.program_digest) + ")";
    for (const SiteFacts& f : k.sites) {
      out += "\n  (site " + std::to_string(f.site_id);
      out += " (live " + hex(f.live_mask) + ")";
      out += " (cone " + hex(f.cone_sig) + ")";
      out += std::string(" (uniform ") + (f.uniform ? "1)" : "0)");
      out += std::string(" (occsym ") + (f.occ_symmetric ? "1)" : "0)");
      out += ")";
    }
    out += ")";
  }
  out += ")\n";
  return out;
}

// ---------------------------------------------------------------------------
// Parser (same strict tokenizer dialect as hauberk/plan.cpp)
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
    throw std::runtime_error("hauberk-prune parse error: " + why);
  }

 private:
  const std::string& src_;
  std::size_t pos_ = 0;
};

class PruneParser {
 public:
  explicit PruneParser(const std::string& src) : lex_(src) { advance(); }

  PruningPlan parse() {
    expect(Tok::LParen, "plan must start with '('");
    expect_atom("hauberk-prune");
    const std::uint64_t ver = expect_hex("version");
    if (ver != static_cast<std::uint64_t>(kPruneVersion))
      Lexer::fail("unsupported version " + std::to_string(ver));
    PruningPlan plan;
    while (cur_.kind == Tok::LParen) plan.kernels.push_back(parse_kernel(plan));
    expect(Tok::RParen, "expected ')' closing hauberk-prune");
    if (cur_.kind != Tok::End) Lexer::fail("trailing garbage after plan");
    return plan;
  }

 private:
  KernelPruneFacts parse_kernel(const PruningPlan& so_far) {
    expect(Tok::LParen, "expected '(kernel ...)'");
    expect_atom("kernel");
    KernelPruneFacts k;
    if (cur_.kind != Tok::Str) Lexer::fail("kernel name must be a quoted string");
    k.kernel = cur_.text;
    advance();
    for (const KernelPruneFacts& prev : so_far.kernels)
      if (prev.kernel == k.kernel)
        Lexer::fail("duplicate kernel entry \"" + k.kernel + "\"");
    expect(Tok::LParen, "expected '(program ...)'");
    expect_atom("program");
    k.program_digest = expect_hex("program digest");
    expect(Tok::RParen, "expected ')' closing program");
    while (cur_.kind == Tok::LParen) parse_site(k);
    expect(Tok::RParen, "expected ')' closing kernel entry");
    return k;
  }

  void parse_site(KernelPruneFacts& k) {
    advance();  // consume '('
    expect_atom("site");
    SiteFacts f;
    const std::uint64_t id = expect_hex("site id");
    if (id > 0xffffffffull) Lexer::fail("site id out of range");
    f.site_id = static_cast<std::uint32_t>(id);
    if (std::any_of(k.sites.begin(), k.sites.end(),
                    [&](const SiteFacts& s) { return s.site_id == f.site_id; }))
      Lexer::fail("duplicate site entry " + std::to_string(f.site_id));
    while (cur_.kind == Tok::LParen) {
      advance();
      if (cur_.kind != Tok::Atom) Lexer::fail("expected site field name");
      const std::string field = cur_.text;
      advance();
      if (field == "live") {
        const std::uint64_t v = expect_hex("live mask");
        if (v > 0xffffffffull) Lexer::fail("live mask out of range");
        f.live_mask = static_cast<std::uint32_t>(v);
      } else if (field == "cone") {
        f.cone_sig = expect_hex("cone signature");
      } else if (field == "uniform") {
        f.uniform = expect_bit("uniform");
      } else if (field == "occsym") {
        f.occ_symmetric = expect_bit("occsym");
      } else {
        Lexer::fail("unknown site field '" + field + "'");
      }
      expect(Tok::RParen, "expected ')' closing site field");
    }
    expect(Tok::RParen, "expected ')' closing site entry");
    k.sites.push_back(f);
  }

  std::uint64_t expect_hex(const std::string& what) {
    if (cur_.kind != Tok::Atom || cur_.text.empty() || cur_.text.size() > 16)
      Lexer::fail(what + " must be a hex number");
    std::uint64_t v = 0;
    for (const char c : cur_.text) {
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
      else Lexer::fail(what + " must be a hex number");
    }
    advance();
    return v;
  }

  bool expect_bit(const std::string& what) {
    if (cur_.kind != Tok::Atom || (cur_.text != "0" && cur_.text != "1"))
      Lexer::fail(what + " must be 0 or 1");
    const bool on = cur_.text == "1";
    advance();
    return on;
  }

  void expect_atom(const std::string& word) {
    if (cur_.kind != Tok::Atom || cur_.text != word)
      Lexer::fail("expected '" + word + "'");
    advance();
  }

  void expect(Tok::Kind kd, const std::string& why) {
    if (cur_.kind != kd) Lexer::fail(why);
    advance();
  }

  void advance() { cur_ = lex_.next(); }

  Lexer lex_;
  Tok cur_;
};

}  // namespace

PruningPlan parse_pruning_plan(const std::string& text) { return PruneParser(text).parse(); }

PruningPlan load_pruning_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("hauberk-prune: cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_pruning_plan(buf.str());
}

std::uint64_t pruning_plan_digest(const PruningPlan& plan) noexcept {
  if (plan.trivial()) return 0;  // prune-free campaign digests must not move
  const std::string text = serialize_pruning_plan(plan);
  const std::uint64_t h =
      common::Fnv1a(common::Fnv1a::kLegacyBasis).bytes(text.data(), text.size()).value();
  return h ? h : 1;
}

}  // namespace hauberk::prune
