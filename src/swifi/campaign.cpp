#include "swifi/campaign.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/bitops.hpp"
#include "swifi/injector.hpp"

namespace hauberk::swifi {

using gpusim::Device;
using gpusim::LaunchOptions;
using gpusim::LaunchStatus;

const char* outcome_name(Outcome o) noexcept {
  switch (o) {
    case Outcome::Failure: return "failure";
    case Outcome::Masked: return "masked";
    case Outcome::DetectedMasked: return "detected&masked";
    case Outcome::Detected: return "detected";
    case Outcome::Undetected: return "undetected";
    case Outcome::NotActivated: return "not-activated";
    case Outcome::RaceDetected: return "race-detected";
    case Outcome::BarrierDivergence: return "barrier-divergence";
    case Outcome::EccCorrected: return "ecc-corrected";
    case Outcome::EccDetectedUncorrectable: return "ecc-uncorrectable";
  }
  return "?";
}

void OutcomeCounts::add(Outcome o, std::uint64_t n) noexcept {
  switch (o) {
    case Outcome::Failure: failure += n; break;
    case Outcome::Masked: masked += n; break;
    case Outcome::DetectedMasked: detected_masked += n; break;
    case Outcome::Detected: detected += n; break;
    case Outcome::Undetected: undetected += n; break;
    case Outcome::NotActivated: not_activated += n; break;
    case Outcome::RaceDetected: race_detected += n; break;
    case Outcome::BarrierDivergence: barrier_divergence += n; break;
    case Outcome::EccCorrected: ecc_corrected += n; break;
    case Outcome::EccDetectedUncorrectable: ecc_uncorrectable += n; break;
  }
}

GoldenRun golden_run(Device& dev, const kir::BytecodeProgram& program, core::KernelJob& job,
                     core::ControlBlock* cb, int launch_workers) {
  const auto args = job.setup(dev);
  if (cb) cb->reset_results();
  LaunchOptions opts;
  opts.hooks = cb;
  opts.max_workers = launch_workers;
  const auto res = dev.launch(program, job.config(), args, opts);
  if (res.status != LaunchStatus::Ok)
    throw std::runtime_error("swifi golden run failed: " +
                             std::string(gpusim::launch_status_name(res.status)));
  return {job.read_output(dev), res.instructions / std::max<std::uint64_t>(1, res.threads)};
}

std::vector<FaultSpec> plan_faults(const kir::BytecodeProgram& fi_program,
                                   const core::ProfileData& profile, const PlanOptions& opt) {
  common::Rng rng = common::Rng::fork(opt.seed, 0xFA017);

  // Candidate sites: executed at least once and passing the filters.
  struct Candidate {
    std::uint32_t site_index;
    std::vector<std::uint32_t> threads;  ///< threads that execute the site
  };
  std::vector<Candidate> candidates;
  for (std::uint32_t si = 0; si < fi_program.fi_sites.size(); ++si) {
    const kir::FISite& site = fi_program.fi_sites[si];
    if (opt.type_filter && site.type != *opt.type_filter) continue;
    if (opt.hw_filter && site.hw != *opt.hw_filter) continue;
    if (si >= profile.exec_counts.size()) continue;
    Candidate c;
    c.site_index = si;
    const auto& counts = profile.exec_counts[si];
    for (std::uint32_t t = 0; t < counts.size(); ++t)
      if (counts[t] > 0) c.threads.push_back(t);
    if (!c.threads.empty()) candidates.push_back(std::move(c));
  }

  // Sample up to max_vars distinct sites.
  std::shuffle(candidates.begin(), candidates.end(), rng);
  if (static_cast<int>(candidates.size()) > opt.max_vars)
    candidates.resize(static_cast<std::size_t>(opt.max_vars));

  std::vector<FaultSpec> specs;
  specs.reserve(candidates.size() * static_cast<std::size_t>(opt.masks_per_var));
  for (const Candidate& c : candidates) {
    const kir::FISite& site = fi_program.fi_sites[c.site_index];
    for (int m = 0; m < opt.masks_per_var; ++m) {
      FaultSpec s;
      s.site_id = site.site_id;
      s.var = site.var;
      s.type = site.type;
      s.hw = site.hw;
      s.thread = c.threads[rng.next_below(c.threads.size())];
      const std::uint32_t max_occ = profile.exec_counts[c.site_index][s.thread];
      s.occurrence = 1 + static_cast<std::uint32_t>(rng.next_below(max_occ));
      s.mask = common::random_mask(rng, opt.error_bits);
      specs.push_back(s);
    }
  }
  return specs;
}

namespace {

/// Sanitizer-based reclassification: when the trial ran under
/// ExecEngine::Sanitizer, faults that turned the kernel racy or broke
/// barrier uniformity are reported as their own outcome classes instead of
/// disappearing into Failure (or worse, Masked).  Out-of-bounds reports do
/// not reclassify — the crash status already names those precisely.
std::optional<Outcome> sanitizer_outcome(const Device& dev, const gpusim::LaunchResult& res) {
  if (dev.engine() != gpusim::ExecEngine::Sanitizer) return std::nullopt;
  bool divergence = res.status == LaunchStatus::CrashBarrierDeadlock;
  bool race = false;
  for (const auto& r : res.sanitizer_reports) {
    if (r.kind == gpusim::HazardKind::BarrierDivergence) divergence = true;
    else if (r.kind != gpusim::HazardKind::SharedOutOfBounds) race = true;
  }
  if (divergence) return Outcome::BarrierDivergence;
  if (race) return Outcome::RaceDetected;
  return std::nullopt;
}

/// How one trial's fault gets in — the only thing the three trial kinds do
/// differently.  A register fault arms `hooks` (the FI hook flips the
/// targeted definition during the launch and reports activation); a memory
/// fault upsets one stored word drawn from `rng` after staging; a code
/// fault launches a bit-flipped mutant as `program`.
struct FaultPlanter {
  const kir::BytecodeProgram* program = nullptr;
  InjectingHooks* hooks = nullptr;
  common::Rng* rng = nullptr;
  std::uint32_t mask = 0;
};

/// Raw upset of one uniformly chosen live word, drawn over physical storage
/// indices (PagedCpu addresses are sparse).  Raw planting bypasses the
/// encoder, so ECC sees a real cell upset.  Check-bit cells are DRAM too:
/// under protection a second draw puts the strike in the pair's check byte
/// with probability 8/72.  Unprotected trials skip that draw, keeping their
/// RNG stream — and every existing golden — bitwise unchanged.  Returns
/// false when there is no live word to corrupt.
bool plant_memory_upset(gpusim::DeviceMemory& mem, common::Rng& rng, std::uint32_t mask) {
  if (mem.used_words() == 0) return false;
  const auto idx = static_cast<std::uint32_t>(rng.next_below(mem.used_words()));
  if (mem.protection() != gpusim::ecc::Scheme::None) {
    const auto r = static_cast<std::uint32_t>(rng.next_below(gpusim::ecc::kCodeBits));
    if (r >= gpusim::ecc::kDataBits) {
      mem.corrupt_check(idx, static_cast<std::uint8_t>(1u << (r - gpusim::ecc::kDataBits)));
      return true;
    }
  }
  mem.corrupt_word(idx, mask);
  return true;
}

/// The one SWIFI trial pipeline: stage -> plant -> launch -> activation and
/// sanitizer checks -> status map -> copy-out -> classify.  With a stage,
/// memory is re-staged from its cached image; without one, job.setup()
/// stages it fresh.  Both leave bitwise-identical device state.
Outcome run_trial(Device& dev, core::KernelJob& job, core::ControlBlock* cb,
                  const FaultPlanter& fault, const core::ProgramOutput& golden,
                  const workloads::Requirement& req, std::uint64_t watchdog,
                  int launch_workers, std::size_t sanitize_cap, TrialStage* stage) {
  std::vector<kir::Value> own_args;
  if (!stage) own_args = job.setup(dev);
  const std::vector<kir::Value>& args = stage ? stage->stage() : own_args;
  if (fault.rng && !plant_memory_upset(dev.mem(), *fault.rng, fault.mask))
    return Outcome::NotActivated;

  if (cb) cb->reset_results();
  LaunchOptions opts;
  opts.hooks = fault.hooks ? static_cast<gpusim::LaunchHooks*>(fault.hooks) : cb;
  opts.watchdog_instructions = watchdog;
  opts.max_workers = launch_workers;
  opts.sanitize_report_cap = sanitize_cap;
  const auto res = dev.launch(*fault.program, job.config(), args, opts);
  if (fault.hooks && !fault.hooks->activated() && res.status == LaunchStatus::Ok)
    return Outcome::NotActivated;
  if (const auto so = sanitizer_outcome(dev, res)) return *so;
  // Hardware-ECC taxonomy first: an uncorrectable (double-bit) error kills
  // the kernel but is *detected* — it never reaches results silently, so it
  // gets its own class instead of folding into Failure.
  if (res.status == LaunchStatus::EccUncorrectable) return Outcome::EccDetectedUncorrectable;
  if (res.status != LaunchStatus::Ok) return Outcome::Failure;
  core::ProgramOutput out;
  try {
    out = job.read_output(dev);
  } catch (const gpusim::EccUncorrectableError&) {
    // The kernel never touched the corrupted pair, but the device->host
    // output copy did: the machine check fires on the copy-out exactly as it
    // would on a device read.  Detected, never silent.
    return Outcome::EccDetectedUncorrectable;
  } catch (const std::out_of_range&) {
    return Outcome::Failure;
  }
  // Detector alarms keep priority over ECC.  A run that finished clean only
  // because the code corrected a single-bit memory error is EccCorrected
  // rather than Masked: the hardware, not luck or the workload's tolerance,
  // absorbed the fault.
  const bool correct = req.satisfied(out, golden);
  if (res.sdc_alarm || (cb && cb->sdc_detected()))
    return correct ? Outcome::DetectedMasked : Outcome::Detected;
  if (correct && res.ecc_corrected > 0) return Outcome::EccCorrected;
  return correct ? Outcome::Masked : Outcome::Undetected;
}

}  // namespace

const std::vector<kir::Value>& TrialStage::stage() {
  if (!primed_) {
    args_ = job_->setup(*dev_);
    image_ = dev_->mem().image();
    check_image_ = dev_->mem().check_image();
    primed_ = true;
  } else {
    dev_->mem().restore_trial(image_, check_image_);
  }
  return args_;
}

Outcome run_one_fault(Device& dev, const kir::BytecodeProgram& program, core::KernelJob& job,
                      core::ControlBlock* cb, const FaultSpec& spec,
                      const core::ProgramOutput& golden, const workloads::Requirement& req,
                      std::uint64_t watchdog_instructions, int launch_workers,
                      std::size_t sanitize_cap, TrialStage* stage) {
  InjectingHooks hooks(program, cb);
  hooks.arm(spec);
  return run_trial(dev, job, cb, {.program = &program, .hooks = &hooks},
                   golden, req, watchdog_instructions, launch_workers, sanitize_cap, stage);
}

std::uint64_t campaign_watchdog(const GoldenRun& gold, const CampaignConfig& cfg) noexcept {
  return std::max(cfg.hang_floor,
                  static_cast<std::uint64_t>(
                      static_cast<double>(gold.per_thread_instructions) * cfg.hang_factor));
}

// ---------------------------------------------------------------------------
// Memory / code faults
// ---------------------------------------------------------------------------

Outcome run_one_memory_fault(Device& dev, const kir::BytecodeProgram& program,
                             core::KernelJob& job, common::Rng& rng, std::uint32_t mask,
                             const core::ProgramOutput& golden,
                             const workloads::Requirement& req,
                             std::uint64_t watchdog_instructions, int launch_workers,
                             std::size_t sanitize_cap, core::ControlBlock* cb,
                             TrialStage* stage) {
  return run_trial(dev, job, cb, {.program = &program, .rng = &rng, .mask = mask},
                   golden, req, watchdog_instructions, launch_workers, sanitize_cap, stage);
}

bool validate_program(const kir::BytecodeProgram& p) {
  // Control must never fall off the end: the engines fetch code[pc] without
  // a bounds check, so the last instruction has to be one that cannot fall
  // through (a Halt, or a Jmp whose target is checked below).
  if (p.code.empty() ||
      (p.code.back().op != kir::OpCode::Halt && p.code.back().op != kir::OpCode::Jmp))
    return false;
  const auto max_op = static_cast<std::uint8_t>(kir::OpCode::FIHook);
  for (const kir::Instr& in : p.code) {
    if (static_cast<std::uint8_t>(in.op) > max_op) return false;
    if (in.dst >= p.num_slots || in.a >= p.num_slots || in.b >= p.num_slots) return false;
    switch (in.op) {
      case kir::OpCode::Jmp:
      case kir::OpCode::Jz:
        // A target of exactly code.size() would make the interpreter fetch
        // past the end (the last real instruction is the Halt at size()-1),
        // so it is as undecodable as any other out-of-range target.
        if (in.aux >= p.code.size()) return false;
        break;
      case kir::OpCode::Un:
        if ((in.aux & 0xffffu) > static_cast<std::uint32_t>(kir::UnOp::CastI32)) return false;
        if (((in.aux >> 16) & 0xffu) > 2) return false;
        break;
      case kir::OpCode::Bin:
        if ((in.aux & 0xffffu) > static_cast<std::uint32_t>(kir::BinOp::LogicalOr)) return false;
        if (((in.aux >> 16) & 0xffu) > 2) return false;
        break;
      case kir::OpCode::Builtin:
        if (in.aux > static_cast<std::uint32_t>(kir::BuiltinVal::ThreadLinear)) return false;
        break;
      case kir::OpCode::Select:
        if (in.imm >= p.num_slots) return false;
        break;
      case kir::OpCode::FIHook:
      case kir::OpCode::CountExec:
        if (in.aux >= p.fi_sites.size()) return false;
        break;
      case kir::OpCode::RangeCheck:
      case kir::OpCode::EqualCheck:
      case kir::OpCode::ProfileVal:
        if (in.aux >= p.detectors.size()) return false;
        break;
      default:
        break;
    }
  }
  return true;
}

Outcome run_one_code_fault(Device& dev, const kir::BytecodeProgram& program,
                           core::KernelJob& job, common::Rng& rng,
                           const core::ProgramOutput& golden,
                           const workloads::Requirement& req,
                           std::uint64_t watchdog_instructions, int launch_workers,
                           std::size_t sanitize_cap, TrialStage* stage) {
  kir::BytecodeProgram mutant = program;
  if (mutant.code.empty()) return Outcome::NotActivated;
  const std::size_t instr = rng.next_below(mutant.code.size());
  const int bit = static_cast<int>(rng.next_below(sizeof(kir::Instr) * 8));
  auto* bytes = reinterpret_cast<unsigned char*>(&mutant.code[instr]);
  bytes[bit / 8] = static_cast<unsigned char>(bytes[bit / 8] ^ (1u << (bit % 8)));

  // An undecodable mutant traps at fetch: illegal-instruction failure.
  if (!validate_program(mutant)) return Outcome::Failure;
  return run_trial(dev, job, nullptr, {.program = &mutant},
                   golden, req, watchdog_instructions, launch_workers, sanitize_cap, stage);
}

}  // namespace hauberk::swifi
