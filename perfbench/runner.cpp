// perfbench_runner — drives one benchmark workload and writes its raw
// measurements as JSON.  run.py builds this binary, runs it, and turns the
// raw file into the metrics the benchmark reports.
//
// Usage:
//   perfbench_runner --workload=reg-campaign|campaign-churn|mem-faults
//                    --seed=N --seconds=S --nproc=N --out=DIR
//                    [--trace] [--inject-mismatch]
//
// The workloads use only the public APIs of workloads, hauberk, gpusim and
// swifi, with the library's default engine and campaign config:
//
//   reg-campaign     one long register-fault campaign per HPC program through
//                    CampaignService (nproc-1 trial workers, the caller
//                    commits), with periodic checkpoints and a result log.
//   campaign-churn   a closed loop of short fault_campaign-style invocations,
//                    each running the whole user flow on a fresh executor.
//   mem-faults       a fixed interleave of memory-word campaigns on the HPC
//                    programs (Hsiao ECC devices) and on the CPU programs
//                    (PagedCpu devices).
//
// Every campaign is checked: fault-free outputs against golden_native,
// outcome counts against the trial count, and a fixed sample of trials
// re-run one at a time on ExecEngine::Reference against the recorded
// outcome.  --inject-mismatch corrupts one recorded outcome before the
// comparison, to show that a mismatch is counted.
//
// With --trace the run also records spans around every public call it makes
// (trace.hpp), measures parallel efficiency, and runs a sampled sequential
// decomposition of the trial path.  Exit codes: 0 raw file written, 2 usage,
// 3 worker-count mismatch, 1 any other error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "hauberk/prune.hpp"
#include "hauberk/runtime.hpp"
#include "swifi/campaign.hpp"
#include "swifi/executor.hpp"
#include "swifi/prune.hpp"
#include "swifi/resultlog.hpp"
#include "swifi/service.hpp"
#include "trace.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using perfbench::now_s;
using perfbench::Scope;
using perfbench::traced;
using perfbench::Tracer;

namespace {

constexpr workloads::Scale kScale = workloads::Scale::Small;
/// Set-up passes per run; run.py reports their median as setup_s.
constexpr int kSetupReps = 9;

// Work sizes.  Fixed, so inputs depend on the seed alone; whole groups of
// campaigns repeat while the next group fits in --seconds.
constexpr int kRegMaxVars = 50;
/// Masks per variable and bit count (two bit counts) for each HPC program,
/// chosen so each program's campaign runs about 2.7 s on a 4-core x86 host: the
/// median campaign then sits among campaigns of similar length instead of
/// between programs whose per-trial costs differ tenfold.
struct RegSize {
  const char* program;
  int masks_per_var;
};
constexpr RegSize kRegSizes[] = {{"CP", 75},   {"MRI-FHD", 74}, {"MRI-Q", 113}, {"PNS", 29},
                                 {"RPES", 290}, {"SAD", 105},    {"TPACF", 30}};
constexpr std::uint64_t kCheckpointEvery = 512;
constexpr int kChurnMaxVars = 8;         ///< 8 x 4 = about 32 planned trials
constexpr int kChurnMasksPerVar = 4;
constexpr int kChurnBits[] = {1, 3, 6, 10, 15};
constexpr std::size_t kChurnGroup = 9;   ///< one invocation per GPU program
constexpr std::size_t kChurnMinInvocations = 45;  ///< every (program, bits) pair once
constexpr int kMemTrials = 1000;     ///< per HPC-program campaign
constexpr int kCpuMemTrials = 4000;  ///< per CPU-program campaign

// Output-check sample sizes (trials re-run on the reference engine).
constexpr std::size_t kCheckRegister = 12;
constexpr std::size_t kCheckChurn = 2;
constexpr std::size_t kCheckMemory = 6;

// Traced decomposition sample sizes (per program).
constexpr std::size_t kDecompTrials = 16;
constexpr std::size_t kDecompLaunches = 8;
constexpr std::size_t kDecompMemory = 8;
constexpr int kEngineLaunches = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int nproc = 0;
  std::string out;
  bool trace = false;
  bool inject_mismatch = false;
};

/// Thrown when the worker counts the benchmark derived from nproc do not
/// match what the library ran.
struct WorkerMismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return common::Rng::fork(a, b).next_u64();
}

std::uint64_t total(const swifi::OutcomeCounts& c) { return c.activated() + c.not_activated; }

void accumulate(swifi::OutcomeCounts& into, const swifi::OutcomeCounts& c) {
  into.failure += c.failure;
  into.masked += c.masked;
  into.detected_masked += c.detected_masked;
  into.detected += c.detected;
  into.undetected += c.undetected;
  into.not_activated += c.not_activated;
  into.race_detected += c.race_detected;
  into.barrier_divergence += c.barrier_divergence;
  into.ecc_corrected += c.ecc_corrected;
  into.ecc_uncorrectable += c.ecc_uncorrectable;
}

bool same_counts(const swifi::OutcomeCounts& a, const swifi::OutcomeCounts& b) {
  return a.failure == b.failure && a.masked == b.masked &&
         a.detected_masked == b.detected_masked && a.detected == b.detected &&
         a.undetected == b.undetected && a.not_activated == b.not_activated &&
         a.race_detected == b.race_detected && a.barrier_divergence == b.barrier_divergence &&
         a.ecc_corrected == b.ecc_corrected && a.ecc_uncorrectable == b.ecc_uncorrectable;
}

/// `k` evenly spaced indices into [0, n).
std::vector<std::size_t> sample(std::size_t n, std::size_t k) {
  std::vector<std::size_t> idx;
  k = std::min(k, n);
  for (std::size_t i = 0; i < k; ++i) idx.push_back(i * n / k);
  return idx;
}

// ---------------------------------------------------------------------------
// Raw JSON output
// ---------------------------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + value;
    return *this;
  }
  JsonObject& number(const std::string& key, double v) { return raw(key, num(v)); }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string numbers(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + num(v[i]);
  return out + "]";
}

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

struct CampaignRecord {
  std::uint64_t trials = 0;  ///< trials executed
  double start_s = 0.0;      ///< the timed invocation, now_s() clock
  double end_s = 0.0;
};

/// One sample of the host reference (host_reference_ms) and when it began.
struct HostSample {
  double at_s = 0.0;
  double ms = 0.0;
};

struct Report {
  std::vector<double> setup_s;
  double setup_start_s = 0.0, setup_end_s = 0.0;
  std::vector<HostSample> host;  ///< host reference samples between campaigns
  std::vector<CampaignRecord> campaigns;
  double timed_s = 0.0;
  std::uint64_t trials = 0;
  /// Outcomes per program over the seed-determined campaign prefix the
  /// simulated coverage is computed from.
  std::map<std::string, swifi::OutcomeCounts> sim_counts;
  double ft_overhead_pct = 0.0;
  /// All main-loop outcomes (weighted), for the activated ratio.
  swifi::OutcomeCounts all_counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Per-layer values computed here rather than from spans (traced runs).
  std::map<std::string, double> layer;
  // Accumulators behind some of the layer values.
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t prune_total = 0, prune_kept = 0;

  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }

  void record(CampaignRecord rec) {
    timed_s += rec.end_s - rec.start_s;
    trials += rec.trials;
    campaigns.push_back(std::move(rec));
  }

  void note_variants(const core::KernelVariants& v) {
    for (const auto* rep : {&v.ft_report, &v.profiler_report, &v.fi_report, &v.fift_report}) {
      cache_hits += rep->analysis_cache.hits;
      cache_misses += rep->analysis_cache.misses;
    }
  }
};

// ---------------------------------------------------------------------------
// Programs and the traced public calls that build them
// ---------------------------------------------------------------------------

/// One program of a workload's mix, prepared the way callers of the campaign
/// engines prepare it.
struct Program {
  std::unique_ptr<workloads::Workload> w;
  workloads::Dataset ds;
  core::KernelVariants v;
  core::ProfileData profile;
  std::vector<swifi::FaultSpec> specs;
  gpusim::DeviceProps props;  ///< campaign device properties
};

std::unique_ptr<gpusim::Device> make_device(const gpusim::DeviceProps& props) {
  return traced("gpusim.device_ctor", [&] { return std::make_unique<gpusim::Device>(props); });
}

/// Steps 1-4 of the user flow: kernel, variants, dataset and job, profile.
Program prepare(std::unique_ptr<workloads::Workload> w, std::uint64_t ds_seed,
                gpusim::Device* profile_dev, Report& r) {
  Program p;
  const auto kernel = traced("workloads.build_kernel", [&] { return w->build_kernel(kScale); });
  p.v = traced("hauberk.build_variants", [&] { return core::build_variants(kernel); });
  r.note_variants(p.v);
  p.ds = traced("workloads.make_dataset", [&] { return w->make_dataset(ds_seed, kScale); });
  if (profile_dev) {
    auto job = traced("workloads.make_job", [&] { return w->make_job(p.ds); });
    p.profile = traced("hauberk.profile", [&] {
      return core::profile(*profile_dev, p.v, {job.get()});
    });
  }
  p.w = std::move(w);
  return p;
}

std::vector<swifi::FaultSpec> plan(const Program& p, int max_vars, int masks, int bits,
                                   std::uint64_t seed) {
  swifi::PlanOptions opt;
  opt.max_vars = max_vars;
  opt.masks_per_var = masks;
  opt.error_bits = bits;
  opt.seed = seed;
  return traced("swifi.plan_faults",
                [&] { return swifi::plan_faults(p.v.fift, p.profile, opt); });
}

/// Step 6: an in-process PruningPlan for the FI&FT build, applied to specs.
swifi::PrunedCampaign prune(const Program& p, const std::vector<swifi::FaultSpec>& specs,
                            Report& r) {
  auto facts = traced("kir.prune_facts", [&] {
    return prune::build_kernel_prune_facts(p.v.fift_source, p.v.fift);
  });
  facts.kernel = p.w->name();
  prune::PruningPlan pplan;
  pplan.kernels.push_back(std::move(facts));
  auto pruned = traced("swifi.prune_specs", [&] {
    return swifi::prune_specs(pplan, p.w->name(), p.v.fift, specs);
  });
  r.prune_total += pruned.stats.total_specs;
  r.prune_kept += pruned.stats.kept_specs;
  return pruned;
}

/// Modelled cycle overhead of the FT build over the baseline, fault-free,
/// with the control block's delivery cost charged (the Fig. 13 setting).
double ft_overhead_pct(const Program& p, gpusim::Device& dev) {
  auto job = traced("workloads.make_job", [&] { return p.w->make_job(p.ds); });
  auto cb = traced("hauberk.control_block", [&] {
    return core::make_configured_control_block(p.v.ft, p.profile);
  });
  gpusim::LaunchOptions base;
  auto args = job->setup(dev);
  const auto b = traced("gpusim.launch_baseline",
                        [&] { return dev.launch(p.v.baseline, job->config(), args, base); });
  gpusim::LaunchOptions ft;
  ft.hooks = cb.get();
  ft.charge_control_block = true;
  args = job->setup(dev);
  const auto f = traced("gpusim.launch_ft",
                        [&] { return dev.launch(p.v.ft, job->config(), args, ft); });
  if (b.status != gpusim::LaunchStatus::Ok || f.status != gpusim::LaunchStatus::Ok ||
      b.cycles == 0)
    throw std::runtime_error(p.w->name() + ": fault-free overhead launch failed");
  return 100.0 * (static_cast<double>(f.cycles) - static_cast<double>(b.cycles)) /
         static_cast<double>(b.cycles);
}

/// Counts the contexts a campaign engine builds and when the last was ready.
struct ContextProbe {
  int built = 0;
  double last_ready = 0.0;
};

/// The campaign's WorkerContextFactory, wrapped in spans.  The engine calls
/// it on its own thread, so the spans show whether contexts are built one
/// after another.
swifi::WorkerContextFactory context_factory(const Program& p, const kir::BytecodeProgram* fift,
                                            ContextProbe& probe) {
  return [&p, fift, &probe] {
    Scope span("swifi.context_build");
    swifi::WorkerContext ctx;
    ctx.device = make_device(p.props);
    ctx.job = traced("workloads.make_job", [&] { return p.w->make_job(p.ds); });
    if (fift)
      ctx.cb = traced("hauberk.control_block", [&] {
        return core::make_configured_control_block(*fift, p.profile);
      });
    ++probe.built;
    probe.last_ready = now_s();
    return ctx;
  };
}

void expect_contexts(const ContextProbe& probe, int workers, std::size_t trials,
                     const char* engine) {
  const auto want =
      static_cast<int>(std::min<std::size_t>(workers, std::max<std::size_t>(trials, 1)));
  if (probe.built != want)
    throw WorkerMismatch(std::string(engine) + " built " + std::to_string(probe.built) +
                         " worker contexts, expected " + std::to_string(want));
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// Re-runs trials one at a time on ExecEngine::Reference devices and checks
/// fault-free outputs against the workloads' native implementations.
class Checker {
 public:
  explicit Checker(bool inject) : inject_(inject) {}

  /// Reference-engine device with the given properties (one per kind).
  gpusim::Device& device(const gpusim::DeviceProps& props) {
    const int key = static_cast<int>(props.memory_model) * 16 + static_cast<int>(props.protection);
    auto& dev = devices_[key];
    if (!dev) {
      dev = std::make_unique<gpusim::Device>(props);
      dev->set_engine(gpusim::ExecEngine::Reference);
    }
    return *dev;
  }

  /// The recorded outcome as the check sees it: --inject-mismatch flips the
  /// first one checked in the run.
  swifi::Outcome recorded(swifi::Outcome o) {
    if (!inject_ || injected_) return o;
    injected_ = true;
    return o == swifi::Outcome::Masked ? swifi::Outcome::Undetected : swifi::Outcome::Masked;
  }

  /// Does the fault-free output meet the program's requirement against
  /// golden_native?
  static bool matches_native(const Program& p, const core::ProgramOutput& out) {
    const auto native = p.w->golden_native(p.ds);
    if (native.size() != out.size()) return false;
    core::ProgramOutput gold;
    gold.type = out.type;
    gold.words.reserve(native.size());
    for (const double d : native) {
      const kir::Value v = out.type == kir::DType::F32
                               ? kir::Value::f32(static_cast<float>(d))
                               : kir::Value::i32(static_cast<std::int32_t>(std::llround(d)));
      gold.words.push_back(v.bits);
    }
    return p.w->requirement().satisfied(out, gold);
  }

 private:
  bool inject_;
  bool injected_ = false;
  std::map<int, std::unique_ptr<gpusim::Device>> devices_;
};

/// Golden run of `prog` on a check device plus the campaign watchdog.
struct CheckGolden {
  swifi::GoldenRun gold;
  std::uint64_t watchdog = 0;
};

CheckGolden check_golden(gpusim::Device& dev, const kir::BytecodeProgram& prog,
                         core::KernelJob& job, core::ControlBlock* cb) {
  const swifi::CampaignConfig cfg;
  CheckGolden g;
  g.gold = swifi::golden_run(dev, prog, job, cb, cfg.launch_workers);
  g.watchdog = swifi::campaign_watchdog(g.gold, cfg);
  return g;
}

using OutcomeOf = std::function<swifi::Outcome(std::size_t)>;

std::string mismatch(const Program& p, const char* kind, std::size_t i, swifi::Outcome got,
                     swifi::Outcome want) {
  return p.w->name() + ": " + kind + " trial " + std::to_string(i) + " re-ran as " +
         swifi::outcome_name(got) + ", campaign recorded " + swifi::outcome_name(want);
}

std::string native_mismatch(const Program& p) {
  return p.w->name() + ": fault-free output misses its requirement against golden_native";
}

/// Check a register-fault campaign on the FI&FT build: the fault-free output,
/// then a sample of trials re-run against `outcome_of(i)`.  "" when all hold.
std::string check_register(Checker& chk, const Program& p,
                           const std::vector<swifi::FaultSpec>& specs,
                           const OutcomeOf& outcome_of, std::size_t samples) {
  auto& dev = chk.device(p.props);
  auto job = p.w->make_job(p.ds);
  auto cb = core::make_configured_control_block(p.v.fift, p.profile);
  const auto g = check_golden(dev, p.v.fift, *job, cb.get());
  if (!Checker::matches_native(p, g.gold.output)) return native_mismatch(p);
  const swifi::CampaignConfig cfg;
  for (const std::size_t i : sample(specs.size(), samples)) {
    const auto got = swifi::run_one_fault(dev, p.v.fift, *job, cb.get(), specs[i],
                                          g.gold.output, p.w->requirement(), g.watchdog,
                                          cfg.launch_workers, cfg.sanitize_cap);
    const auto want = chk.recorded(outcome_of(i));
    if (got != want) return mismatch(p, "register", i, got, want);
  }
  return "";
}

/// Check a memory-word campaign on the baseline build; trial i drew its
/// upset from Rng::fork(seed, i).
std::string check_memory(Checker& chk, const Program& p, std::uint64_t seed, int bits,
                         std::size_t trials, const OutcomeOf& outcome_of) {
  auto& dev = chk.device(p.props);
  auto job = p.w->make_job(p.ds);
  const auto g = check_golden(dev, p.v.baseline, *job, nullptr);
  if (!Checker::matches_native(p, g.gold.output)) return native_mismatch(p);
  const swifi::CampaignConfig cfg;
  for (const std::size_t i : sample(trials, kCheckMemory)) {
    common::Rng rng = common::Rng::fork(seed, i);
    const std::uint32_t mask = common::random_mask(rng, bits);
    const auto got = swifi::run_one_memory_fault(dev, p.v.baseline, *job, rng, mask,
                                                 g.gold.output, p.w->requirement(), g.watchdog,
                                                 cfg.launch_workers, cfg.sanitize_cap);
    const auto want = chk.recorded(outcome_of(i));
    if (got != want) return mismatch(p, "memory", i, got, want);
  }
  return "";
}

std::string check_counts(const Program& p, const swifi::OutcomeCounts& c,
                         std::uint64_t trials) {
  if (total(c) == trials) return "";
  return p.w->name() + ": outcome counts sum to " + std::to_string(total(c)) + ", not " +
         std::to_string(trials);
}

// ---------------------------------------------------------------------------
// Campaign runs
// ---------------------------------------------------------------------------

struct RunContext {
  RunContext(const Options& o, Report& rep) : opt(o), r(rep), chk(o.inject_mismatch) {}

  const Options& opt;
  Report& r;
  Checker chk;
  int next_campaign = 0;
  /// Outcomes of the last executor campaign, for the result-log sample.
  std::vector<swifi::Outcome> last_outcomes;
  std::vector<std::uint32_t> last_weights;

  /// CampaignService: nproc-1 trial workers plus the committing caller.
  [[nodiscard]] int service_workers() const { return std::max(1, opt.nproc - 1); }
  /// CampaignExecutor: the caller waits, so all nproc cores run trials.
  [[nodiscard]] int executor_workers() const { return opt.nproc; }

  /// Run `fn`; an exception is one failed operation, except a worker-count
  /// mismatch, which ends the run.
  template <class F>
  void guarded(const std::string& what, F&& fn) {
    try {
      fn();
    } catch (const WorkerMismatch&) {
      throw;
    } catch (const std::exception& e) {
      r.op(false, what + ": " + e.what());
    }
    Tracer::get().set_campaign(-1);
  }
};

std::unique_ptr<swifi::CampaignExecutor> make_executor(int workers) {
  auto ex = traced("swifi.executor_ctor",
                   [&] { return std::make_unique<swifi::CampaignExecutor>(workers); });
  if (ex->workers() != workers)
    throw WorkerMismatch("CampaignExecutor runs " + std::to_string(ex->workers()) +
                         " workers, expected " + std::to_string(workers));
  return ex;
}

struct CampaignRun {
  double start_s = 0.0, end_s = 0.0;
  swifi::OutcomeCounts counts;
  [[nodiscard]] double ms() const { return (end_s - start_s) * 1000.0; }
};

/// One register campaign through CampaignService, the way campaignd runs it.
/// With `check`, verifies it and adds the result-log size to `log_bytes` and
/// the final checkpoint to `ckpt`.
CampaignRun service_campaign(RunContext& rc, const Program& p,
                             const std::vector<swifi::FaultSpec>& specs, int workers,
                             bool check, std::uint64_t* log_bytes = nullptr,
                             swifi::CampaignCheckpoint* ckpt = nullptr) {
  Tracer::get().set_campaign(rc.next_campaign++);
  const std::string base = rc.opt.out + "/c" + std::to_string(rc.next_campaign);
  swifi::ServiceConfig scfg;
  scfg.workers = workers;
  scfg.checkpoint_every = kCheckpointEvery;
  scfg.checkpoint_path = base + ".ckpt";
  scfg.resultlog_path = base + ".hbrl";
  scfg.campaign.pipeline = swifi::PipelineSpec::from_report(p.v.fift_report);
  ContextProbe probe;
  const auto factory = context_factory(p, &p.v.fift, probe);
  CampaignRun run;
  run.start_s = now_s();
  {
    Scope span("swifi.service_run");
    swifi::CampaignService service(scfg);
    run.counts = service.run(p.v.fift, factory, specs, p.w->requirement()).counts;
    Tracer::get().wait("swifi.context_wait", run.start_s, probe.last_ready);
  }
  run.end_s = now_s();
  expect_contexts(probe, workers, specs.size(), "CampaignService");

  if (check) {
    std::string err = check_counts(p, run.counts, specs.size());
    if (err.empty()) {
      const auto log = swifi::read_result_log(scfg.resultlog_path);
      const auto ck = swifi::CampaignCheckpoint::load(scfg.checkpoint_path);
      bool ordered = log.records.size() == specs.size();
      for (std::size_t i = 0; ordered && i < log.records.size(); ++i)
        ordered = log.records[i].trial == i;
      if (!ordered || !same_counts(log.counts(), run.counts))
        err = p.w->name() + ": result log disagrees with the campaign result";
      else if (ck.watermark != specs.size() || !same_counts(ck.counts, run.counts))
        err = p.w->name() + ": final checkpoint disagrees with the campaign result";
      else
        err = check_register(
            rc.chk, p, specs,
            [&](std::size_t i) { return static_cast<swifi::Outcome>(log.records[i].outcome); },
            kCheckRegister);
      if (ckpt) *ckpt = ck;
      if (log_bytes) *log_bytes += std::filesystem::file_size(scfg.resultlog_path);
    }
    rc.r.op(err.empty(), err);
  }
  std::filesystem::remove(scfg.checkpoint_path);
  std::filesystem::remove(scfg.resultlog_path);
  return run;
}

/// A register campaign through CampaignExecutor::run (no check).
CampaignRun executor_campaign(swifi::CampaignExecutor& ex, const Program& p,
                              const std::vector<swifi::FaultSpec>& specs,
                              const swifi::CampaignConfig& cfg,
                              swifi::CampaignResult* result = nullptr) {
  ContextProbe probe;
  const auto factory = context_factory(p, &p.v.fift, probe);
  CampaignRun run;
  run.start_s = now_s();
  {
    Scope span("swifi.executor_run");
    auto res = ex.run(p.v.fift, factory, specs, p.w->requirement(), cfg);
    Tracer::get().wait("swifi.context_wait", run.start_s, probe.last_ready);
    run.counts = res.counts;
    if (result) *result = std::move(res);
  }
  run.end_s = now_s();
  expect_contexts(probe, ex.workers(), specs.size(), "CampaignExecutor");
  return run;
}

/// A memory-word campaign on the baseline build, optionally checked.
CampaignRun memory_campaign(RunContext& rc, swifi::CampaignExecutor& ex, const Program& p,
                            std::uint64_t seed, int bits, int trials, bool check) {
  Tracer::get().set_campaign(rc.next_campaign++);
  swifi::CampaignConfig cfg;
  cfg.protection = p.props.protection;
  ContextProbe probe;
  const auto factory = context_factory(p, nullptr, probe);
  swifi::CampaignResult res;
  CampaignRun run;
  run.start_s = now_s();
  {
    Scope span("swifi.executor_run_memory");
    res = ex.run_memory_faults(p.v.baseline, factory, seed, trials, bits, p.w->requirement(),
                               cfg);
    Tracer::get().wait("swifi.context_wait", run.start_s, probe.last_ready);
  }
  run.end_s = now_s();
  run.counts = res.counts;
  expect_contexts(probe, ex.workers(), static_cast<std::size_t>(trials), "CampaignExecutor");
  if (check) {
    std::string err = check_counts(p, res.counts, static_cast<std::uint64_t>(trials));
    if (err.empty())
      err = check_memory(rc.chk, p, seed, bits, static_cast<std::size_t>(trials),
                         [&](std::size_t i) { return res.per_fault[i]; });
    rc.r.op(err.empty(), err);
    rc.last_outcomes = res.per_fault;
    rc.last_weights.clear();
  }
  return run;
}

// ---------------------------------------------------------------------------
// Host reference and set-up
// ---------------------------------------------------------------------------

/// A fixed slice of host work that uses no repository code: zero a fresh
/// 64 MiB buffer (as a device arena is; glibc always maps a block this size
/// fresh) and run a branchy dispatch loop.  Shared hosts drift in speed by a
/// quarter within minutes; run.py scales each timed interval by the samples
/// of this slice taken just before and after it.
double host_reference_ms() {
  static volatile std::uint64_t sink = 0;
  const double t0 = now_s();
  {
    std::vector<std::uint32_t> arena(16u << 20, 0);
    sink = sink + arena[static_cast<std::size_t>(sink) % arena.size()];
  }
  std::uint64_t x = 0x9e3779b97f4a7c15ull ^ sink, acc = 0;
  for (int i = 0; i < 4'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    switch (x & 7) {
      case 0: acc += x; break;
      case 1: acc ^= x >> 3; break;
      case 2: acc -= x << 1; break;
      case 3: acc = (acc << 5) | (acc >> 59); break;
      case 4: acc += i; break;
      case 5: acc *= 0x100000001b3ull; break;
      case 6: acc ^= acc >> 11; break;
      default: acc += 7; break;
    }
  }
  sink = acc;
  return (now_s() - t0) * 1000.0;
}

/// Sample the host reference between timed campaigns.
void sample_host(RunContext& rc) {
  const double at = now_s();
  rc.r.host.push_back({at, host_reference_ms()});
}

/// Run `setup` kSetupReps times, timing each pass; keep the last result.
template <class F>
auto timed_setup(RunContext& rc, F&& setup) {
  decltype(setup()) kept;
  sample_host(rc);
  rc.r.setup_start_s = now_s();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    auto progs = traced("bench.setup", setup);
    rc.r.setup_s.push_back(now_s() - t0);
    kept = std::move(progs);
  }
  rc.r.setup_end_s = now_s();
  return kept;
}

/// Profile, plan or prune, and price the FT build of every GPU program of
/// `suite` on one device (the campaign callers' preparation).
std::vector<Program> prepare_gpu(RunContext& rc,
                                 std::vector<std::unique_ptr<workloads::Workload>> suite,
                                 const std::function<void(Program&)>& plan_fn,
                                 gpusim::DeviceProps props = {}) {
  auto dev = make_device({});
  std::vector<Program> progs;
  double overhead = 0.0;
  for (auto& w : suite) {
    Program p = prepare(std::move(w), rc.opt.seed, dev.get(), rc.r);
    p.props = props;
    if (plan_fn) plan_fn(p);
    overhead += ft_overhead_pct(p, *dev);
    progs.push_back(std::move(p));
  }
  rc.r.ft_overhead_pct = overhead / static_cast<double>(progs.size());
  return progs;
}

std::vector<std::unique_ptr<workloads::Workload>> gpu_suite() {
  auto suite = workloads::hpc_suite();
  for (auto& g : workloads::graphics_suite()) suite.push_back(std::move(g));
  return suite;
}

gpusim::DeviceProps hsiao_props() {
  gpusim::DeviceProps props;
  props.protection = gpusim::ecc::Scheme::Hsiao;
  return props;
}

gpusim::DeviceProps cpu_props() {
  gpusim::DeviceProps props;
  props.memory_model = gpusim::MemoryModel::PagedCpu;
  props.num_sms = 1;
  return props;
}

// ---------------------------------------------------------------------------
// Traced extras: parallel efficiency and the sequential decomposition
// ---------------------------------------------------------------------------

void set_efficiency(Report& r, double trials, double ms_n, double ms_1, int workers) {
  const double rate_n = trials / ms_n;
  const double rate_1 = trials / ms_1;
  r.layer["swifi.parallel_efficiency"] = rate_n / (static_cast<double>(workers) * rate_1);
}

struct DecompSources {
  /// Programs whose FI&FT register trials, launches and engines are sampled.
  std::vector<Program>* gpu = nullptr;
  /// Take the plan-cache ratio from the memory-trial device instead of the
  /// register-trial devices (the workload's own trial kind).
  bool plan_cache_from_memory = false;
  bool prune = false;
  const swifi::CampaignCheckpoint* checkpoint = nullptr;
};

/// Sampled sequential decomposition of the trial path on single devices:
/// golden run, TrialStage::stage, a fault-free FI&FT launch, the register-
/// and memory-fault trial functions, per-engine instruction rates,
/// plan-cache and ECC counters, checkpoint save and result-log size.
void decompose(RunContext& rc, const DecompSources& src) {
  Report& r = rc.r;
  Tracer::get().set_campaign(-1);
  Scope span("bench.decompose");
  constexpr gpusim::ExecEngine kEngines[] = {gpusim::ExecEngine::Fast,
                                             gpusim::ExecEngine::Reference,
                                             gpusim::ExecEngine::Sanitizer,
                                             gpusim::ExecEngine::Threaded};
  double engine_instr[4] = {}, engine_s[4] = {};
  std::uint64_t hits = 0, misses = 0;
  const swifi::CampaignConfig cfg;

  for (Program& p : *src.gpu) {
    if (p.specs.empty()) p.specs = plan(p, 20, 10, 1, mix(rc.opt.seed, 7));
    if (src.prune) (void)prune(p, p.specs, r);
    auto dev = make_device({});
    auto job = traced("workloads.make_job", [&] { return p.w->make_job(p.ds); });
    auto cb = traced("hauberk.control_block", [&] {
      return core::make_configured_control_block(p.v.fift, p.profile);
    });
    const auto gold = traced("swifi.golden", [&] {
      return swifi::golden_run(*dev, p.v.fift, *job, cb.get(), cfg.launch_workers);
    });
    const std::uint64_t watchdog = swifi::campaign_watchdog(gold, cfg);
    swifi::TrialStage stage(*dev, *job);
    gpusim::LaunchOptions lo;
    lo.hooks = cb.get();
    lo.watchdog_instructions = watchdog;
    lo.max_workers = cfg.launch_workers;
    for (std::size_t k = 0; k < kDecompLaunches; ++k) {
      const auto& args = traced("swifi.stage", [&]() -> const std::vector<kir::Value>& {
        return stage.stage();
      });
      cb->reset_results();
      const auto lr = traced("gpusim.launch",
                             [&] { return dev->launch(p.v.fift, job->config(), args, lo); });
      r.op(lr.status == gpusim::LaunchStatus::Ok, p.w->name() + ": fault-free launch failed");
    }
    for (const std::size_t i : sample(p.specs.size(), kDecompTrials))
      (void)traced("swifi.trial", [&] {
        return swifi::run_one_fault(*dev, p.v.fift, *job, cb.get(), p.specs[i], gold.output,
                                    p.w->requirement(), watchdog, cfg.launch_workers,
                                    cfg.sanitize_cap, &stage);
      });
    if (!src.plan_cache_from_memory) {
      hits += dev->plan_cache_hits();
      misses += dev->plan_cache_misses();
    }
    for (int e = 0; e < 4; ++e) {
      dev->set_engine(kEngines[e]);
      for (int k = 0; k <= kEngineLaunches; ++k) {  // launch 0 compiles the plan
        const auto& args = stage.stage();
        cb->reset_results();
        const double t0 = now_s();
        const auto lr = traced("gpusim.engine_launch",
                               [&] { return dev->launch(p.v.fift, job->config(), args, lo); });
        if (k == 0) continue;
        engine_s[e] += now_s() - t0;
        engine_instr[e] += static_cast<double>(lr.instructions);
      }
    }
  }

  // Memory-word trials on one Hsiao device, over the same programs.
  {
    auto dev = make_device(hsiao_props());
    std::uint64_t corrected = 0, trials = 0;
    const std::uint64_t h0 = dev->plan_cache_hits(), m0 = dev->plan_cache_misses();
    for (const Program& p : *src.gpu) {
      auto job = traced("workloads.make_job", [&] { return p.w->make_job(p.ds); });
      const auto gold = traced("swifi.golden_baseline", [&] {
        return swifi::golden_run(*dev, p.v.baseline, *job, nullptr, cfg.launch_workers);
      });
      const std::uint64_t watchdog = swifi::campaign_watchdog(gold, cfg);
      for (std::size_t k = 0; k < kDecompMemory; ++k) {
        common::Rng rng = common::Rng::fork(mix(rc.opt.seed, 11), k);
        const std::uint32_t mask = common::random_mask(rng, 1);
        const std::uint64_t before = dev->mem().ecc_corrected();
        (void)traced("swifi.memory_trial", [&] {
          return swifi::run_one_memory_fault(*dev, p.v.baseline, *job, rng, mask, gold.output,
                                             p.w->requirement(), watchdog, cfg.launch_workers,
                                             cfg.sanitize_cap);
        });
        corrected += dev->mem().ecc_corrected() - before;
        ++trials;
      }
    }
    r.layer["gpusim.ecc_corrected_per_trial"] =
        static_cast<double>(corrected) / static_cast<double>(trials);
    if (src.plan_cache_from_memory) {
      hits += dev->plan_cache_hits() - h0;
      misses += dev->plan_cache_misses() - m0;
    }
  }

  r.layer["gpusim.plan_cache_hit_ratio"] =
      static_cast<double>(hits) / static_cast<double>(std::max<std::uint64_t>(hits + misses, 1));
  for (int e = 0; e < 4; ++e)
    r.layer[std::string("gpusim.minstr_per_s.") + gpusim::exec_engine_name(kEngines[e])] =
        engine_instr[e] / engine_s[e] / 1e6;

  // Checkpoint save: the last campaign's final checkpoint, or one holding
  // the run's aggregate counts when the workload has no service campaigns.
  swifi::CampaignCheckpoint ck;
  if (src.checkpoint) {
    ck = *src.checkpoint;
  } else {
    ck.counts = r.all_counts;
    ck.trials_total = ck.watermark = total(r.all_counts);
  }
  const std::string ck_path = rc.opt.out + "/decompose.ckpt";
  for (std::size_t k = 0; k < kDecompLaunches; ++k)
    traced("swifi.checkpoint_save", [&] { ck.save(ck_path); });
  std::filesystem::remove(ck_path);

  // Result-log size of the last executor campaign's outcomes.
  if (!rc.last_outcomes.empty()) {
    const std::string log_path = rc.opt.out + "/decompose.hbrl";
    swifi::ResultLogHeader header;
    header.total_trials = rc.last_outcomes.size();
    traced("swifi.resultlog_write", [&] {
      swifi::ResultLogWriter log;
      log.create(log_path, header);
      for (std::size_t i = 0; i < rc.last_outcomes.size(); ++i) {
        swifi::ResultRecord rec;
        rec.trial = static_cast<std::uint32_t>(i);
        rec.outcome = static_cast<std::uint8_t>(rc.last_outcomes[i]);
        rec.set_weight(i < rc.last_weights.size() ? rc.last_weights[i] : 1);
        log.append(rec);
      }
      log.close();
    });
    r.layer["swifi.resultlog_bytes_per_trial"] =
        static_cast<double>(std::filesystem::file_size(log_path)) /
        static_cast<double>(rc.last_outcomes.size());
    std::filesystem::remove(log_path);
  }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Whether to start another group of campaigns: always until `min_done`,
/// then only while the next group is expected to end within the budget.
bool another_group(RunContext& rc, bool min_done, double group_s) {
  sample_host(rc);
  return !min_done || rc.r.timed_s + group_s <= rc.opt.seconds;
}

int reg_masks_per_var(const std::string& program) {
  for (const RegSize& s : kRegSizes)
    if (program == s.program) return s.masks_per_var;
  throw std::runtime_error("no campaign size for HPC program " + program);
}

void run_reg_campaign(RunContext& rc) {
  auto progs = timed_setup(rc, [&] {
    return prepare_gpu(rc, workloads::hpc_suite(), [&](Program& p) {
      for (const int bits : {1, 3}) {
        const auto s = plan(p, kRegMaxVars, reg_masks_per_var(p.w->name()), bits,
                            mix(rc.opt.seed, bits));
        p.specs.insert(p.specs.end(), s.begin(), s.end());
      }
    });
  });
  const int workers = rc.service_workers();
  std::uint64_t log_bytes = 0, logged = 0;
  swifi::CampaignCheckpoint last_ckpt;
  for (int round = 0; another_group(rc, round > 0, rc.r.timed_s / std::max(round, 1)); ++round) {
    for (const Program& p : progs) {
      rc.guarded(p.w->name(), [&] {
        const auto run = service_campaign(rc, p, p.specs, workers, true, &log_bytes, &last_ckpt);
        rc.r.record({p.specs.size(), run.start_s, run.end_s});
        logged += p.specs.size();
        accumulate(rc.r.all_counts, run.counts);
        if (round == 0) accumulate(rc.r.sim_counts[p.w->name()], run.counts);
      });
      sample_host(rc);
    }
  }
  if (!rc.opt.trace) return;
  rc.r.layer["swifi.resultlog_bytes_per_trial"] =
      static_cast<double>(log_bytes) / static_cast<double>(std::max<std::uint64_t>(logged, 1));

  rc.guarded("parallel efficiency", [&] {
    const Program& p = progs.front();
    const auto n_sub = static_cast<std::ptrdiff_t>(std::min<std::size_t>(p.specs.size(), 1536));
    const std::vector<swifi::FaultSpec> sub(p.specs.begin(), p.specs.begin() + n_sub);
    const auto n = service_campaign(rc, p, sub, workers, false);
    const auto one = service_campaign(rc, p, sub, 1, false);
    set_efficiency(rc.r, static_cast<double>(sub.size()), n.ms(), one.ms(), workers);
  });
  rc.guarded("decomposition", [&] {
    DecompSources src;
    src.gpu = &progs;
    src.prune = true;
    src.checkpoint = &last_ckpt;
    decompose(rc, src);
  });
}

/// One fault_campaign-style invocation, timed from kernel build to the
/// executor's teardown, then checked.
void churn_invocation(RunContext& rc, std::size_t i) {
  using Factory = std::unique_ptr<workloads::Workload> (*)();
  static constexpr Factory kMix[] = {workloads::make_cp,    workloads::make_mri_fhd,
                                     workloads::make_mri_q, workloads::make_pns,
                                     workloads::make_rpes,  workloads::make_sad,
                                     workloads::make_tpacf, workloads::make_ocean,
                                     workloads::make_raytrace};
  static_assert(std::size(kMix) == kChurnGroup);
  const int bits = kChurnBits[i % std::size(kChurnBits)];
  const std::uint64_t ds_seed = mix(rc.opt.seed, 1000 + i);
  Tracer::get().set_campaign(rc.next_campaign++);
  Program p;
  swifi::PrunedCampaign pruned;
  swifi::CampaignResult res;
  const double t0 = now_s();
  {
    Scope span("bench.invocation");
    auto dev = make_device({});
    p = prepare(kMix[i % kChurnGroup](), ds_seed, dev.get(), rc.r);
    p.specs = plan(p, kChurnMaxVars, kChurnMasksPerVar, bits, ds_seed + 99);
    pruned = prune(p, p.specs, rc.r);
    swifi::CampaignConfig cfg;
    cfg.pipeline = swifi::PipelineSpec::from_report(p.v.fift_report);
    cfg.prune_digest = pruned.plan_digest;
    cfg.trial_weights = pruned.weights;
    auto ex = make_executor(rc.executor_workers());
    (void)executor_campaign(*ex, p, pruned.specs, cfg, &res);
  }
  const double t1 = now_s();
  Tracer::get().set_campaign(-1);

  std::string err = check_counts(p, res.counts, p.specs.size());
  if (err.empty() && res.per_fault.size() != pruned.specs.size())
    err = p.w->name() + ": per-trial outcomes do not match the pruned trial list";
  if (err.empty())
    err = check_register(rc.chk, p, pruned.specs,
                         [&](std::size_t k) { return res.per_fault[k]; }, kCheckChurn);
  rc.r.op(err.empty(), err);
  rc.r.record({pruned.specs.size(), t0, t1});
  accumulate(rc.r.all_counts, res.counts);
  if (i < kChurnMinInvocations) accumulate(rc.r.sim_counts[p.w->name()], res.counts);
  rc.last_outcomes = res.per_fault;
  rc.last_weights = pruned.weights;
}

void run_campaign_churn(RunContext& rc) {
  // Set-up: one pass of steps 1-6 over the nine programs.  The timed loop
  // repeats all of it per invocation; these programs feed the checks'
  // decomposition and the efficiency probe.
  auto progs = timed_setup(rc, [&] {
    return prepare_gpu(rc, gpu_suite(), [&](Program& p) {
      p.specs = plan(p, kChurnMaxVars, kChurnMasksPerVar, 1, mix(rc.opt.seed, 1));
      (void)prune(p, p.specs, rc.r);
    });
  });
  double group_s = 0.0;
  for (std::size_t i = 0;; ++i) {
    if (i % kChurnGroup == 0) {
      if (!another_group(rc, i >= kChurnMinInvocations, group_s)) break;
      group_s = -rc.r.timed_s;
    }
    if (i % kChurnGroup != 0 && i % 3 == 0) sample_host(rc);
    rc.guarded("invocation " + std::to_string(i), [&] { churn_invocation(rc, i); });
    if (i % kChurnGroup == kChurnGroup - 1) group_s += rc.r.timed_s;
  }
  if (!rc.opt.trace) return;

  rc.guarded("parallel efficiency", [&] {
    double trials = 0.0, ms_n = 0.0, ms_1 = 0.0;
    auto ex_n = make_executor(rc.executor_workers());
    auto ex_1 = make_executor(1);
    const swifi::CampaignConfig cfg;
    for (const Program& p : progs) {
      trials += static_cast<double>(p.specs.size());
      Tracer::get().set_campaign(rc.next_campaign++);
      ms_n += executor_campaign(*ex_n, p, p.specs, cfg).ms();
      Tracer::get().set_campaign(rc.next_campaign++);
      ms_1 += executor_campaign(*ex_1, p, p.specs, cfg).ms();
    }
    set_efficiency(rc.r, trials, ms_n, ms_1, ex_n->workers());
  });
  rc.guarded("decomposition", [&] {
    DecompSources src;
    src.gpu = &progs;
    decompose(rc, src);
  });
}

void run_mem_faults(RunContext& rc) {
  struct Mix {
    std::vector<Program> hpc, cpu;
  };
  auto mixp = timed_setup(rc, [&] {
    Mix m;
    m.hpc = prepare_gpu(rc, workloads::hpc_suite(), nullptr, hsiao_props());
    for (auto& w : workloads::cpu_suite()) {
      m.cpu.push_back(prepare(std::move(w), rc.opt.seed, nullptr, rc.r));
      m.cpu.back().props = cpu_props();
    }
    return m;
  });
  // The fixed interleave: seven campaigns on Hsiao devices (one per HPC
  // program, 1- or 2-bit upsets) and two single-bit campaigns on PagedCpu
  // devices (the Fig. 1 CPU "Data" rows).  An odd cycle length keeps the
  // median campaign inside one program's cluster of samples.
  struct Slot {
    bool hpc;
    std::size_t program;
  };
  static constexpr Slot kCycle[] = {{true, 0}, {true, 1},  {false, 0}, {true, 2}, {true, 3},
                                    {true, 4}, {false, 1}, {true, 5},  {true, 6}};
  auto ex = make_executor(rc.executor_workers());
  double group_s = 0.0;
  for (int cycle = 0; another_group(rc, cycle > 0, group_s); ++cycle) {
    group_s = -rc.r.timed_s;
    for (std::size_t k = 0; k < std::size(kCycle); ++k) {
      const Slot s = kCycle[k];
      const Program& p = s.hpc ? mixp.hpc[s.program] : mixp.cpu[s.program];
      const int bits = s.hpc ? 1 + static_cast<int>(s.program % 2) : 1;
      const int trials = s.hpc ? kMemTrials : kCpuMemTrials;
      const std::uint64_t seed = mix(rc.opt.seed, 2000 + cycle * std::size(kCycle) + k);
      rc.guarded(p.w->name(), [&] {
        const auto run = memory_campaign(rc, *ex, p, seed, bits, trials, true);
        rc.r.record({static_cast<std::uint64_t>(trials), run.start_s, run.end_s});
        accumulate(rc.r.all_counts, run.counts);
        if (cycle == 0) accumulate(rc.r.sim_counts[p.w->name()], run.counts);
      });
      if (k + 1 < std::size(kCycle)) sample_host(rc);  // the cycle's end samples below
    }
    group_s += rc.r.timed_s;
  }
  if (!rc.opt.trace) return;

  rc.guarded("parallel efficiency", [&] {
    auto ex_1 = make_executor(1);
    const std::uint64_t seed = mix(rc.opt.seed, 3000);
    double ms_n = 0.0, ms_1 = 0.0;
    ms_n += memory_campaign(rc, *ex, mixp.hpc[0], seed, 1, kMemTrials, false).ms();
    ms_1 += memory_campaign(rc, *ex_1, mixp.hpc[0], seed, 1, kMemTrials, false).ms();
    ms_n += memory_campaign(rc, *ex, mixp.cpu[0], seed, 1, kCpuMemTrials, false).ms();
    ms_1 += memory_campaign(rc, *ex_1, mixp.cpu[0], seed, 1, kCpuMemTrials, false).ms();
    set_efficiency(rc.r, kMemTrials + kCpuMemTrials, ms_n, ms_1, ex->workers());
  });
  rc.guarded("decomposition", [&] {
    DecompSources src;
    src.gpu = &mixp.hpc;
    src.plan_cache_from_memory = true;
    src.prune = true;
    decompose(rc, src);
  });
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

/// Detection coverage averaged over programs, each program's outcomes
/// pooled (the Fig. 14 aggregate over equally weighted programs).
std::string coverage_json(const std::map<std::string, swifi::OutcomeCounts>& by_program) {
  swifi::OutcomeCounts all;
  double sum = 0.0;
  for (const auto& [program, c] : by_program) {
    accumulate(all, c);
    sum += c.coverage();
  }
  const double programs = static_cast<double>(std::max<std::size_t>(by_program.size(), 1));
  return JsonObject()
      .number("programs", static_cast<double>(by_program.size()))
      .number("trials", static_cast<double>(total(all)))
      .number("activated", static_cast<double>(all.activated()))
      .number("undetected", static_cast<double>(all.undetected))
      .number("coverage_pct", 100.0 * sum / programs)
      .str();
}

std::string report_json(const Options& opt, const RunContext& rc) {
  const Report& r = rc.r;
  std::string campaigns = "[";
  for (std::size_t i = 0; i < r.campaigns.size(); ++i) {
    const auto& c = r.campaigns[i];
    campaigns += (i ? "," : "") + JsonObject()
                                      .number("trials", static_cast<double>(c.trials))
                                      .number("start_s", c.start_s)
                                      .number("end_s", c.end_s)
                                      .str();
  }
  campaigns += "]";
  std::string host = "[";
  for (std::size_t i = 0; i < r.host.size(); ++i)
    host += (i ? "," : "") + numbers({r.host[i].at_s, r.host[i].ms});
  host += "]";
  std::string failures = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    failures += (i ? "," : "") + quote(r.failures[i]);
  failures += "]";

  JsonObject layer;
  for (const auto& [k, v] : r.layer) layer.number(k, v);
  if (opt.trace) {
    const auto lookups = std::max<std::uint64_t>(r.cache_hits + r.cache_misses, 1);
    layer.number("hauberk.analysis_cache_hit_ratio",
                 static_cast<double>(r.cache_hits) / static_cast<double>(lookups));
    layer.number("swifi.prune_kept_ratio",
                 static_cast<double>(r.prune_kept) /
                     static_cast<double>(std::max<std::uint64_t>(r.prune_total, 1)));
    layer.number("swifi.activated_ratio",
                 static_cast<double>(r.all_counts.activated()) /
                     static_cast<double>(std::max<std::uint64_t>(total(r.all_counts), 1)));
  }

  JsonObject out;
  out.number("nproc", opt.nproc)
      .number("workers", opt.workload == "reg-campaign" ? rc.service_workers()
                                                         : rc.executor_workers())
      .raw("setup_s", numbers(r.setup_s))
      .raw("setup_window_s", numbers({r.setup_start_s, r.setup_end_s}))
      .raw("host", host)
      .number("timed_s", r.timed_s)
      .number("trials", static_cast<double>(r.trials))
      .raw("campaigns", campaigns)
      .raw("sim", coverage_json(r.sim_counts))
      .number("ft_overhead_pct", r.ft_overhead_pct)
      .number("attempted", static_cast<double>(r.attempted))
      .number("failed", static_cast<double>(r.failed))
      .raw("failures", failures)
      .raw("layer", layer.str())
      .raw("spans", opt.trace ? perfbench::spans_json(Tracer::get().spans()) : "[]");
  return out.str();
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
    try {
      if (key == "--workload") opt.workload = val;
      else if (key == "--seed") opt.seed = std::stoull(val);
      else if (key == "--seconds") opt.seconds = std::stod(val);
      else if (key == "--nproc") opt.nproc = std::stoi(val);
      else if (key == "--out") opt.out = val;
      else if (key == "--trace") opt.trace = true;
      else if (key == "--inject-mismatch") opt.inject_mismatch = true;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !opt.workload.empty() && opt.nproc > 0 && !opt.out.empty() && opt.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload=NAME --seed=N --seconds=S --nproc=N --out=DIR "
                 "[--trace] [--inject-mismatch]\n",
                 argv[0]);
    return 2;
  }
  // Worker counts come from nproc; library defaults (0 = hardware
  // concurrency, used by the profiler's launches) must agree with it, or
  // busy threads could exceed nproc.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != static_cast<unsigned>(opt.nproc)) {
    std::fprintf(stderr, "perfbench: nproc is %d but the library sees %u hardware threads\n",
                 opt.nproc, hw);
    return 3;
  }
  Tracer::get().enable(opt.trace);
  Report report;
  RunContext rc(opt, report);
  try {
    if (opt.workload == "reg-campaign") run_reg_campaign(rc);
    else if (opt.workload == "campaign-churn") run_campaign_churn(rc);
    else if (opt.workload == "mem-faults") run_mem_faults(rc);
    else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  } catch (const WorkerMismatch& e) {
    std::fprintf(stderr, "perfbench: worker-count mismatch: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const std::string path = opt.out + "/raw.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  const std::string json = report_json(opt, rc);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok ? 0 : 1;
}
