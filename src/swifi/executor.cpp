#include "swifi/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>

#include "common/bitops.hpp"
#include "common/rng.hpp"

namespace hauberk::swifi {

void run_fan_out(const FanOut& f) {
  const std::uint64_t n = f.end - f.begin;
  const unsigned nw = f.pool ? static_cast<unsigned>(std::min<std::uint64_t>(
                                   f.pool->size(), std::max<std::uint64_t>(n, 1)))
                             : 1;
  std::vector<WorkerContext> owned;
  std::vector<TrialContext> ctxs;
  ctxs.reserve(nw);
  if (f.pool) {
    owned.reserve(nw);
    for (unsigned w = 0; w < nw; ++w) {
      WorkerContext& c = owned.emplace_back((*f.make_context)());
      if (!c.device || !c.job)
        throw std::invalid_argument(
            "swifi: WorkerContextFactory must provide a device and a job");
      if (!c.stage) c.stage = std::make_unique<TrialStage>(*c.device, *c.job);
      ctxs.push_back({c.device.get(), c.job.get(), c.cb.get(), c.stage.get()});
    }
  } else {
    ctxs.push_back(f.inline_ctx);
  }
  for (const TrialContext& c : ctxs) c.device->set_engine(f.cfg.effective_engine());

  // One golden run serves every trial.
  const GoldenRun gold =
      golden_run(*ctxs[0].device, f.program, *ctxs[0].job, ctxs[0].cb, f.cfg.launch_workers);
  const std::uint64_t watchdog = campaign_watchdog(gold, f.cfg);
  if (n == 0) return;

  // The reorder window bounds how far execution may run ahead of the
  // in-order commit frontier: it is the whole per-trial memory footprint,
  // independent of campaign size.  slots[i % window] holds 1 + outcome of a
  // published, uncommitted trial i (0 = empty).  All commit state is guarded
  // by `mu`; a trial costs far more than the two lock round trips it takes.
  const std::uint64_t window = std::max<std::uint64_t>(256, nw * 16ull);
  std::vector<std::uint8_t> slots(window, 0);
  std::mutex mu;
  std::condition_variable room;  ///< signalled when the frontier advances or on failure
  std::uint64_t committed = f.begin;
  bool failed = false;
  std::atomic<std::uint64_t> next{f.begin};

  const auto worker = [&](unsigned w) {
    const TrialContext& ctx = ctxs[w];
    // Declared outside the try so a throwing commit still holds `mu` when
    // the handler marks the run failed: no other worker can re-commit the
    // frontier trial in between.
    std::unique_lock<std::mutex> lk(mu, std::defer_lock);
    try {
      for (;;) {
        const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= f.end) return;
        // Ordinal `committed` was claimed before i, and its claimer never
        // waits here, so the frontier always advances.
        lk.lock();
        room.wait(lk, [&] { return failed || i < committed + window; });
        if (failed) return;
        lk.unlock();
        const Outcome o = f.trial(ctx, gold, watchdog, i);
        lk.lock();
        if (failed) return;
        slots[i % window] = static_cast<std::uint8_t>(1 + static_cast<unsigned>(o));
        // Whoever publishes the frontier trial commits every contiguous
        // completed one: the commit runs on a worker, blocking no one but
        // the workers that finish meanwhile.
        const std::uint64_t from = committed;
        while (committed < f.end && slots[committed % window] != 0) {
          f.commit(committed, static_cast<Outcome>(slots[committed % window] - 1));
          slots[committed % window] = 0;
          ++committed;
        }
        if (committed != from) room.notify_all();
        lk.unlock();
      }
    } catch (...) {
      if (!lk.owns_lock()) lk.lock();
      failed = true;
      room.notify_all();
      throw;
    }
  };
  if (f.pool)
    f.pool->run(nw, worker);
  else
    worker(0);
}

namespace {

/// Planned register-fault trials: ordinal i injects specs[i].
TrialFn register_trials(const kir::BytecodeProgram& program, const std::vector<FaultSpec>& specs,
                        const workloads::Requirement& req, const CampaignConfig& cfg) {
  return [&program, &specs, &req, &cfg](const TrialContext& c, const GoldenRun& gold,
                                        std::uint64_t watchdog, std::uint64_t i) {
    return run_one_fault(*c.device, program, *c.job, c.cb, specs[i], gold.output, req,
                         watchdog, cfg.launch_workers, cfg.sanitize_cap, c.stage);
  };
}

/// The executor-style result: per_fault[i] plus weighted counts.
CampaignResult collect(FanOut f, std::uint64_t trials) {
  CampaignResult result;
  result.pipeline = f.cfg.pipeline.name;
  if (f.cfg.pipeline.report) result.remark_digest = core::remark_digest(*f.cfg.pipeline.report);
  result.per_fault.resize(trials);
  f.end = trials;
  f.commit = [&](std::uint64_t i, Outcome o) {
    result.per_fault[i] = o;
    result.counts.add(o, f.cfg.trial_weight(i));
  };
  run_fan_out(f);
  return result;
}

}  // namespace

CampaignResult run_campaign(gpusim::Device& dev, const kir::BytecodeProgram& program,
                            core::KernelJob& job, core::ControlBlock* cb,
                            const std::vector<FaultSpec>& specs,
                            const workloads::Requirement& req, const CampaignConfig& cfg) {
  TrialStage stage(dev, job);
  return collect({.program = program,
                  .cfg = cfg,
                  .inline_ctx = {&dev, &job, cb, &stage},
                  .trial = register_trials(program, specs, req, cfg)},
                 specs.size());
}

CampaignExecutor::CampaignExecutor(int workers)
    : pool_(workers > 0 ? static_cast<unsigned>(workers)
                        : common::WorkerPool::default_workers()) {}

int CampaignExecutor::workers() const noexcept { return static_cast<int>(pool_.size()); }

CampaignResult CampaignExecutor::run(const kir::BytecodeProgram& program,
                                     const WorkerContextFactory& make_context,
                                     const std::vector<FaultSpec>& specs,
                                     const workloads::Requirement& req,
                                     const CampaignConfig& cfg) {
  return collect({.program = program,
                  .cfg = cfg,
                  .pool = &pool_,
                  .make_context = &make_context,
                  .trial = register_trials(program, specs, req, cfg)},
                 specs.size());
}

CampaignResult CampaignExecutor::run_memory_faults(const kir::BytecodeProgram& program,
                                                   const WorkerContextFactory& make_context,
                                                   std::uint64_t seed, int trials,
                                                   int error_bits,
                                                   const workloads::Requirement& req,
                                                   const CampaignConfig& cfg) {
  const auto trial = [&](const TrialContext& c, const GoldenRun& gold, std::uint64_t watchdog,
                         std::uint64_t i) {
    common::Rng rng = common::Rng::fork(seed, i);
    const std::uint32_t mask = common::random_mask(rng, error_bits);
    return run_one_memory_fault(*c.device, program, *c.job, rng, mask, gold.output, req,
                                watchdog, cfg.launch_workers, cfg.sanitize_cap, c.cb, c.stage);
  };
  return collect({.program = program, .cfg = cfg, .pool = &pool_, .make_context = &make_context,
                  .trial = trial},
                 trials > 0 ? static_cast<std::uint64_t>(trials) : 0);
}

CampaignResult CampaignExecutor::run_code_faults(const kir::BytecodeProgram& program,
                                                 const WorkerContextFactory& make_context,
                                                 std::uint64_t seed, int trials,
                                                 const workloads::Requirement& req,
                                                 const CampaignConfig& cfg) {
  const auto trial = [&](const TrialContext& c, const GoldenRun& gold, std::uint64_t watchdog,
                         std::uint64_t i) {
    common::Rng rng = common::Rng::fork(seed, i);
    return run_one_code_fault(*c.device, program, *c.job, rng, gold.output, req, watchdog,
                              cfg.launch_workers, cfg.sanitize_cap, c.stage);
  };
  return collect({.program = program, .cfg = cfg, .pool = &pool_, .make_context = &make_context,
                  .trial = trial},
                 trials > 0 ? static_cast<std::uint64_t>(trials) : 0);
}

}  // namespace hauberk::swifi
