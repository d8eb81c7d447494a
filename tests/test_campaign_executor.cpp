// Determinism tests for the parallel campaign engine (swifi/executor.hpp):
// identical seeds and specs must produce bitwise-identical per-fault
// outcomes and counts for every worker count, and the executor must agree
// exactly with the single-device run_campaign path.
#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "common/rng.hpp"

#include "hauberk/runtime.hpp"
#include "swifi/campaign.hpp"
#include "swifi/executor.hpp"
#include "workloads/workload.hpp"

using namespace hauberk;
using namespace hauberk::swifi;
using namespace hauberk::workloads;

namespace {

struct Fixture {
  std::unique_ptr<Workload> w;
  core::KernelVariants v;
  Dataset ds;
  core::ProfileData pd;

  explicit Fixture(std::unique_ptr<Workload> wl, std::uint64_t seed = 21)
      : w(std::move(wl)),
        v(core::build_variants(w->build_kernel(Scale::Tiny))),
        ds(w->make_dataset(seed, Scale::Tiny)) {
    gpusim::Device dev;
    auto job = w->make_job(ds);
    pd = core::profile(dev, v, {job.get()});
  }

  /// Every invocation stages the same dataset and (optionally) an
  /// identically configured control block — the factory contract.
  [[nodiscard]] WorkerContextFactory factory(bool with_cb,
                                             gpusim::DeviceProps props = {}) const {
    return [this, with_cb, props] {
      WorkerContext ctx;
      ctx.device = std::make_unique<gpusim::Device>(props);
      ctx.job = w->make_job(ds);
      if (with_cb) ctx.cb = core::make_configured_control_block(v.fift, pd);
      return ctx;
    };
  }
};

void expect_same_result(const CampaignResult& a, const CampaignResult& b, const char* what) {
  ASSERT_EQ(a.per_fault.size(), b.per_fault.size()) << what;
  for (std::size_t i = 0; i < a.per_fault.size(); ++i)
    EXPECT_EQ(a.per_fault[i], b.per_fault[i]) << what << " trial " << i;
  EXPECT_EQ(a.counts.failure, b.counts.failure) << what;
  EXPECT_EQ(a.counts.masked, b.counts.masked) << what;
  EXPECT_EQ(a.counts.detected_masked, b.counts.detected_masked) << what;
  EXPECT_EQ(a.counts.detected, b.counts.detected) << what;
  EXPECT_EQ(a.counts.undetected, b.counts.undetected) << what;
  EXPECT_EQ(a.counts.not_activated, b.counts.not_activated) << what;
}

}  // namespace

TEST(CampaignExecutor, PlannedCampaignInvariantAcrossWorkerCounts) {
  Fixture f(make_cp());
  PlanOptions opt;
  opt.max_vars = 8;
  opt.masks_per_var = 4;
  opt.seed = 7;
  const auto specs = plan_faults(f.v.fi, f.pd, opt);
  ASSERT_FALSE(specs.empty());

  CampaignExecutor one(1);
  const auto base = one.run(f.v.fi, f.factory(false), specs, f.w->requirement());
  EXPECT_EQ(base.per_fault.size(), specs.size());
  for (const int workers : {2, 8}) {
    CampaignExecutor ex(workers);
    EXPECT_EQ(ex.workers(), workers);
    const auto res = ex.run(f.v.fi, f.factory(false), specs, f.w->requirement());
    expect_same_result(base, res, "planned FI campaign");
  }
}

TEST(CampaignExecutor, MatchesSingleDeviceRunCampaign) {
  Fixture f(make_mri_q());
  PlanOptions opt;
  opt.max_vars = 6;
  opt.masks_per_var = 4;
  const auto specs = plan_faults(f.v.fi, f.pd, opt);

  gpusim::Device dev;
  auto job = f.w->make_job(f.ds);
  const auto serial = run_campaign(dev, f.v.fi, *job, nullptr, specs, f.w->requirement());

  CampaignExecutor ex(4);
  const auto parallel = ex.run(f.v.fi, f.factory(false), specs, f.w->requirement());
  expect_same_result(serial, parallel, "run_campaign vs executor");
}

TEST(CampaignExecutor, FiFtCampaignWithControlBlockInvariant) {
  Fixture f(make_cp());
  PlanOptions opt;
  opt.max_vars = 8;
  opt.masks_per_var = 4;
  opt.error_bits = 6;
  opt.seed = 5;
  const auto specs = plan_faults(f.v.fift, f.pd, opt);
  ASSERT_FALSE(specs.empty());

  CampaignExecutor one(1);
  const auto base = one.run(f.v.fift, f.factory(true), specs, f.w->requirement());
  EXPECT_GT(base.counts.detected + base.counts.detected_masked, 0u)
      << "detectors must fire so the invariance check covers detected outcomes";
  for (const int workers : {2, 8}) {
    CampaignExecutor ex(workers);
    const auto res = ex.run(f.v.fift, f.factory(true), specs, f.w->requirement());
    expect_same_result(base, res, "FI&FT campaign");
  }
}

TEST(CampaignExecutor, MemoryFaultCampaignInvariant) {
  Fixture f(make_sad());
  CampaignExecutor one(1);
  const auto base =
      one.run_memory_faults(f.v.baseline, f.factory(false), 11, 40, 3, f.w->requirement());
  EXPECT_EQ(base.per_fault.size(), 40u);
  for (const int workers : {2, 8}) {
    CampaignExecutor ex(workers);
    const auto res =
        ex.run_memory_faults(f.v.baseline, f.factory(false), 11, 40, 3, f.w->requirement());
    expect_same_result(base, res, "memory-fault campaign");
  }
}

TEST(CampaignExecutor, CodeFaultCampaignInvariant) {
  Fixture f(make_pns());
  CampaignExecutor one(1);
  const auto base = one.run_code_faults(f.v.baseline, f.factory(false), 9, 50, f.w->requirement());
  EXPECT_EQ(base.per_fault.size(), 50u);
  EXPECT_GT(base.counts.failure, 0u);
  for (const int workers : {2, 8}) {
    CampaignExecutor ex(workers);
    const auto res =
        ex.run_code_faults(f.v.baseline, f.factory(false), 9, 50, f.w->requirement());
    expect_same_result(base, res, "code-fault campaign");
  }
}

TEST(CampaignExecutor, StagedTrialsMatchFreshlySetUpTrials) {
  // Campaign workers re-stage every trial from a TrialStage image; the
  // public wrappers without a stage run job.setup() on every trial.  Both
  // must leave bitwise-identical device state, so every trial's outcome
  // must agree — on flat, ECC-protected and paged memory alike.
  struct Kind {
    const char* name;
    gpusim::MemoryModel model;
    gpusim::ecc::Scheme protection;
  };
  const Kind kinds[] = {{"FlatGpu/None", gpusim::MemoryModel::FlatGpu, gpusim::ecc::Scheme::None},
                        {"FlatGpu/Hsiao", gpusim::MemoryModel::FlatGpu, gpusim::ecc::Scheme::Hsiao},
                        {"PagedCpu", gpusim::MemoryModel::PagedCpu, gpusim::ecc::Scheme::None}};
  Fixture f(make_sad());
  const std::uint64_t seed = 13;
  const int trials = 40;
  const int bits = 2;
  for (const Kind& k : kinds) {
    gpusim::DeviceProps props;
    props.memory_model = k.model;
    props.protection = k.protection;
    CampaignExecutor ex(3);
    const CampaignConfig cfg;
    const auto mem =
        ex.run_memory_faults(f.v.baseline, f.factory(false, props), seed, trials, bits,
                             f.w->requirement(), cfg);
    const auto code =
        ex.run_code_faults(f.v.baseline, f.factory(false, props), seed, trials,
                           f.w->requirement(), cfg);

    gpusim::Device dev(props);
    auto job = f.w->make_job(f.ds);
    const auto gold = golden_run(dev, f.v.baseline, *job, nullptr, cfg.launch_workers);
    const std::uint64_t watchdog = campaign_watchdog(gold, cfg);
    for (int i = 0; i < trials; ++i) {
      common::Rng rng = common::Rng::fork(seed, static_cast<std::uint64_t>(i));
      const std::uint32_t mask = common::random_mask(rng, bits);
      EXPECT_EQ(mem.per_fault[i],
                run_one_memory_fault(dev, f.v.baseline, *job, rng, mask, gold.output,
                                     f.w->requirement(), watchdog, cfg.launch_workers,
                                     cfg.sanitize_cap))
          << k.name << " memory trial " << i;
      rng = common::Rng::fork(seed, static_cast<std::uint64_t>(i));
      EXPECT_EQ(code.per_fault[i],
                run_one_code_fault(dev, f.v.baseline, *job, rng, gold.output,
                                   f.w->requirement(), watchdog, cfg.launch_workers,
                                   cfg.sanitize_cap))
          << k.name << " code trial " << i;
    }
  }
}

TEST(CampaignExecutor, CodeCampaignWithFallThroughMutantsRunsToCompletion) {
  // Trials 5, 494 and 711 of this campaign flip the final Halt of
  // cpu-histogram into an opcode control can fall through; the engines
  // used to fetch past the end of the decoded stream on them.  Under
  // ASan/UBSan this is a memory-safety regression test.
  auto w = make_cpu_histogram();
  const auto v = core::build_variants(w->build_kernel(Scale::Small));
  const auto ds = w->make_dataset(1, Scale::Small);
  const std::uint64_t seed = common::Rng::fork(1, 2002).next_u64();
  for (const std::uint64_t t : {5u, 494u, 711u}) {
    common::Rng rng = common::Rng::fork(seed, t);
    EXPECT_EQ(rng.next_below(v.baseline.code.size()), v.baseline.code.size() - 1)
        << "trial " << t << " must mutate the final instruction";
    EXPECT_LT(rng.next_below(sizeof(kir::Instr) * 8), 8u)
        << "trial " << t << " must flip an opcode bit";
  }
  gpusim::DeviceProps props;
  props.memory_model = gpusim::MemoryModel::PagedCpu;
  props.num_sms = 1;
  CampaignExecutor ex(2);
  const auto res = ex.run_code_faults(
      v.baseline,
      [&] {
        WorkerContext ctx;
        ctx.device = std::make_unique<gpusim::Device>(props);
        ctx.job = w->make_job(ds);
        return ctx;
      },
      seed, 720, w->requirement());
  ASSERT_EQ(res.per_fault.size(), 720u);
  for (const std::size_t t : {5u, 494u, 711u})
    EXPECT_EQ(res.per_fault[t], Outcome::Failure) << "fall-through mutant " << t << " traps";
}

TEST(CampaignExecutor, EmptySpecsYieldEmptyResult) {
  Fixture f(make_cp());
  CampaignExecutor ex(2);
  const auto res = ex.run(f.v.fi, f.factory(false), {}, f.w->requirement());
  EXPECT_TRUE(res.per_fault.empty());
  EXPECT_EQ(res.counts.activated() + res.counts.not_activated, 0u);
}

TEST(CampaignExecutor, ZeroWorkersSelectsHardwareConcurrency) {
  CampaignExecutor ex;
  EXPECT_GE(ex.workers(), 1);
}
