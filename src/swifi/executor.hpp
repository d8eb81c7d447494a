// Parallel SWIFI campaign engine and the one trial fan-out behind every
// campaign driver.
//
// Campaign trials never share mutable state, so they run concurrently
// across campaign workers, each owning a private simulated Device (plus its
// own KernelJob, TrialStage and ControlBlock clone).  The parallelism is
// inverted relative to a single launch: trial launches run with one
// block-worker (CampaignConfig::launch_workers = 1 — no nested pool churn,
// no core oversubscription) while campaign workers scale to hardware
// concurrency.
//
// run_campaign, CampaignExecutor and CampaignService (swifi/service.hpp)
// all run their trials through run_fan_out(): workers claim trial ordinals
// from one atomic counter, and whichever completes the frontier trial
// commits every finished outcome in ordinal order — there is no committer
// thread.  Every trial is a pure function of its ordinal (randomness is
// forked from (seed, trial_index)), so results are bitwise identical for
// every worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/worker_pool.hpp"
#include "gpusim/device.hpp"
#include "hauberk/control_block.hpp"
#include "hauberk/program.hpp"
#include "swifi/campaign.hpp"
#include "workloads/workload.hpp"

namespace hauberk::swifi {

/// Private per-worker resources for one campaign: a device plus the job
/// staged onto it and (optionally) a control block for the FI&FT build.
struct WorkerContext {
  std::unique_ptr<gpusim::Device> device;
  std::unique_ptr<core::KernelJob> job;
  std::unique_ptr<core::ControlBlock> cb;  ///< may be null (FI without FT)
  std::unique_ptr<TrialStage> stage;       ///< lazily primed per-trial reset cache
};

/// Builds one worker's context.  Must be deterministic and
/// worker-independent: every invocation has to stage the same dataset and
/// configure identical detector ranges, or worker counts would change
/// outcomes (the executor never tells the factory which worker it serves).
using WorkerContextFactory = std::function<WorkerContext()>;

/// Borrowed view of the resources one worker runs trials on: a
/// WorkerContext's, or for run_campaign the caller's own device and job.
struct TrialContext {
  gpusim::Device* device = nullptr;
  core::KernelJob* job = nullptr;
  core::ControlBlock* cb = nullptr;
  TrialStage* stage = nullptr;
};

/// One trial by ordinal.  Must be a pure function of the ordinal.
using TrialFn = std::function<Outcome(const TrialContext&, const GoldenRun&,
                                      std::uint64_t watchdog, std::uint64_t ordinal)>;
/// Receives every outcome exactly once, in ordinal order, one call at a time.
using CommitFn = std::function<void(std::uint64_t ordinal, Outcome)>;

/// One campaign's trials for run_fan_out: ordinals [begin, end).
struct FanOut {
  const kir::BytecodeProgram& program;  ///< golden-run program
  const CampaignConfig& cfg;
  /// Pool workers run the trials, one context per participating worker
  /// built by `make_context`.  Null: `inline_ctx` runs every trial on the
  /// calling thread.
  common::WorkerPool* pool = nullptr;
  const WorkerContextFactory* make_context = nullptr;
  TrialContext inline_ctx{};
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  TrialFn trial{};
  CommitFn commit{};
};

/// Builds min(pool workers, max(end - begin, 1)) contexts, sets the
/// campaign engine on each, runs the golden run on the first, then runs
/// every trial and commits it in order.  The first exception thrown by a
/// trial or a commit stops the other workers and is rethrown here.
void run_fan_out(const FanOut& f);

/// Persistent campaign engine.  Construct once, reuse across campaigns:
/// the worker threads survive between run() calls, only the per-campaign
/// contexts are rebuilt (programs, datasets and detector configurations
/// change between campaigns; threads need not).
class CampaignExecutor {
 public:
  /// `workers` == 0 selects hardware concurrency.
  explicit CampaignExecutor(int workers = 0);
  CampaignExecutor(const CampaignExecutor&) = delete;
  CampaignExecutor& operator=(const CampaignExecutor&) = delete;

  [[nodiscard]] int workers() const noexcept;

  /// Run a planned-fault campaign (the run_campaign trial semantics, fanned
  /// out across workers).  Equivalent to run_campaign on one device: same
  /// per_fault vector, same counts, for any worker count.
  [[nodiscard]] CampaignResult run(const kir::BytecodeProgram& program,
                                   const WorkerContextFactory& make_context,
                                   const std::vector<FaultSpec>& specs,
                                   const workloads::Requirement& req,
                                   const CampaignConfig& cfg = {});

  /// Memory-word fault campaign (Fig. 1 CPU "Data" rows): `trials`
  /// experiments against the baseline program; trial i draws its mask and
  /// word position from an RNG forked from (seed, i).
  [[nodiscard]] CampaignResult run_memory_faults(const kir::BytecodeProgram& program,
                                                 const WorkerContextFactory& make_context,
                                                 std::uint64_t seed, int trials,
                                                 int error_bits,
                                                 const workloads::Requirement& req,
                                                 const CampaignConfig& cfg = {});

  /// Code-segment fault campaign (Fig. 1 CPU "Code" rows): trial i flips an
  /// encoding bit chosen by an RNG forked from (seed, i).
  [[nodiscard]] CampaignResult run_code_faults(const kir::BytecodeProgram& program,
                                               const WorkerContextFactory& make_context,
                                               std::uint64_t seed, int trials,
                                               const workloads::Requirement& req,
                                               const CampaignConfig& cfg = {});

 private:
  common::WorkerPool pool_;
};

}  // namespace hauberk::swifi
