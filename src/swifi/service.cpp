#include "swifi/service.hpp"

#include <bit>
#include <stdexcept>
#include <vector>

#include "common/bitops.hpp"
#include "common/worker_pool.hpp"
#include "hauberk/checkpoint.hpp"
#include "swifi/resultlog.hpp"

namespace hauberk::swifi {

namespace {

/// The outcome counters in checkpoint order (v2 appended the two ECC ones).
constexpr std::uint64_t OutcomeCounts::*kCountFields[] = {
    &OutcomeCounts::failure,        &OutcomeCounts::masked,
    &OutcomeCounts::detected_masked, &OutcomeCounts::detected,
    &OutcomeCounts::undetected,     &OutcomeCounts::not_activated,
    &OutcomeCounts::race_detected,  &OutcomeCounts::barrier_divergence,
    &OutcomeCounts::ecc_corrected,  &OutcomeCounts::ecc_uncorrectable};

}  // namespace

std::uint64_t campaign_digest(const kir::BytecodeProgram& program,
                              const std::vector<FaultSpec>& specs,
                              const workloads::Requirement& req,
                              std::uint64_t remark_digest,
                              gpusim::ecc::Scheme protection,
                              std::uint64_t plan_digest,
                              std::uint64_t prune_digest) {
  common::Fnv1a f(common::Fnv1a::kLegacyBasis);
  f.u64(kir::program_digest(program)).u64(specs.size());
  for (const FaultSpec& s : specs) {
    f.u64(s.site_id).u64(s.thread).u64(s.occurrence).u64(s.mask);
    f.u64(static_cast<std::uint64_t>(s.var));
    f.u64(static_cast<std::uint64_t>(s.type));
    f.u64(static_cast<std::uint64_t>(s.hw));
  }
  f.u64(static_cast<std::uint64_t>(req.kind));
  for (const double v : {req.abs_floor, req.rel, req.eps, req.global_rel, req.pixel_delta, req.frac})
    f.u64(std::bit_cast<std::uint64_t>(v));
  f.u64(remark_digest);
  // Folded only when protection is on: the None digest must stay what it was
  // before protected mode existed, so pre-ECC checkpoints keep validating.
  if (protection != gpusim::ecc::Scheme::None)
    f.u64(0xECCull).u64(static_cast<std::uint64_t>(protection));
  // Same arrangement for hardening plans: the trivial plan's digest is 0 and
  // contributes nothing, so plan-free campaigns keep their historic digests.
  if (plan_digest != 0) f.u64(0x504Cull).u64(plan_digest);
  // And for pruning plans: unpruned campaigns keep their historic digests.
  if (prune_digest != 0) f.u64(0x5052ull).u64(prune_digest);
  return f.value();
}

void CampaignCheckpoint::save(const std::string& path) const {
  core::CheckpointWriter w;
  w.u64(config_digest);
  w.u32(shards);
  w.u32(shard_index);
  w.u64(trials_total);
  w.u64(watermark);
  for (const auto field : kCountFields) w.u64(counts.*field);
  for (const auto c : site_hist.raw_counts()) w.u64(c);
  for (const auto c : sdc_site_hist.raw_counts()) w.u64(c);
  w.u64(remark_digest);
  w.u64(log_payload_bytes);
  w.u32(log_payload_crc);
  w.u64(checkpoints_written);
  w.save_atomic(path, kCampaignCheckpointMagic, kCampaignCheckpointVersion);
}

CampaignCheckpoint CampaignCheckpoint::load(const std::string& path) {
  auto r = core::CheckpointReader::load(path, kCampaignCheckpointMagic,
                                        kCampaignCheckpointVersion);
  CampaignCheckpoint ck;
  ck.config_digest = r.u64();
  ck.shards = r.u32();
  ck.shard_index = r.u32();
  ck.trials_total = r.u64();
  ck.watermark = r.u64();
  for (const auto field : kCountFields) ck.counts.*field = r.u64();
  std::array<std::uint64_t, common::Log2Histogram::kBuckets> buckets;
  for (auto& c : buckets) c = r.u64();
  ck.site_hist.restore(buckets);
  for (auto& c : buckets) c = r.u64();
  ck.sdc_site_hist.restore(buckets);
  ck.remark_digest = r.u64();
  ck.log_payload_bytes = r.u64();
  ck.log_payload_crc = r.u32();
  ck.checkpoints_written = r.u64();
  if (r.remaining() != 0)
    throw core::CheckpointError("checkpoint: '" + path + "' has trailing payload bytes");
  return ck;
}

void ServiceResult::merge(const ServiceResult& other) {
  if (other.config_digest != config_digest)
    throw std::invalid_argument("ServiceResult::merge: shards from different campaigns");
  if (other.remark_digest != remark_digest)
    throw std::invalid_argument("ServiceResult::merge: remark digests differ");
  for (const auto field : kCountFields) counts.*field += other.counts.*field;
  site_hist.merge(other.site_hist);
  sdc_site_hist.merge(other.sdc_site_hist);
  shard_trials += other.shard_trials;
  trials_run += other.trials_run;
  trials_resumed += other.trials_resumed;
  checkpoints_written += other.checkpoints_written;
}

CampaignService::CampaignService(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.shards < 1) throw std::invalid_argument("CampaignService: shards must be >= 1");
  if (cfg_.shard_index >= cfg_.shards)
    throw std::invalid_argument("CampaignService: shard_index must be < shards");
  if ((cfg_.checkpoint_every > 0 || cfg_.resume) && cfg_.checkpoint_path.empty())
    throw std::invalid_argument(
        "CampaignService: checkpointing/resume requires a checkpoint path");
}

ServiceResult CampaignService::run(const kir::BytecodeProgram& program,
                                   const WorkerContextFactory& make_context,
                                   const std::vector<FaultSpec>& specs,
                                   const workloads::Requirement& req) {
  const std::uint64_t K = cfg_.shards;
  const std::uint64_t I = cfg_.shard_index;
  const std::uint64_t total = specs.size();
  // Shard I owns trials I, I+K, I+2K, ...: `mine` ordinals k map to trial
  // index I + k*K.  Pure arithmetic — every process computes the same split.
  const std::uint64_t mine = total > I ? (total - I + K - 1) / K : 0;

  std::uint64_t remark_digest = 0;
  if (cfg_.campaign.pipeline.report)
    remark_digest = core::remark_digest(*cfg_.campaign.pipeline.report);
  const std::uint64_t digest =
      campaign_digest(program, specs, req, remark_digest, cfg_.campaign.protection,
                      cfg_.campaign.plan_digest, cfg_.campaign.prune_digest);

  ServiceResult result;
  result.pipeline = cfg_.campaign.pipeline.name;
  result.remark_digest = remark_digest;
  result.config_digest = digest;
  result.shard_trials = mine;

  // --- resume state ---------------------------------------------------------
  std::uint64_t watermark = 0;
  std::uint64_t prior_checkpoints = 0;
  CampaignCheckpoint resumed;
  if (cfg_.resume) {
    resumed = CampaignCheckpoint::load(cfg_.checkpoint_path);
    const auto reject = [&](const std::string& why) {
      throw core::CheckpointError("checkpoint: '" + cfg_.checkpoint_path + "' " + why);
    };
    if (resumed.config_digest != digest)
      reject("belongs to a different campaign (config digest mismatch)");
    if (resumed.shards != K || resumed.shard_index != I)
      reject("was written for shard " + std::to_string(resumed.shard_index) + "/" +
             std::to_string(resumed.shards) + ", not this instance's shard");
    if (resumed.trials_total != total || resumed.watermark > mine)
      reject("trial accounting does not fit this campaign");
    if (resumed.remark_digest != remark_digest) reject("pipeline remark digest mismatch");
    watermark = resumed.watermark;
    result.counts = resumed.counts;
    result.site_hist = resumed.site_hist;
    result.sdc_site_hist = resumed.sdc_site_hist;
    result.trials_resumed = watermark;
    prior_checkpoints = resumed.checkpoints_written;
  }

  // --- result log -----------------------------------------------------------
  ResultLogWriter log;
  const ResultLogHeader log_header{.shards = static_cast<std::uint32_t>(K),
                                   .shard_index = static_cast<std::uint32_t>(I),
                                   .config_digest = digest,
                                   .total_trials = total};
  if (!cfg_.resultlog_path.empty()) {
    if (cfg_.resume)
      log.reopen(cfg_.resultlog_path, log_header, resumed.log_payload_bytes,
                 resumed.log_payload_crc);
    else
      log.create(cfg_.resultlog_path, log_header);
  }

  const auto write_checkpoint = [&](std::uint64_t committed, bool invoke_hook) {
    log.flush();
    CampaignCheckpoint ck;
    ck.config_digest = digest;
    ck.shards = static_cast<std::uint32_t>(K);
    ck.shard_index = static_cast<std::uint32_t>(I);
    ck.trials_total = total;
    ck.watermark = committed;
    ck.counts = result.counts;
    ck.site_hist = result.site_hist;
    ck.sdc_site_hist = result.sdc_site_hist;
    ck.remark_digest = remark_digest;
    ck.log_payload_bytes = log.is_open() ? log.payload_bytes() : 0;
    ck.log_payload_crc = log.is_open() ? log.payload_crc() : 0;
    ck.checkpoints_written = prior_checkpoints + result.checkpoints_written;
    ck.save(cfg_.checkpoint_path);
    if (invoke_hook && cfg_.on_checkpoint) cfg_.on_checkpoint(ck);
  };

  if (watermark >= mine) {
    // Nothing left to run (fresh empty shard, or resume of a finished one).
    if (!cfg_.checkpoint_path.empty()) write_checkpoint(mine, false);
    return result;
  }

  // --- trials ---------------------------------------------------------------
  // Ordinal k is trial I + k*K; outcomes commit in ordinal order, so every
  // aggregate, log byte and checkpoint is a pure function of the trial index.
  common::WorkerPool pool(cfg_.workers > 0 ? static_cast<unsigned>(cfg_.workers)
                                           : common::WorkerPool::default_workers());
  FanOut f{.program = program,
           .cfg = cfg_.campaign,
           .pool = &pool,
           .make_context = &make_context,
           .begin = watermark,
           .end = mine,
           .trial = [&](const TrialContext& c, const GoldenRun& gold, std::uint64_t watchdog,
                        std::uint64_t k) {
             return run_one_fault(*c.device, program, *c.job, c.cb, specs[I + k * K],
                                  gold.output, req, watchdog, cfg_.campaign.launch_workers,
                                  cfg_.campaign.sanitize_cap, c.stage);
           }};
  f.commit = [&](std::uint64_t k, Outcome o) {
    const std::uint64_t trial = I + k * K;
    const std::uint64_t weight = cfg_.campaign.trial_weight(trial);
    result.counts.add(o, weight);
    result.site_hist.add(specs[trial].site_id, weight);
    if (o == Outcome::Undetected) result.sdc_site_hist.add(specs[trial].site_id, weight);
    if (log.is_open()) {
      ResultRecord rec;
      rec.trial = static_cast<std::uint32_t>(trial);
      rec.outcome = static_cast<std::uint8_t>(o);
      rec.set_weight(weight);
      log.append(rec);
    }
    ++result.trials_run;
    const std::uint64_t committed = k + 1;
    if (cfg_.checkpoint_every > 0 && committed < mine &&
        (committed - watermark) % cfg_.checkpoint_every == 0) {
      ++result.checkpoints_written;
      write_checkpoint(committed, true);
    }
  };
  // A throw (a failed trial, an I/O error, a test's simulated kill) leaves
  // the log to its destructor, which closes it.
  run_fan_out(f);
  // Completion checkpoint: records watermark == mine so a redundant resume
  // is a no-op.  No hook — the campaign is done, there is nothing a kill
  // here could lose.
  if (!cfg_.checkpoint_path.empty()) write_checkpoint(mine, false);
  log.flush();
  log.close();
  return result;
}

}  // namespace hauberk::swifi
