#include "dist/spec.hh"

#include <algorithm>
#include <limits>

#include "sim/config.hh"
#include "sim/logging.hh"

namespace fh::dist
{

bool
schemeByName(const std::string &name, filters::DetectorParams &out)
{
    for (const filters::SchemePreset &preset : filters::kSchemePresets) {
        if (name == preset.key) {
            out = preset.params();
            return true;
        }
    }
    return false;
}

std::string
CampaignSpec::encode() const
{
    // One key per line, fixed order: the blob doubles as the
    // campaign's identity, so encoding must be canonical. Doubles use
    // %.17g (round-trip exact), matching the journal header's policy.
    return csprintf(
        "bench = %s\n"
        "scheme = %s\n"
        "core_threads = %u\n"
        "workload_iterations = %llu\n"
        "workload_seed = %llu\n"
        "footprint_divider = %llu\n"
        "tcam_entries = %u\n"
        "tcam_threshold = %u\n"
        "delay_buffer = %u\n"
        "injections = %llu\n"
        "window = %llu\n"
        "warmup = %llu\n"
        "min_gap = %llu\n"
        "max_gap = %llu\n"
        "fork_max_cycles = %llu\n"
        "seed = %llu\n"
        "rename_frac = %.17g\n"
        "lsq_frac = %.17g\n"
        "inflight_frac = %.17g\n"
        "ci_target = %.17g\n"
        "ci_wave = %llu\n",
        bench.c_str(), scheme.c_str(), coreThreads,
        static_cast<unsigned long long>(workload.iterations),
        static_cast<unsigned long long>(workload.seed),
        static_cast<unsigned long long>(workload.footprintDivider),
        tcamEntries, tcamThreshold, delayBuffer,
        static_cast<unsigned long long>(campaign.injections),
        static_cast<unsigned long long>(campaign.window),
        static_cast<unsigned long long>(campaign.warmupInsts),
        static_cast<unsigned long long>(campaign.minGap),
        static_cast<unsigned long long>(campaign.maxGap),
        static_cast<unsigned long long>(campaign.forkMaxCycles),
        static_cast<unsigned long long>(campaign.seed),
        campaign.mix.renameFrac, campaign.mix.lsqFrac,
        campaign.mix.inflightFrac, campaign.ciTarget,
        static_cast<unsigned long long>(campaign.ciWave));
}

bool
CampaignSpec::decode(const std::string &text, CampaignSpec &out,
                     std::string &error)
{
    Config cfg;
    if (!cfg.parse(text, error))
        return false;

    // Every number is read with its range (fhsim's bound where fhsim
    // has the key), so a spec no fhsim run could build is refused
    // here, naming the key, instead of dying deeper in the worker.
    CampaignSpec s;
    fault::CampaignConfig &c = s.campaign;
    s.bench = cfg.getString("bench", s.bench);
    s.scheme = cfg.getString("scheme", s.scheme);
    s.coreThreads = static_cast<unsigned>(
        cfg.getU64("core_threads", s.coreThreads, 1, kMaxSmtThreads));
    // Loaded into a signed register by the kernels.
    s.workload.iterations =
        cfg.getU64("workload_iterations", s.workload.iterations, 1,
                   static_cast<u64>(std::numeric_limits<i64>::max()));
    s.workload.seed = cfg.getU64("workload_seed", s.workload.seed);
    s.workload.footprintDivider = cfg.getU64(
        "footprint_divider", s.workload.footprintDivider, 1, kAnyU64);
    s.workload.maxThreads = std::max(2u, s.coreThreads);
    s.tcamEntries = static_cast<unsigned>(
        cfg.getU64("tcam_entries", 0, 0, kMaxTcamEntries));
    s.tcamThreshold = static_cast<unsigned>(
        cfg.getU64("tcam_threshold", 0, 0, kMaxTcamThreshold));
    s.delayBuffer = static_cast<unsigned>(
        cfg.getU64("delay_buffer", 0, 0, kMaxDelayBuffer));
    fault::readSchedule(cfg, c);
    c.warmupInsts = cfg.getU64("warmup", c.warmupInsts);
    c.minGap = cfg.getU64("min_gap", c.minGap);
    c.maxGap = cfg.getU64("max_gap", c.maxGap, c.minGap, kAnyU64);
    c.forkMaxCycles =
        cfg.getU64("fork_max_cycles", c.forkMaxCycles, 1, kAnyU64);
    c.mix.renameFrac = cfg.getDouble("rename_frac", c.mix.renameFrac, 0, 1);
    c.mix.lsqFrac = cfg.getDouble("lsq_frac", c.mix.lsqFrac, 0, 1);
    c.mix.inflightFrac =
        cfg.getDouble("inflight_frac", c.mix.inflightFrac, 0, 1);
    // The register file gets what the rename and LSQ shares leave.
    if (c.mix.renameFrac + c.mix.lsqFrac > 1)
        fh_fatal("rename_frac=%g plus lsq_frac=%g exceeds 1",
                 c.mix.renameFrac, c.mix.lsqFrac);

    // A key this decoder does not read means the peer speaks a newer
    // spec; running with it silently dropped would break the
    // bit-identical contract, so refuse.
    const auto unknown = cfg.unknownKeys();
    if (!unknown.empty()) {
        error = "unknown spec key '" + unknown.front() + "'";
        return false;
    }
    if (!workload::find(s.bench)) {
        error = "unknown benchmark '" + s.bench + "'";
        return false;
    }
    filters::DetectorParams dp;
    if (!schemeByName(s.scheme, dp)) {
        error = "unknown scheme '" + s.scheme + "'";
        return false;
    }
    out = s;
    return true;
}

isa::Program
CampaignSpec::buildProgram() const
{
    workload::WorkloadSpec ws = workload;
    ws.maxThreads = std::max(2u, coreThreads);
    return workload::build(bench, ws);
}

pipeline::CoreParams
CampaignSpec::buildParams() const
{
    pipeline::CoreParams params;
    params.threads = coreThreads;
    if (!schemeByName(scheme, params.detector))
        fh_fatal("unknown scheme '%s'", scheme.c_str());
    if (tcamEntries)
        params.detector.tcam.entries = tcamEntries;
    if (tcamThreshold)
        params.detector.tcam.loosenThreshold = tcamThreshold;
    if (delayBuffer)
        params.delayBufferSize = delayBuffer;
    return params;
}

} // namespace fh::dist
