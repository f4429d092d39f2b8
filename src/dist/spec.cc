#include "dist/spec.hh"

#include "sim/config.hh"
#include "sim/logging.hh"

namespace fh::dist
{

bool
schemeByName(const std::string &name, filters::DetectorParams &out)
{
    if (name == "none")
        out = filters::DetectorParams::none();
    else if (name == "pbfs")
        out = filters::DetectorParams::pbfsSticky();
    else if (name == "pbfs-biased")
        out = filters::DetectorParams::pbfsBiased();
    else if (name == "fh-backend")
        out = filters::DetectorParams::faultHoundBackend();
    else if (name == "faulthound")
        out = filters::DetectorParams::faultHound();
    else
        return false;
    return true;
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
        "trial_timeout_ms = %llu\n"
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
        campaign.mix.inflightFrac,
        static_cast<unsigned long long>(campaign.trialTimeoutMs),
        campaign.ciTarget, static_cast<unsigned long long>(campaign.ciWave));
}

bool
CampaignSpec::decode(const std::string &text, CampaignSpec &out,
                     std::string &error)
{
    Config cfg;
    if (!cfg.parse(text, error))
        return false;

    CampaignSpec s;
    s.bench = cfg.getString("bench", s.bench);
    s.scheme = cfg.getString("scheme", s.scheme);
    s.coreThreads = static_cast<unsigned>(
        cfg.getU64("core_threads", s.coreThreads));
    s.workload.iterations =
        cfg.getU64("workload_iterations", s.workload.iterations);
    s.workload.seed = cfg.getU64("workload_seed", s.workload.seed);
    s.workload.footprintDivider =
        cfg.getU64("footprint_divider", s.workload.footprintDivider);
    s.workload.maxThreads = std::max(2u, s.coreThreads);
    s.tcamEntries =
        static_cast<unsigned>(cfg.getU64("tcam_entries", 0));
    s.tcamThreshold =
        static_cast<unsigned>(cfg.getU64("tcam_threshold", 0));
    s.delayBuffer =
        static_cast<unsigned>(cfg.getU64("delay_buffer", 0));
    s.campaign.injections =
        cfg.getU64("injections", s.campaign.injections);
    s.campaign.window = cfg.getU64("window", s.campaign.window);
    s.campaign.warmupInsts =
        cfg.getU64("warmup", s.campaign.warmupInsts);
    s.campaign.minGap = cfg.getU64("min_gap", s.campaign.minGap);
    s.campaign.maxGap = cfg.getU64("max_gap", s.campaign.maxGap);
    s.campaign.forkMaxCycles =
        cfg.getU64("fork_max_cycles", s.campaign.forkMaxCycles);
    s.campaign.seed = cfg.getU64("seed", s.campaign.seed);
    s.campaign.mix.renameFrac =
        cfg.getDouble("rename_frac", s.campaign.mix.renameFrac);
    s.campaign.mix.lsqFrac =
        cfg.getDouble("lsq_frac", s.campaign.mix.lsqFrac);
    s.campaign.mix.inflightFrac =
        cfg.getDouble("inflight_frac", s.campaign.mix.inflightFrac);
    s.campaign.trialTimeoutMs = cfg.getU64("trial_timeout_ms", 0);
    s.campaign.ciTarget =
        cfg.getDouble("ci_target", s.campaign.ciTarget);
    s.campaign.ciWave = cfg.getU64("ci_wave", s.campaign.ciWave);

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
