#include "fault/campaign_json.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace fh::fault
{

double
executedTrialsPerSecond(const CampaignResult &r, double seconds)
{
    return seconds > 0
               ? static_cast<double>(r.injected - r.replayedTrials) / seconds
               : 0.0;
}

bool
writeCampaignJson(const std::string &path, const std::string &bench,
                  unsigned workers, const CampaignConfig &cfg,
                  const CampaignResult &r, double seconds,
                  const FabricHealth *fabric)
{
    std::FILE *out =
        path == "-" ? stdout : std::fopen(path.c_str(), "w");
    if (!out) {
        fh_warn("cannot write FH_JSON file %s", path.c_str());
        return false;
    }
    auto u = [](u64 v) { return static_cast<unsigned long long>(v); };
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"benchmark\": \"%s\",\n", bench.c_str());
    std::fprintf(out, "  \"seed\": %llu,\n", u(cfg.seed));
    std::fprintf(out, "  \"injections\": %llu,\n", u(cfg.injections));
    std::fprintf(out, "  \"window\": %llu,\n", u(cfg.window));
    std::fprintf(out, "  \"worker_threads\": %u,\n", workers);
    // Interrupted-and-drained runs are flagged, never passed off as
    // complete: the classification below covers only injected trials.
    std::fprintf(out, "  \"partial\": %s,\n",
                 r.partial ? "true" : "false");
    std::fprintf(out, "  \"ci_target\": %.17g,\n", cfg.ciTarget);
    std::fprintf(out, "  \"ci_wave\": %llu,\n", u(cfg.ciWave));
    // Adaptive campaigns: stopped at a wave boundary because the
    // pooled Wilson half-width on the SDC rate reached ci_target.
    std::fprintf(out, "  \"ci_stopped\": %s,\n",
                 r.ciStopped ? "true" : "false");
    // The pooled half-width the stop rule compares with ci_target.
    std::fprintf(out, "  \"ci_half_width\": %.17g,\n",
                 pooledSdcHalfWidth(r.profile, StratumSpace(cfg.mix)));
    std::fprintf(out, "  \"replayed_trials\": %llu,\n",
                 u(r.replayedTrials));
    std::fprintf(out, "  \"elapsed_seconds\": %.3f,\n", seconds);
    std::fprintf(out, "  \"trials_per_second\": %.1f,\n",
                 executedTrialsPerSecond(r, seconds));
    std::fprintf(out, "  \"classification\": {\n");
    std::fprintf(out, "    \"injected\": %llu,\n", u(r.injected));
    std::fprintf(out, "    \"masked\": %llu,\n", u(r.masked));
    std::fprintf(out, "    \"noisy\": %llu,\n", u(r.noisy));
    std::fprintf(out, "    \"sdc\": %llu,\n", u(r.sdc));
    std::fprintf(out, "    \"recovered\": %llu,\n", u(r.recovered));
    std::fprintf(out, "    \"detected\": %llu,\n", u(r.detected));
    std::fprintf(out, "    \"uncovered\": %llu,\n", u(r.uncovered));
    std::fprintf(out, "    \"trial_errors\": %llu,\n", u(r.trialErrors));
    std::fprintf(out, "    \"hung_bare\": %llu,\n", u(r.hungBare));
    std::fprintf(out, "    \"hung_protected\": %llu,\n",
                 u(r.hungProtected));
    std::fprintf(out, "    \"skipped_provably_masked\": %llu,\n",
                 u(r.skippedProvablyMasked));
    std::fprintf(out, "    \"early_terminated\": %llu\n",
                 u(r.earlyTerminated));
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"bins\": {\n");
    std::fprintf(out, "    \"covered\": %llu,\n", u(r.bins.covered));
    std::fprintf(out, "    \"second_level_masked\": %llu,\n",
                 u(r.bins.secondLevelMasked));
    std::fprintf(out, "    \"completed_reg\": %llu,\n",
                 u(r.bins.completedReg));
    std::fprintf(out, "    \"arch_reg\": %llu,\n", u(r.bins.archReg));
    std::fprintf(out, "    \"rename_uncovered\": %llu,\n",
                 u(r.bins.renameUncovered));
    std::fprintf(out, "    \"no_trigger\": %llu,\n", u(r.bins.noTrigger));
    std::fprintf(out, "    \"other\": %llu\n", u(r.bins.other));
    std::fprintf(out, "  },\n");
    // Per-site vulnerability profile: pure counter folds over the
    // trial record stream (deterministic bytes for any thread/worker
    // count — the dist identity check diffs this block verbatim).
    std::fprintf(out, "  \"profile\": {\n");
    std::fprintf(out, "    \"strata\": [\n");
    for (unsigned si = 0; si < StratumSpace::kCount; ++si) {
        const StratumCounts &sc = r.profile.strata[si];
        std::fprintf(out,
                     "      { \"stratum\": %u, \"trials\": %llu, "
                     "\"masked\": %llu, \"noisy\": %llu, \"sdc\": %llu, "
                     "\"covered\": %llu, \"skipped_provably_masked\": "
                     "%llu, \"early_terminated\": %llu }%s\n",
                     si, u(sc.trials), u(sc.masked), u(sc.noisy),
                     u(sc.sdc), u(sc.covered),
                     u(sc.skippedProvablyMasked), u(sc.earlyTerminated),
                     si + 1 < StratumSpace::kCount ? "," : "");
    }
    std::fprintf(out, "    ],\n");
    static const char *kStructureNames[VulnProfile::kStructures] = {
        "regfile", "lsq", "rename"};
    std::fprintf(out, "    \"sdc_bits\": {\n");
    for (unsigned st = 0; st < VulnProfile::kStructures; ++st) {
        std::fprintf(out, "      \"%s\": [", kStructureNames[st]);
        for (unsigned bit = 0; bit < wordBits; ++bit)
            std::fprintf(out, "%s%llu", bit ? ", " : "",
                         u(r.profile.sdcBits[st][bit]));
        std::fprintf(out, "]%s\n",
                     st + 1 < VulnProfile::kStructures ? "," : "");
    }
    std::fprintf(out, "    },\n");
    std::fprintf(out, "    \"sdc_pcs\": [");
    {
        bool first = true;
        for (const auto &[pc, n] : r.profile.sdcPcs) {
            std::fprintf(out, "%s{ \"pc\": \"0x%llx\", \"sdc\": %llu }",
                         first ? "" : ", ", u(pc), u(n));
            first = false;
        }
    }
    std::fprintf(out, "],\n");
    std::fprintf(out, "    \"sdc_cycle_buckets\": [");
    for (unsigned b = 0; b < VulnProfile::kCycleBuckets; ++b)
        std::fprintf(out, "%s%llu", b ? ", " : "",
                     u(r.profile.sdcCycleBuckets[b]));
    std::fprintf(out, "]\n");
    std::fprintf(out, "  },\n");
    // Distributed-fabric health (coordinator runs only): how rough the
    // network was and what the fabric absorbed. Observational — the
    // classification above is identical whatever these counters say.
    if (fabric) {
        std::fprintf(
            out,
            "  \"fabric\": { \"workers_joined\": %u, "
            "\"workers_died\": %u, \"crc_errors\": %llu, "
            "\"ranges_issued\": %llu, \"ranges_reissued\": %llu, "
            "\"degraded\": %s },\n",
            fabric->workersJoined, fabric->workersDied,
            u(fabric->crcErrors), u(fabric->rangesIssued),
            u(fabric->rangesReissued),
            fabric->degraded ? "true" : "false");
    }
    // Event-driven scheduler counters over every core the campaign ran
    // (master + forks): purely observational, never classification.
    const SchedCounters &s = r.sched;
    std::fprintf(out,
                 "  \"scheduler\": { \"wakeup_hits\": %llu, "
                 "\"overflow_parks\": %llu, \"overflow_rescans\": %llu, "
                 "\"issue_evals\": %llu, \"issue_candidates\": %llu, "
                 "\"cycles\": %llu, \"skipped_cycles\": %llu },\n",
                 u(s.wakeupHits), u(s.overflowParks),
                 u(s.overflowRescans), u(s.issueEvals),
                 u(s.issueCandidates), u(s.cycles), u(s.skippedCycles));
    // Busy time per phase, summed over threads (CampaignPhases):
    // master advance + golden checkpoint ledger, snapshot copies, the
    // two faulty forks, and the arch/digest comparisons.
    const CampaignPhases &p = r.phases;
    const double total =
        static_cast<double>(p.totalNs() ? p.totalNs() : 1);
    auto pct = [&](u64 ns) {
        return 100.0 * static_cast<double>(ns) / total;
    };
    std::fprintf(out,
                 "  \"phases_ns\": { \"snapshot\": %llu, \"golden\": "
                 "%llu, \"bare\": %llu, \"protected\": %llu, "
                 "\"compare\": %llu },\n",
                 u(p.snapshotNs), u(p.goldenNs), u(p.bareNs),
                 u(p.protectedNs), u(p.compareNs));
    std::fprintf(out,
                 "  \"phases_pct\": { \"snapshot\": %.1f, \"golden\": "
                 "%.1f, \"bare\": %.1f, \"protected\": %.1f, "
                 "\"compare\": %.1f }\n",
                 pct(p.snapshotNs), pct(p.goldenNs), pct(p.bareNs),
                 pct(p.protectedNs), pct(p.compareNs));
    std::fprintf(out, "}\n");
    if (out != stdout)
        std::fclose(out);
    return true;
}

} // namespace fh::fault
