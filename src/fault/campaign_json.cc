#include "fault/campaign_json.hh"

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace fh::fault
{

namespace
{

/** (FH_JSON key, value text) pairs, in record order. */
using Pairs = std::vector<std::pair<std::string, std::string>>;

struct Block
{
    const char *name;
    Pairs pairs;
};

/**
 * The FH_JSON record but its profile: the top-level pairs, the
 * deterministic count blocks (written one key per line) and the
 * host-local observability blocks (written one block per line).
 */
struct Record
{
    Pairs top;
    std::vector<Block> counts;
    std::vector<Block> host;
};

template <class T>
std::string
text(T v)
{
    if constexpr (std::is_same_v<T, bool>)
        return v ? "true" : "false";
    else
        return std::to_string(v);
}

template <class S>
Pairs
pairsOf(const S &s)
{
    Pairs p;
    forEachField(S::fields(), [&](const auto &f) {
        p.emplace_back(f.key, text(s.*f.member));
    });
    return p;
}

Record
makeRecord(const std::string &bench, unsigned workers,
           const CampaignConfig &cfg, const CampaignResult &r,
           WallTime time)
{
    // Journal-replayed trials cost no wall time, so the rate counts
    // executed trials only, over the time since the first of them.
    const double rate =
        time.executing > 0
            ? static_cast<double>(r.injected - r.replayedTrials) /
                  time.executing
            : 0.0;
    Record rec;
    rec.top = {
        {"benchmark", "\"" + bench + "\""},
        {"seed", text(cfg.seed)},
        {"injections", text(cfg.injections)},
        {"window", text(cfg.window)},
        {"worker_threads", text(workers)},
        // Interrupted-and-drained runs are flagged, never passed off
        // as complete: the counts cover only injected trials.
        {"partial", text(r.partial)},
        {"ci_target", csprintf("%.17g", cfg.ciTarget)},
        {"ci_wave", text(cfg.ciWave)},
        // Adaptive campaigns: stopped at a wave boundary because the
        // pooled Wilson half-width on the SDC rate (ci_half_width, the
        // value the stop rule compares) reached ci_target.
        {"ci_stopped", text(r.ciStopped)},
        {"ci_half_width",
         csprintf("%.17g",
                  pooledSdcHalfWidth(r.profile, StratumSpace(cfg.mix)))},
        {"replayed_trials", text(r.replayedTrials)},
        {"elapsed_seconds", csprintf("%.3f", time.elapsed)},
        {"trials_per_second", csprintf("%.1f", rate)},
    };
    rec.counts = {{"classification", pairsOf(r)}, {"bins", pairsOf(r.bins)}};
    // Scheduler counters over every core the campaign ran, and busy
    // time per phase summed over threads: observational, never
    // classification.
    rec.host.push_back({"scheduler", pairsOf(r.sched)});
    rec.host.push_back({"phases_ns", pairsOf(r.phases)});
    const double total =
        static_cast<double>(std::max<u64>(r.phases.totalNs(), 1));
    Pairs pct;
    for (const auto &f : CampaignPhases::fields()) {
        const double ns = static_cast<double>(r.phases.*f.member);
        pct.emplace_back(f.key, csprintf("%.1f", 100.0 * ns / total));
    }
    rec.host.push_back({"phases_pct", std::move(pct)});
    return rec;
}

/** `{ "key": value, ... }` */
std::string
inlineObject(const Pairs &pairs)
{
    std::string s = "{";
    for (const auto &[key, value] : pairs) {
        s += s.size() > 1 ? ", \"" : " \"";
        s += key + "\": " + value;
    }
    return s + " }";
}

/** One "profile.strata" row: the stratum index, then its counts. */
Pairs
stratumPairs(const VulnProfile &profile, unsigned si)
{
    Pairs p = pairsOf(profile.strata[si]);
    p.insert(p.begin(), {"stratum", text(si)});
    return p;
}

/** `a, b, c` */
template <class Counts>
std::string
joined(const Counts &counts)
{
    std::string s;
    for (const u64 n : counts) {
        if (!s.empty())
            s += ", ";
        s += std::to_string(n);
    }
    return s;
}

/** Per-site vulnerability profile: pure counter folds over the trial
 *  record stream (deterministic bytes for any thread count — CI's
 *  adaptive stop identity step compares this block). */
void
writeProfile(std::FILE *out, const VulnProfile &profile)
{
    std::fprintf(out, "  \"profile\": {\n    \"strata\": [\n");
    for (unsigned si = 0; si < StratumSpace::kCount; ++si)
        std::fprintf(out, "      %s%s\n",
                     inlineObject(stratumPairs(profile, si)).c_str(),
                     si + 1 < StratumSpace::kCount ? "," : "");
    std::fprintf(out, "    ],\n    \"sdc_bits\": {\n");
    static const char *kStructureNames[VulnProfile::kStructures] = {
        "regfile", "lsq", "rename"};
    for (unsigned st = 0; st < VulnProfile::kStructures; ++st)
        std::fprintf(out, "      \"%s\": [%s]%s\n", kStructureNames[st],
                     joined(profile.sdcBits[st]).c_str(),
                     st + 1 < VulnProfile::kStructures ? "," : "");
    std::fprintf(out, "    },\n    \"sdc_pcs\": [");
    bool first = true;
    for (const auto &[pc, n] : profile.sdcPcs) {
        std::fprintf(out, "%s{ \"pc\": \"0x%llx\", \"sdc\": %llu }",
                     first ? "" : ", ", static_cast<unsigned long long>(pc),
                     static_cast<unsigned long long>(n));
        first = false;
    }
    std::fprintf(out, "],\n    \"sdc_cycle_buckets\": [%s]\n  },\n",
                 joined(profile.sdcCycleBuckets).c_str());
}

/** Human name of stratum si, e.g. "lsq[b16-31]". */
std::string
stratumName(unsigned si)
{
    if (si == 0)
        return "rename";
    const unsigned lo =
        (si - 1) % StratumSpace::kBitGroups * StratumSpace::kGroupBits;
    const char *kind = si < 1 + StratumSpace::kBitGroups ? "lsq"
                       : si < 1 + 2 * StratumSpace::kBitGroups
                           ? "reg-inflight"
                           : "reg-static";
    return csprintf("%s[b%u-%u]", kind, lo,
                    lo + StratumSpace::kGroupBits - 1);
}

} // namespace

bool
writeCampaignJson(const std::string &path, const std::string &bench,
                  unsigned workers, const CampaignConfig &cfg,
                  const CampaignResult &r, WallTime time)
{
    std::FILE *out =
        path == "-" ? stdout : std::fopen(path.c_str(), "w");
    if (!out) {
        fh_warn("cannot write FH_JSON file %s", path.c_str());
        return false;
    }
    const Record rec = makeRecord(bench, workers, cfg, r, time);
    std::fprintf(out, "{\n");
    for (const auto &[key, value] : rec.top)
        std::fprintf(out, "  \"%s\": %s,\n", key.c_str(), value.c_str());
    for (const Block &b : rec.counts) {
        std::fprintf(out, "  \"%s\": {\n", b.name);
        for (size_t i = 0; i < b.pairs.size(); ++i)
            std::fprintf(out, "    \"%s\": %s%s\n",
                         b.pairs[i].first.c_str(),
                         b.pairs[i].second.c_str(),
                         i + 1 < b.pairs.size() ? "," : "");
        std::fprintf(out, "  },\n");
    }
    writeProfile(out, r.profile);
    for (size_t i = 0; i < rec.host.size(); ++i)
        std::fprintf(out, "  \"%s\": %s%s\n", rec.host[i].name,
                     inlineObject(rec.host[i].pairs).c_str(),
                     i + 1 < rec.host.size() ? "," : "");
    std::fprintf(out, "}\n");
    if (out != stdout)
        std::fclose(out);
    return true;
}

void
printCampaignSummary(std::FILE *out, const char *label,
                     const std::string &bench, unsigned workers,
                     const CampaignConfig &cfg, const CampaignResult &r,
                     WallTime time)
{
    auto line = [&](const std::string &name, const Pairs &pairs) {
        std::fprintf(out, "%s: %s", label, name.c_str());
        for (const auto &[key, value] : pairs)
            std::fprintf(out, " %s=%s", key.c_str(), value.c_str());
        std::fprintf(out, "\n");
    };
    const Record rec = makeRecord(bench, workers, cfg, r, time);
    line("campaign", rec.top);
    for (const Block &b : rec.counts)
        line(b.name, b.pairs);
    for (const Block &b : rec.host)
        line(b.name, b.pairs);
    for (unsigned si = 0; si < StratumSpace::kCount; ++si)
        if (r.profile.strata[si].trials != 0)
            line("profile " + stratumName(si), stratumPairs(r.profile, si));
    // Root-cause attribution: the five workload instructions whose
    // values produced the most SDCs.
    std::vector<std::pair<u64, u64>> pcs(r.profile.sdcPcs.begin(),
                                         r.profile.sdcPcs.end());
    std::stable_sort(pcs.begin(), pcs.end(), [](const auto &a,
                                                const auto &b) {
        return a.second > b.second;
    });
    Pairs top;
    for (size_t i = 0; i < pcs.size() && i < 5; ++i)
        top.emplace_back(csprintf("0x%llx", static_cast<unsigned long long>(
                                                pcs[i].first)),
                         text(pcs[i].second));
    if (!top.empty())
        line("sdc_pcs", top);
}

} // namespace fh::fault
