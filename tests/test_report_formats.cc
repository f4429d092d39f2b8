/**
 * @file
 * The campaign's report formats, pinned byte for byte: the FH_JSON
 * record writeCampaignJson writes and the journal line
 * TrialJournal::record appends. The result below holds a distinct
 * value in every counter, bin, scheduler, phase and profile field,
 * so a field dropped, renamed, swapped or reordered in any of
 * the field lists (fault/campaign.hh, fault/sampling.hh,
 * fault/campaign_json.hh) changes these bytes. fhsim's stderr summary
 * must report the same key/value pairs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/campaign.hh"
#include "fault/campaign_json.hh"
#include "fault/journal.hh"

namespace
{

using namespace fh;

fault::CampaignConfig
pinnedConfig()
{
    fault::CampaignConfig cfg;
    cfg.injections = 4000;
    cfg.window = 1500;
    cfg.seed = 77;
    cfg.ciTarget = 0.0125;
    cfg.ciWave = 96;
    return cfg;
}

/** One trial's deltas: every journaled counter distinct. */
fault::CampaignResult
pinnedDelta()
{
    fault::CampaignResult d;
    d.injected = 101;
    d.masked = 102;
    d.noisy = 103;
    d.sdc = 104;
    d.recovered = 105;
    d.detected = 106;
    d.uncovered = 107;
    d.trialErrors = 108;
    d.hungBare = 109;
    d.hungProtected = 110;
    d.bins.covered = 111;
    d.bins.secondLevelMasked = 112;
    d.bins.completedReg = 113;
    d.bins.archReg = 114;
    d.bins.renameUncovered = 115;
    d.bins.noTrigger = 116;
    d.bins.other = 117;
    d.skippedProvablyMasked = 118;
    d.earlyTerminated = 119;
    return d;
}

fault::TrialMeta
pinnedMeta()
{
    fault::TrialMeta m;
    m.stratum = 11;
    m.structure = 2;
    m.bit = 63;
    m.cycleBucket = 5;
    m.flags = 3;
    m.pc = 0x1234;
    m.exitCycle = 98765;
    return m;
}

/** A merged result: every counter, bin, scheduler, phase and profile
 *  field distinct. */
fault::CampaignResult
pinnedResult()
{
    fault::CampaignResult r = pinnedDelta();
    r.injected = 3001;
    r.partial = true;
    r.ciStopped = true;
    r.replayedTrials = 1001;
    r.phases.snapshotNs = 1000000;
    r.phases.goldenNs = 3000000;
    r.phases.bareNs = 5000000;
    r.phases.protectedNs = 7000000;
    r.phases.compareNs = 250000;
    r.sched.wakeupHits = 201;
    r.sched.overflowParks = 202;
    r.sched.overflowRescans = 203;
    r.sched.issueEvals = 204;
    r.sched.issueCandidates = 205;
    r.sched.cycles = 206;
    r.sched.skippedCycles = 207;
    for (unsigned s = 0; s < fault::StratumSpace::kCount; ++s) {
        fault::StratumCounts &c = r.profile.strata[s];
        c.trials = 5000 + 10 * s;
        c.masked = 1001 + 10 * s;
        c.noisy = 1002 + 10 * s;
        c.sdc = 1003 + 10 * s;
        c.covered = 1004 + 10 * s;
        c.skippedProvablyMasked = 1005 + 10 * s;
        c.earlyTerminated = 1006 + 10 * s;
    }
    for (unsigned st = 0; st < fault::VulnProfile::kStructures; ++st)
        for (unsigned bit = 0; bit < wordBits; ++bit)
            r.profile.sdcBits[st][bit] = 100 * st + bit;
    r.profile.sdcPcs = {{0, 7}, {0x40, 9}, {0x1f4, 11}};
    for (unsigned b = 0; b < fault::VulnProfile::kCycleBuckets; ++b)
        r.profile.sdcCycleBuckets[b] = 300 + b;
    return r;
}

std::string
tempPath(const std::string &name)
{
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in), {}};
}

/** One "sdc_bits" row: the structure's 64 counts, bit 0 first. */
std::string
bitsRow(const char *name, u64 base, bool last)
{
    std::string row = std::string("      \"") + name + "\": [";
    for (u64 bit = 0; bit < wordBits; ++bit) {
        row += bit ? ", " : "";
        row += std::to_string(base + bit);
    }
    return row + (last ? "]\n" : "],\n");
}

/** What writeCampaignJson wrote for pinnedResult(). */
std::string
pinnedJson()
{
    return std::string(R"({
  "benchmark": "ocean",
  "seed": 77,
  "injections": 4000,
  "window": 1500,
  "worker_threads": 3,
  "partial": true,
  "ci_target": 0.012500000000000001,
  "ci_wave": 96,
  "ci_stopped": true,
  "ci_half_width": 0.0041606248733778812,
  "replayed_trials": 1001,
  "elapsed_seconds": 2.500,
  "trials_per_second": 800.0,
  "classification": {
    "injected": 3001,
    "masked": 102,
    "noisy": 103,
    "sdc": 104,
    "recovered": 105,
    "detected": 106,
    "uncovered": 107,
    "trial_errors": 108,
    "hung_bare": 109,
    "hung_protected": 110,
    "skipped_provably_masked": 118,
    "early_terminated": 119
  },
  "bins": {
    "covered": 111,
    "second_level_masked": 112,
    "completed_reg": 113,
    "arch_reg": 114,
    "rename_uncovered": 115,
    "no_trigger": 116,
    "other": 117
  },
  "profile": {
    "strata": [
      { "stratum": 0, "trials": 5000, "masked": 1001, "noisy": 1002, "sdc": 1003, "covered": 1004, "skipped_provably_masked": 1005, "early_terminated": 1006 },
      { "stratum": 1, "trials": 5010, "masked": 1011, "noisy": 1012, "sdc": 1013, "covered": 1014, "skipped_provably_masked": 1015, "early_terminated": 1016 },
      { "stratum": 2, "trials": 5020, "masked": 1021, "noisy": 1022, "sdc": 1023, "covered": 1024, "skipped_provably_masked": 1025, "early_terminated": 1026 },
      { "stratum": 3, "trials": 5030, "masked": 1031, "noisy": 1032, "sdc": 1033, "covered": 1034, "skipped_provably_masked": 1035, "early_terminated": 1036 },
      { "stratum": 4, "trials": 5040, "masked": 1041, "noisy": 1042, "sdc": 1043, "covered": 1044, "skipped_provably_masked": 1045, "early_terminated": 1046 },
      { "stratum": 5, "trials": 5050, "masked": 1051, "noisy": 1052, "sdc": 1053, "covered": 1054, "skipped_provably_masked": 1055, "early_terminated": 1056 },
      { "stratum": 6, "trials": 5060, "masked": 1061, "noisy": 1062, "sdc": 1063, "covered": 1064, "skipped_provably_masked": 1065, "early_terminated": 1066 },
      { "stratum": 7, "trials": 5070, "masked": 1071, "noisy": 1072, "sdc": 1073, "covered": 1074, "skipped_provably_masked": 1075, "early_terminated": 1076 },
      { "stratum": 8, "trials": 5080, "masked": 1081, "noisy": 1082, "sdc": 1083, "covered": 1084, "skipped_provably_masked": 1085, "early_terminated": 1086 },
      { "stratum": 9, "trials": 5090, "masked": 1091, "noisy": 1092, "sdc": 1093, "covered": 1094, "skipped_provably_masked": 1095, "early_terminated": 1096 },
      { "stratum": 10, "trials": 5100, "masked": 1101, "noisy": 1102, "sdc": 1103, "covered": 1104, "skipped_provably_masked": 1105, "early_terminated": 1106 },
      { "stratum": 11, "trials": 5110, "masked": 1111, "noisy": 1112, "sdc": 1113, "covered": 1114, "skipped_provably_masked": 1115, "early_terminated": 1116 },
      { "stratum": 12, "trials": 5120, "masked": 1121, "noisy": 1122, "sdc": 1123, "covered": 1124, "skipped_provably_masked": 1125, "early_terminated": 1126 }
    ],
    "sdc_bits": {
)") + bitsRow("regfile", 0, false) + bitsRow("lsq", 100, false) +
           bitsRow("rename", 200, true) + R"(    },
    "sdc_pcs": [{ "pc": "0x0", "sdc": 7 }, { "pc": "0x40", "sdc": 9 }, { "pc": "0x1f4", "sdc": 11 }],
    "sdc_cycle_buckets": [300, 301, 302, 303, 304, 305, 306, 307]
  },
  "scheduler": { "wakeup_hits": 201, "overflow_parks": 202, "overflow_rescans": 203, "issue_evals": 204, "issue_candidates": 205, "cycles": 206, "skipped_cycles": 207 },
  "phases_ns": { "snapshot": 1000000, "golden": 3000000, "bare": 5000000, "protected": 7000000, "compare": 250000 },
  "phases_pct": { "snapshot": 6.2, "golden": 18.5, "bare": 30.8, "protected": 43.1, "compare": 1.5 }
}
)";
}

TEST(ReportFormats, FhJsonBytesArePinned)
{
    const std::string path = tempPath("pinned.json");
    ASSERT_TRUE(fault::writeCampaignJson(path, "ocean", 3, pinnedConfig(),
                                         pinnedResult(), {2.5, 2.5}));
    EXPECT_EQ(slurp(path), pinnedJson());
    std::remove(path.c_str());
}

TEST(ReportFormats, JournalRecordBytesArePinned)
{
    const std::string path = tempPath("pinned.fhj");
    {
        fault::TrialJournal journal(path, pinnedConfig(), "FaultHound");
        journal.record(0, pinnedDelta(), pinnedMeta());
    }
    const std::string text = slurp(path);
    const size_t eol = text.find('\n');
    ASSERT_NE(eol, std::string::npos);
    EXPECT_EQ(text.substr(eol + 1),
              "{\"t\": 0, \"d\": [101, 102, 103, 104, 105, 106, 107, 108, "
              "109, 110, 111, 112, 113, 114, 115, 116, 117, 118, 119], "
              "\"m\": [11, 2, 63, 5, 3, 4660, 98765], \"c\": 3492385152}\n");
    std::remove(path.c_str());
}

/** One summary line: its name, then its key=value pairs. */
struct SummaryLine
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> pairs;
};

/** Parse printCampaignSummary's "fhsim: name key=value ..." lines. */
std::vector<SummaryLine>
parseSummary(const std::string &text)
{
    std::vector<SummaryLine> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        EXPECT_EQ(line.rfind("fhsim: ", 0), 0u) << line;
        std::istringstream words(line.substr(7));
        SummaryLine out;
        std::string word;
        while (words >> word) {
            const size_t eq = word.find('=');
            if (eq == std::string::npos)
                out.name += (out.name.empty() ? "" : " ") + word;
            else
                out.pairs.emplace_back(word.substr(0, eq),
                                       word.substr(eq + 1));
        }
        lines.push_back(out);
    }
    return lines;
}

/** `"key": value` pairs joined as FH_JSON writes them. */
std::string
jsonPairs(const SummaryLine &l, const std::string &sep)
{
    std::string s;
    for (size_t i = 0; i < l.pairs.size(); ++i)
        s += (i ? sep : "") + "\"" + l.pairs[i].first +
             "\": " + l.pairs[i].second;
    return s;
}

TEST(ReportFormats, RateCountsOnlyTheExecutingTime)
{
    // elapsed_seconds is the whole run; trials_per_second divides the
    // executed trials by the time since the first of them, which
    // warmup and a resume's skip-advance come before.
    const std::string path = tempPath("rate.json");
    ASSERT_TRUE(fault::writeCampaignJson(path, "ocean", 3, pinnedConfig(),
                                         pinnedResult(), {10.0, 2.5}));
    const std::string text = slurp(path);
    std::remove(path.c_str());
    EXPECT_NE(text.find("\"elapsed_seconds\": 10.000,"), std::string::npos)
        << text;
    EXPECT_NE(text.find("\"trials_per_second\": 800.0,"),
              std::string::npos)
        << text;
}

TEST(ReportFormats, SummaryReportsTheFhJsonPairs)
{
    const std::string path = tempPath("summary.json");
    ASSERT_TRUE(fault::writeCampaignJson(path, "ocean", 3, pinnedConfig(),
                                         pinnedResult(), {2.5, 2.5}));
    const std::string json = slurp(path);
    std::remove(path.c_str());

    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    fault::printCampaignSummary(out, "fhsim", "ocean", 3, pinnedConfig(),
                                pinnedResult(), {2.5, 2.5});
    std::string text(static_cast<size_t>(std::ftell(out)), '\0');
    std::rewind(out);
    ASSERT_EQ(std::fread(text.data(), 1, text.size(), out), text.size());
    std::fclose(out);

    // Each line, rebuilt as FH_JSON text, is a whole block of the
    // record: same keys, same values, same order, nothing left out.
    std::set<std::string> blocks;
    unsigned strata = 0;
    for (const SummaryLine &l : parseSummary(text)) {
        ASSERT_FALSE(l.pairs.empty()) << l.name;
        std::string want;
        if (l.name == "campaign") {
            want = "{\n  ";
            want += jsonPairs(l, ",\n  ") + ",\n  \"";
            EXPECT_EQ(json.rfind(want, 0), 0u) << want;
        } else if (l.name == "classification" || l.name == "bins") {
            want = std::string("\n  \"") + l.name + "\": {\n    " +
                   jsonPairs(l, ",\n    ") + "\n  },\n";
        } else if (l.name.rfind("profile ", 0) == 0) {
            ++strata;
            want = std::string("\n      { ") + jsonPairs(l, ", ") + " }";
        } else if (l.name == "sdc_pcs") {
            for (const auto &[pc, n] : l.pairs)
                EXPECT_NE(json.find(std::string("{ \"pc\": \"") + pc +
                                    "\", \"sdc\": " + n + " }"),
                          std::string::npos)
                    << pc;
            continue;
        } else {
            want = std::string("\n  \"") + l.name + "\": { " +
                   jsonPairs(l, ", ") + " }";
        }
        EXPECT_NE(json.find(want), std::string::npos) << want;
        blocks.insert(l.name);
    }
    for (const char *name : {"campaign", "classification", "bins",
                             "scheduler", "phases_ns", "phases_pct"})
        EXPECT_EQ(blocks.count(name), 1u) << name;
    EXPECT_EQ(strata, fault::StratumSpace::kCount);
}

} // namespace
