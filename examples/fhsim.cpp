/**
 * @file
 * fhsim — the command-line simulator driver, the binary a downstream
 * user actually runs. Configures the core from key=value options (file
 * and/or command line), runs a benchmark under a chosen scheme, and
 * dumps gem5-style stats; or, with campaign=true, runs a
 * fault-injection campaign instead, on `jobs` fork threads beside the
 * producer thread.
 *
 * Usage:
 *   fhsim [--config FILE] [key=value ...]
 *
 * Run `fhsim` with no arguments (or `help=1`) for the full option
 * list — it is generated from the same consumed-key registry that
 * powers the unknown-option check, so it cannot drift from what the
 * driver actually accepts. The paper harnesses share the argv parser,
 * the check and the help printer (sim/config.hh).
 *
 * Unknown keys are fatal: `injectons=5000` should refuse to run, not
 * silently run the default campaign.
 *
 * SIGINT/SIGTERM stop new trials, drain the in-flight ones, flush the
 * journal, and emit the (partial-flagged) outputs; exit code 130.
 *
 * Examples:
 *   fhsim bench=429.mcf scheme=pbfs-biased insts=200000
 *   fhsim bench=apache campaign=true injections=500 jobs=8 \
 *         journal=apache.fhj
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "dist/spec.hh"
#include "energy/energy_model.hh"
#include "exec/interrupt.hh"
#include "exec/progress.hh"
#include "fault/campaign.hh"
#include "fault/campaign_json.hh"
#include "pipeline/stats_dump.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

using namespace fh;

namespace
{

/** fhsim's campaign keys beyond the schedule keys, with their help
 *  lines: a stats run refuses them, as it does the schedule keys. */
const std::pair<const char *, const char *> kCampaignKeys[] = {
    {"jobs", "campaign fork threads, plus one producer thread that also "
             "runs trials when they back up; 0-1024, 0 = one fewer than "
             "the hardware threads (at least 1)"},
    {"journal", "trial-journal path for checkpoint/resume"},
    {"json", "write the JSON campaign record here (\"-\" = stdout)"},
};

/**
 * The option registry: every key fhsim reads beyond the schedule keys
 * (fault::readSchedule declares those), with its help line. Declaring
 * them all up front serves both masters — the typo check refuses
 * anything not listed here, and printHelp() prints exactly this list.
 */
void
declareAllKeys(const Config &cfg)
{
    // Simulation.
    cfg.declareKey("bench", "benchmark name (default 400.perl)");
    cfg.declareKey("scheme",
                   "none|pbfs|pbfs-biased|fh-backend|faulthound "
                   "(default faulthound)");
    cfg.declareKey("insts",
                   "per-thread instruction budget of the stats run, 1 "
                   "to 10^15: the run's cycle cap, 400 per "
                   "instruction, must fit in 64 bits (default 100000)");
    cfg.declareKey("threads", "SMT contexts, 1-8 (default 2)");
    cfg.declareKey("tcam.entries",
                   "first-level TCAM entries, 0-1024: 0 = the scheme "
                   "preset (32); every lookup searches them all");
    cfg.declareKey("tcam.threshold",
                   "TCAM loosen threshold, 0-64: 0 = the scheme preset "
                   "(4); it bounds a mismatch count over a 64-bit word");
    cfg.declareKey("delay_buffer",
                   "delay buffer entries, 0-250: 0 = the default (16); "
                   "it holds ROB slots and the ROB has 250");
    // Campaign.
    cfg.declareKey("campaign",
                   "run a fault campaign instead of the stats run "
                   "(default false)");
    for (const auto &[key, help] : kCampaignKeys)
        cfg.declareKey(key, help);
    cfg.declareKey("help", "print this option list and exit");
}

/**
 * Refuse a key the selected mode does not read, naming it: a campaign
 * command that forgot campaign=true must not run the stats run and
 * drop its journal and JSON record, and a campaign runs no stats run
 * for `insts` to bound. `seed` seeds the workload in both modes.
 */
bool
rejectOtherModeKeys(const Config &cfg)
{
    const bool campaign = cfg.getBool("campaign", false);
    std::vector<std::string> others;
    if (campaign) {
        others.push_back("insts");
    } else {
        // The schedule keys, as readSchedule declares them.
        Config schedule;
        fault::CampaignConfig unused;
        fault::readSchedule(schedule, unused);
        for (const auto &[key, help] : schedule.keyDocs())
            if (key != "seed")
                others.push_back(key);
        for (const auto &[key, help] : kCampaignKeys)
            others.push_back(key);
    }
    bool ok = true;
    for (const std::string &key : others) {
        if (!cfg.has(key))
            continue;
        std::fprintf(stderr, "fhsim: option '%s' %s\n", key.c_str(),
                     campaign ? "is read only by the stats run, which "
                                "campaign=true does not run"
                              : "is read only by a campaign; add "
                                "campaign=true");
        ok = false;
    }
    return ok;
}

/** The deterministic campaign description the options select. */
dist::CampaignSpec
specFromConfig(const Config &cfg)
{
    dist::CampaignSpec spec;
    spec.bench = cfg.getString("bench", "400.perl");
    spec.scheme = cfg.getString("scheme", "faulthound");
    spec.coreThreads = static_cast<unsigned>(
        cfg.getU64("threads", 2, 1, dist::kMaxSmtThreads));
    spec.workload.maxThreads = std::max(2u, spec.coreThreads);
    spec.workload.seed = cfg.getU64("seed", 0x5eedULL);
    spec.tcamEntries = static_cast<unsigned>(
        cfg.getU64("tcam.entries", 0, 0, dist::kMaxTcamEntries));
    spec.tcamThreshold = static_cast<unsigned>(
        cfg.getU64("tcam.threshold", 0, 0, dist::kMaxTcamThreshold));
    spec.delayBuffer = static_cast<unsigned>(
        cfg.getU64("delay_buffer", 0, 0, dist::kMaxDelayBuffer));
    fault::readSchedule(cfg, spec.campaign);
    return spec;
}

/** The stdout campaign block, the stderr summary, the FH_JSON record
 *  and the exit code. */
int
emitCampaignOutputs(const Config &cfg, const std::string &bench,
                    unsigned workers,
                    const fault::CampaignConfig &ccfg,
                    const fault::CampaignResult &r, fault::WallTime time)
{
    std::printf("%-34s%-16.4f# fraction of injections\n",
                "campaign.masked", r.maskedFrac());
    std::printf("%-34s%-16.4f# fraction of injections\n",
                "campaign.noisy", r.noisyFrac());
    std::printf("%-34s%-16.4f# fraction of injections\n",
                "campaign.sdc", r.sdcFrac());
    std::printf("%-34s%-16.4f# of SDC faults\n",
                "campaign.coverage", r.coverage());
    std::printf("%-34s%-16llu# trials isolated after in-fork "
                "errors\n",
                "campaign.trial_errors",
                static_cast<unsigned long long>(r.trialErrors));
    std::printf("%-34s%-16llu# bare forks past forkMaxCycles\n",
                "campaign.hung_bare",
                static_cast<unsigned long long>(r.hungBare));
    std::printf("%-34s%-16llu# protected forks past "
                "forkMaxCycles\n",
                "campaign.hung_protected",
                static_cast<unsigned long long>(r.hungProtected));
    std::printf("%-34s%-16d# 1 = interrupted, counters are a "
                "prefix\n",
                "campaign.partial", r.partial ? 1 : 0);
    std::printf("%-34s%-16llu# masked with no fork executed\n",
                "campaign.skipped_provably_masked",
                static_cast<unsigned long long>(
                    r.skippedProvablyMasked));
    std::printf("%-34s%-16llu# bare forks ended by fault-watch "
                "erasure\n",
                "campaign.early_terminated",
                static_cast<unsigned long long>(r.earlyTerminated));
    std::printf("%-34s%-16d# 1 = adaptive CI stop fired\n",
                "campaign.ci_stopped", r.ciStopped ? 1 : 0);
    // Timing and the other diagnostics go to stderr, as FH_JSON's key
    // names and values: stdout stays byte-identical across runs and
    // fork-thread counts (the determinism suite diffs it).
    fault::printCampaignSummary(stderr, "fhsim", bench, workers, ccfg, r,
                                time);
    const std::string json = cfg.getString("json", "");
    if (!json.empty())
        fault::writeCampaignJson(json, bench, workers, ccfg, r, time);
    if (r.partial) {
        std::fprintf(stderr,
                     "fhsim: campaign interrupted after %llu "
                     "trials; rerun with the same journal to "
                     "resume\n",
                     static_cast<unsigned long long>(r.injected));
        return 130;
    }
    return 0;
}

/** The stats run, or with campaign=true the campaign alone. */
int
runSim(const Config &cfg, const dist::CampaignSpec &spec)
{
    const std::string &bench = spec.bench;
    if (!workload::find(bench)) {
        std::fprintf(stderr, "fhsim: unknown benchmark '%s'; pick "
                             "one of:\n",
                     bench.c_str());
        for (const auto &info : workload::all())
            std::fprintf(stderr, "  %s\n", info.name.c_str());
        return 1;
    }
    filters::DetectorParams preset;
    if (!dist::schemeByName(spec.scheme, preset)) {
        std::fprintf(stderr, "fhsim: unknown scheme '%s'\n",
                     spec.scheme.c_str());
        return 1;
    }
    isa::Program prog = spec.buildProgram();
    const pipeline::CoreParams params = spec.buildParams();

    const std::string scheme = filters::to_string(params.detector.scheme);
    if (cfg.getBool("campaign", false)) {
        fault::CampaignConfig ccfg = spec.campaign;
        ccfg.threads = static_cast<unsigned>(
            cfg.getU64("jobs", 0, 0, dist::kMaxJobs));
        ccfg.journalPath = cfg.getString("journal", "");
        exec::installShutdownHandlers();
        exec::ProgressMeter meter("fhsim campaign", ccfg.injections);
        ccfg.progress = &meter;
        const unsigned forkThreads = fault::resolveForkThreads(ccfg.threads);
        std::fprintf(stderr, "fhsim: %s, scheme %s, %u threads: running "
                             "%llu-injection campaign on %u fork "
                             "thread(s) plus the producer, which runs "
                             "trials too when they back up...\n",
                     bench.c_str(), scheme.c_str(), params.threads,
                     static_cast<unsigned long long>(ccfg.injections),
                     forkThreads);
        const auto t0 = std::chrono::steady_clock::now();
        auto r = fault::runCampaign(params, &prog, ccfg);
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        return emitCampaignOutputs(cfg, bench, forkThreads, ccfg, r,
                                   {seconds, meter.executingSeconds()});
    }

    const u64 insts = cfg.getU64("insts", 100000, 1, dist::kMaxInsts);
    std::fprintf(stderr,
                 "fhsim: %s, scheme %s, %llu insts/thread, %u "
                 "threads\n",
                 bench.c_str(), scheme.c_str(),
                 static_cast<unsigned long long>(insts), params.threads);
    pipeline::Core core(params, &prog);
    core.runPerThreadBudget(insts, insts * 400 + 1000000);
    pipeline::dumpStats(core, std::cout);

    auto e = energy::computeEnergy(core);
    std::printf("%-34s%-16.0f# dynamic+static energy (arb. units)\n",
                "energy.total", e.total());
    std::printf("%-34s%-16.0f# filter-table energy\n",
                "energy.detector", e.detector);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    if (!parseArgs(cfg, argc, argv, "fhsim"))
        return 1;
    declareAllKeys(cfg);
    const dist::CampaignSpec spec = specFromConfig(cfg);
    if (argc == 1 || cfg.getBool("help", false)) {
        // Bare `fhsim` documents itself; the registry above and
        // fault::readSchedule are the single source of truth for the
        // option list.
        printHelp(cfg, "fhsim");
        return 0;
    }
    if (!rejectUnknown(cfg, "fhsim") || !rejectOtherModeKeys(cfg))
        return 1;
    return runSim(cfg, spec);
}
