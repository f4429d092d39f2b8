/**
 * @file
 * Example: run a fault-injection campaign (the Section 4 methodology)
 * on one benchmark under FaultHound, and print the classification and
 * coverage breakdown. Mirrors what bench_fig8_coverage_fp does per
 * scheme, but as a minimal, commented walkthrough of the fault API:
 *
 *   fault::drawPlan / apply    -> single-bit flips in RF/LSQ/rename
 *   fault::runFork / archEquals -> tandem golden-vs-faulty execution
 *   fault::runCampaign          -> the full masked/noisy/SDC pipeline
 */

#include <chrono>
#include <cstdio>

#include "exec/interrupt.hh"
#include "exec/progress.hh"
#include "exec/thread_pool.hh"
#include "fault/campaign.hh"
#include "fault/campaign_json.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

using namespace fh;

int
main(int argc, char **argv)
{
    // usage: fault_injection_campaign [bench] [threads]
    // (threads: host workers for the campaign forks; also settable
    //  via FH_THREADS; 0/unset = all hardware threads)
    const char *bench_name = argc > 1 ? argv[1] : "400.perl";
    const std::string json = envString("FH_JSON");

    workload::WorkloadSpec spec;
    spec.maxThreads = 2;
    isa::Program prog = workload::build(bench_name, spec);

    pipeline::CoreParams params;
    params.detector = filters::DetectorParams::faultHound();

    fault::CampaignConfig cfg;
    cfg.injections = envU64("FH_INJECTIONS", 200);
    cfg.window = 1000; // paper: 1000-instruction run window
    u64 threads = envU64("FH_THREADS", 0);
    if (argc > 2 && !parseU64(argv[2], threads))
        fh_fatal("threads argument '%s' is not an unsigned integer",
                 argv[2]);
    cfg.threads = static_cast<unsigned>(threads);
    // Resilience knobs: FH_JOURNAL names a trial journal (rerun with
    // the same config to resume an interrupted campaign), and
    // FH_TRIAL_TIMEOUT_MS bounds each trial's wall time.
    cfg.journalPath = envString("FH_JOURNAL");
    cfg.trialTimeoutMs = envU64("FH_TRIAL_TIMEOUT_MS", 0);

    std::printf("injecting %llu single-bit faults into %s "
                "(rename 20%% / LSQ 8%% / datapath+RF 72%%) "
                "on %u worker threads...\n",
                static_cast<unsigned long long>(cfg.injections),
                prog.name.c_str(), exec::resolveThreads(cfg.threads));

    exec::installShutdownHandlers();
    exec::ProgressMeter meter(std::string(bench_name) + " campaign",
                              cfg.injections);
    cfg.progress = &meter;

    const auto t0 = std::chrono::steady_clock::now();
    auto r = fault::runCampaign(params, &prog, cfg);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    meter.finish();

    if (!json.empty())
        fault::writeCampaignJson(json, bench_name,
                                 exec::resolveThreads(cfg.threads), cfg,
                                 r, seconds);

    auto pct = [&](u64 n, u64 d) {
        return d ? 100.0 * static_cast<double>(n) / d : 0.0;
    };

    std::printf("\nclassification (of %llu injections)\n",
                static_cast<unsigned long long>(r.injected));
    std::printf("  masked : %5.1f%%   (no architectural effect)\n",
                100 * r.maskedFrac());
    std::printf("  noisy  : %5.1f%%   (raised an exception)\n",
                100 * r.noisyFrac());
    std::printf("  SDC    : %5.1f%%   (silent data corruption)\n",
                100 * r.sdcFrac());

    std::printf("\nFaultHound on the %llu SDC faults\n",
                static_cast<unsigned long long>(r.sdc));
    std::printf("  recovered (replay/rollback) : %5.1f%%\n",
                pct(r.recovered, r.sdc));
    std::printf("  detected (LSQ compare/trap) : %5.1f%%\n",
                pct(r.detected, r.sdc));
    std::printf("  uncovered                   : %5.1f%%\n",
                pct(r.uncovered, r.sdc));
    std::printf("  => coverage %.1f%% (paper: ~75%% mean)\n",
                100 * r.coverage());

    std::printf("\nuncovered-fault breakdown (Figure 11 bins)\n");
    std::printf("  suppressed by 2nd-level filter : %llu\n",
                static_cast<unsigned long long>(
                    r.bins.secondLevelMasked));
    std::printf("  completed/committed register   : %llu\n",
                static_cast<unsigned long long>(r.bins.completedReg));
    std::printf("  uncovered rename fault         : %llu\n",
                static_cast<unsigned long long>(
                    r.bins.renameUncovered));
    std::printf("  never triggered a filter       : %llu\n",
                static_cast<unsigned long long>(r.bins.noTrigger));
    std::printf("  other                          : %llu\n",
                static_cast<unsigned long long>(r.bins.other));
    if (r.trialErrors)
        std::printf("\n%llu trial(s) isolated after in-fork errors "
                    "(see warnings above for repro plans)\n",
                    static_cast<unsigned long long>(r.trialErrors));
    if (r.partial) {
        std::printf("\ncampaign interrupted after %llu trials; rerun "
                    "with the same FH_JOURNAL to resume\n",
                    static_cast<unsigned long long>(r.injected));
        return 130;
    }
    return 0;
}
