/**
 * @file
 * Example: run a fault-injection campaign (the Section 4 methodology)
 * on one benchmark under FaultHound through the public API, and print
 * the classification and coverage breakdown. Mirrors what
 * bench_fig8_coverage_fp does per scheme, as a minimal walkthrough:
 *
 *   workload::build      -> the benchmark program
 *   fault::CampaignConfig -> 200 single-bit flips in RF/LSQ/rename,
 *                           1000-instruction run window
 *   fault::runCampaign   -> masked/noisy/SDC classification, coverage
 *                           and Figure 11 bins
 *
 * usage: fault_injection_campaign [bench]
 *
 * Everything else — injection count, fork threads, journal resume,
 * the JSON record — is fhsim's campaign mode
 * (`fhsim bench=... campaign=true injections=... jobs=... journal=...
 * json=...`).
 */

#include <cstdio>

#include "fault/campaign.hh"
#include "workload/workload.hh"

using namespace fh;

int
main(int argc, char **argv)
{
    if (argc > 2) {
        std::fprintf(stderr, "usage: fault_injection_campaign [bench]\n");
        return 1;
    }
    const char *bench_name = argc > 1 ? argv[1] : "400.perl";

    workload::WorkloadSpec spec;
    spec.maxThreads = 2;
    isa::Program prog = workload::build(bench_name, spec);

    pipeline::CoreParams params;
    params.detector = filters::DetectorParams::faultHound();

    fault::CampaignConfig cfg;
    cfg.injections = 200;
    cfg.window = 1000; // paper: 1000-instruction run window
    cfg.threads = 0;   // the default fork threads; results are identical

    std::printf("injecting %llu single-bit faults into %s "
                "(rename 20%% / LSQ 8%% / datapath+RF 72%%) "
                "on %u fork threads...\n",
                static_cast<unsigned long long>(cfg.injections),
                prog.name.c_str(), fault::resolveForkThreads(cfg.threads));

    const fault::CampaignResult r = fault::runCampaign(params, &prog, cfg);

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
    return 0;
}
