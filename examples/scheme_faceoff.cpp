/**
 * @file
 * Example: the paper's headline comparison on one workload — run the
 * same benchmark under the fault-intolerant baseline, PBFS,
 * PBFS-biased, FaultHound-backend, and full FaultHound, and print the
 * three-way tradeoff (coverage, performance, energy) each scheme
 * strikes. This is Figures 8-10 in miniature.
 */

#include <cstdio>

#include "energy/energy_model.hh"
#include "fault/campaign.hh"
#include "workload/workload.hh"

using namespace fh;

int
main(int argc, char **argv)
{
    const char *bench_name = argc > 1 ? argv[1] : "specjbb";
    const u64 budget = 100000;

    workload::WorkloadSpec spec;
    spec.maxThreads = 2;
    isa::Program prog = workload::build(bench_name, spec);

    // Baseline reference run.
    pipeline::CoreParams base_params;
    base_params.detector = filters::DetectorParams::none();
    pipeline::Core base(base_params, &prog);
    base.runPerThreadBudget(budget / 2, budget * 200);
    const double base_cycles = static_cast<double>(base.cycle());
    const double base_energy = energy::computeEnergy(base).total();

    std::printf("%s: %llu instructions/thread, baseline CPI %.2f\n\n",
                prog.name.c_str(),
                static_cast<unsigned long long>(budget / 2),
                2.0 * base_cycles / static_cast<double>(budget));
    std::printf("%-12s %10s %10s %10s\n", "scheme", "coverage",
                "slowdown", "energy+");

    fault::CampaignConfig cfg;
    cfg.injections = 150;

    for (const filters::SchemePreset &row : filters::kSchemePresets) {
        pipeline::CoreParams params;
        params.detector = row.params();

        pipeline::Core core(params, &prog);
        core.runPerThreadBudget(budget / 2, budget * 200);
        double slowdown =
            static_cast<double>(core.cycle()) / base_cycles - 1.0;
        double energy_over =
            energy::computeEnergy(core).total() / base_energy - 1.0;

        double coverage = 0.0;
        if (params.detector.scheme != filters::Scheme::None)
            coverage =
                fault::runCampaign(params, &prog, cfg).coverage();

        std::printf("%-12s %9.1f%% %9.1f%% %9.1f%%\n",
                    row.label, 100 * coverage, 100 * slowdown,
                    100 * energy_over);
    }

    std::printf("\npaper shape: PBFS covers little but costs nothing; "
                "PBFS-biased covers well at a punishing slowdown;\n"
                "FaultHound keeps most of the coverage at a fraction "
                "of the cost (Figures 8-10).\n");
    return 0;
}
