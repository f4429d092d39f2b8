/**
 * @file
 * Figure 8: (a) SDC coverage and (b) false-positive rates for PBFS,
 * PBFS-biased, FaultHound-backend, and full FaultHound.
 *
 * Expected shape (paper): PBFS low coverage (~30%) with negligible
 * false positives; PBFS-biased good coverage (~75-80%) but high
 * false-positive rates (~8%); FaultHound matches PBFS-biased's
 * coverage at much lower false-positive rates (~3%); FH-backend
 * covers only the back-end, so its overall coverage is lower than
 * full FaultHound's.
 */

#include <iostream>
#include <utility>

#include "harness.hh"

using namespace fh;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseOptions(
        argc, argv, {.insts = 120000, .campaign = true});
    const auto schemes = bench::fig8Schemes();
    const auto &benchmarks = opts.benchmarks;
    const u64 ns = schemes.size();

    // Each benchmark x scheme cell's coverage and FP rate.
    const auto cells = bench::runCells(
        opts, benchmarks.size() * ns,
        [&](u64 j, const fault::CampaignConfig &cfg) {
            isa::Program prog = opts.program(benchmarks[j / ns], 2);
            auto params = bench::coreParams(schemes[j % ns].params);
            return std::pair(
                fault::runCampaign(params, &prog, cfg).coverage(),
                bench::fpRateSteady(params, &prog, opts.insts));
        });
    std::vector<std::string> columns;
    for (const auto &scheme : schemes)
        columns.push_back(scheme.label);

    std::cout << "Figure 8(a): SDC coverage (" << opts.campaign.injections
              << " injections per benchmark per scheme)\n(paper: PBFS "
                 "~30%, PBFS-biased ~75-80%, FH-backend < FaultHound "
                 "~75%)\n\n";
    bench::benchmarkTable(benchmarks, columns, [&](size_t b, size_t s) {
        return cells[b * ns + s].first;
    }).print(std::cout);

    std::cout << "\nFigure 8(b): false-positive rate, fraction of "
                 "committed instructions (fault-free run of "
              << opts.insts
              << " instructions)\n(paper: PBFS ~0%, PBFS-biased ~8%, "
                 "FaultHound ~3%)\n\n";
    bench::benchmarkTable(
        benchmarks, columns,
        [&](size_t b, size_t s) { return cells[b * ns + s].second; }, 2)
        .print(std::cout);
    return 0;
}
