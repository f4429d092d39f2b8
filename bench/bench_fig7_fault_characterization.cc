/**
 * @file
 * Figure 7: fraction of injected faults that are masked, noisy
 * (exception-raising), or silent data corruptions, per benchmark.
 * Expected shape (paper): ~85% masked, ~5% noisy, ~10% SDC.
 */

#include <iostream>

#include "harness.hh"

using namespace fh;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseOptions(argc, argv, {.campaign = true});

    const auto results = bench::runCells(
        opts, opts.benchmarks.size(),
        [&](u64 b, const fault::CampaignConfig &cfg) {
            isa::Program prog = opts.program(opts.benchmarks[b], 2);
            auto params =
                bench::coreParams(filters::DetectorParams::none());
            const auto r = fault::runCampaign(params, &prog, cfg);
            return std::vector<double>{r.maskedFrac(), r.noisyFrac(),
                                       r.sdcFrac()};
        });

    std::cout << "Figure 7: fault characterization ("
              << opts.campaign.injections
              << " single-bit injections per benchmark: rename table "
                 "20%, register file 72%, LSQ 8%)\n(paper: ~85% "
                 "masked, ~5% noisy, ~10% SDC)\n\n";
    bench::benchmarkTable(opts.benchmarks, {"masked", "noisy", "SDC"},
                          [&](size_t b, size_t c) { return results[b][c]; })
        .print(std::cout);
    return 0;
}
