/**
 * @file
 * Figure 11: breakdown of injected SDC faults under full FaultHound
 * into covered faults, faults masked by the second-level filter,
 * faults in completed/committed registers, uncovered rename faults,
 * faults that never trigger, and other.
 */

#include <iostream>

#include "harness.hh"

using namespace fh;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseOptions(argc, argv, {.campaign = true});

    // One campaign per benchmark: each SDC bin's share of its SDCs.
    const auto shares = bench::runCells(
        opts, opts.benchmarks.size(),
        [&](u64 b, const fault::CampaignConfig &cfg) {
            isa::Program prog = opts.program(opts.benchmarks[b], 2);
            auto params =
                bench::coreParams(filters::DetectorParams::faultHound());
            const auto res = fault::runCampaign(params, &prog, cfg);
            const double sdc = std::max<double>(1.0, res.sdc);
            return std::vector<double>{
                static_cast<double>(res.bins.covered) / sdc,
                static_cast<double>(res.bins.secondLevelMasked) / sdc,
                static_cast<double>(res.bins.completedReg) / sdc,
                static_cast<double>(res.bins.renameUncovered) / sdc,
                static_cast<double>(res.bins.noTrigger) / sdc,
                static_cast<double>(res.bins.other) / sdc,
            };
        });

    std::cout << "Figure 11: SDC fault breakdown under FaultHound ("
              << opts.campaign.injections
              << " injections per benchmark)\n(paper: covered "
                 "dominates; non-triggering faults ~10% of SDC; "
                 "completed/committed-register and uncovered-rename "
                 "faults modest)\n\n";
    bench::benchmarkTable(opts.benchmarks,
                          {"covered", "2nd-level", "compl-reg", "rename",
                           "no-trigger", "other"},
                          [&](size_t b, size_t c) { return shares[b][c]; })
        .print(std::cout);
    return 0;
}
