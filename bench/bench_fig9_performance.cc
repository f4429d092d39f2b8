/**
 * @file
 * Figure 9: performance degradation over the fault-intolerant
 * baseline for PBFS, PBFS-biased, FaultHound-backend, FaultHound, and
 * SRT-iso. Expected shape: PBFS negligible, PBFS-biased very high
 * (~97% in the paper, full rollbacks on every false positive),
 * FaultHound-backend <= FaultHound ~10%, SRT-iso slightly above
 * FaultHound.
 */

#include <iostream>

#include "harness.hh"

using namespace fh;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseOptions(argc, argv, {.insts = 150000});
    const u64 budget = opts.insts;

    // Per benchmark: each scheme's overhead, then SRT-iso's.
    const auto overheads = bench::runCells(
        opts, opts.benchmarks.size(),
        [&](u64 b, const fault::CampaignConfig &) {
            const auto &info = opts.benchmarks[b];
            isa::Program prog = opts.program(info, 2);
            auto base = bench::runBudget(
                bench::coreParams(filters::DetectorParams::none()), &prog,
                budget);
            const double base_cycles = static_cast<double>(base.cycle());
            std::vector<double> row;
            for (const auto &scheme : bench::fig8Schemes()) {
                auto core = bench::runBudget(
                    bench::coreParams(scheme.params), &prog, budget);
                row.push_back(static_cast<double>(core.cycle()) /
                                  base_cycles -
                              1.0);
            }
            const isa::Program srt_prog = opts.program(info, 4);
            row.push_back(static_cast<double>(
                              bench::runSrt(srt_prog, budget).cycle()) /
                              base_cycles -
                          1.0);
            return row;
        });

    std::cout << "Figure 9: performance degradation vs "
                 "no-fault-tolerance baseline (" << budget
              << " instructions)\n(paper: PBFS ~1%, PBFS-biased ~97%, "
                 "FH-backend < FaultHound ~10%, SRT-iso slightly "
                 "above FaultHound)\n\n";
    bench::benchmarkTable(opts.benchmarks,
                          {"PBFS", "PBFS-biased", "FH-backend",
                           "FaultHound", "SRT-iso"},
                          [&](size_t b, size_t c) { return overheads[b][c]; })
        .print(std::cout);
    return 0;
}
