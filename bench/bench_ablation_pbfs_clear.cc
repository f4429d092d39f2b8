/**
 * @file
 * PBFS flash-clear interval sweep (Section 2.1): sticky counters
 * detect only one change per clear, so the clear period sets the
 * coverage/false-positive tradeoff of the baseline — frequent clears
 * re-arm detection (more coverage, more false positives), infrequent
 * clears leave the filters saturated (cheap but nearly blind).
 */

#include <iostream>

#include "harness.hh"

using namespace fh;

int
main()
{
    auto cfg = bench::campaignConfig();
    const u64 budget = bench::envInsts(100000);
    const std::vector<u64> intervals = {1000, 5000, 10000, 50000};
    auto benchmarks = bench::selectedBenchmarks();

    // interval x benchmark cells are independent: outer pool over the
    // cells, leftover FH_THREADS budget into each cell's campaign.
    const u64 ncells = intervals.size() * benchmarks.size();
    std::vector<double> cov(ncells);
    std::vector<double> fp(ncells);
    const auto split = bench::splitThreads(ncells);
    cfg.threads = split.inner;
    exec::ThreadPool pool(split.outer);
    pool.parallelFor(ncells, [&](u64 j, unsigned) {
        const u64 interval = intervals[j / benchmarks.size()];
        isa::Program prog =
            bench::buildProgram(benchmarks[j % benchmarks.size()], 2);
        auto det = filters::DetectorParams::pbfsSticky();
        det.pbfs.clearInterval = interval;
        auto params = bench::coreParams(det);
        cov[j] = fault::runCampaign(params, &prog, cfg).coverage();
        fp[j] = bench::fpRateSteady(params, &prog, budget);
    });

    TextTable table({"clear interval", "SDC coverage", "FP rate"});
    for (size_t i = 0; i < intervals.size(); ++i) {
        const auto first = cov.begin() + i * benchmarks.size();
        std::vector<double> cov_row(first, first + benchmarks.size());
        const auto fp_first = fp.begin() + i * benchmarks.size();
        std::vector<double> fp_row(fp_first,
                                   fp_first + benchmarks.size());
        table.addRow({std::to_string(intervals[i]),
                      TextTable::pct(bench::mean(cov_row)),
                      TextTable::pct(bench::mean(fp_row), 3)});
    }

    std::cout << "PBFS sticky-counter flash-clear sweep (Section 2.1: "
                 "sticky filters detect one change per clear)\n\n";
    table.print(std::cout);
    return 0;
}
