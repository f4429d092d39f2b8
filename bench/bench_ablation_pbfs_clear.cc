/**
 * @file
 * PBFS flash-clear interval sweep (Section 2.1): sticky counters
 * detect only one change per clear, so the clear period sets the
 * coverage/false-positive tradeoff of the baseline — frequent clears
 * re-arm detection (more coverage, more false positives), infrequent
 * clears leave the filters saturated (cheap but nearly blind).
 */

#include <iostream>
#include <utility>

#include "harness.hh"

using namespace fh;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseOptions(
        argc, argv, {.insts = 100000, .campaign = true});
    const std::vector<u64> intervals = {1000, 5000, 10000, 50000};
    const auto &benchmarks = opts.benchmarks;
    const u64 nb = benchmarks.size();

    // Each interval x benchmark cell's coverage and FP rate.
    const auto cells = bench::runCells(
        opts, intervals.size() * nb,
        [&](u64 j, const fault::CampaignConfig &cfg) {
            isa::Program prog = opts.program(benchmarks[j % nb], 2);
            auto det = filters::DetectorParams::pbfsSticky();
            det.pbfs.clearInterval = intervals[j / nb];
            auto params = bench::coreParams(det);
            return std::pair(
                fault::runCampaign(params, &prog, cfg).coverage(),
                bench::fpRateSteady(params, &prog, opts.insts));
        });

    TextTable table({"clear interval", "SDC coverage", "FP rate"});
    for (size_t i = 0; i < intervals.size(); ++i) {
        const auto cell = [&](u64 b) { return cells[i * nb + b]; };
        table.addRow(
            {std::to_string(intervals[i]),
             TextTable::pct(bench::mean(nb, [&](u64 b) {
                 return cell(b).first;
             })),
             TextTable::pct(bench::mean(nb, [&](u64 b) {
                 return cell(b).second;
             }), 3)});
    }

    std::cout << "PBFS sticky-counter flash-clear sweep (Section 2.1: "
                 "sticky filters detect one change per clear)\n\n";
    table.print(std::cout);
    return 0;
}
