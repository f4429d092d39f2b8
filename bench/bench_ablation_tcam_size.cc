/**
 * @file
 * TCAM size sweep (Section 3.1): 16-32 entries suffice for good
 * coverage even for the commercial workloads, and leslie3d's coverage
 * improves with larger filters (Section 5.2).
 */

#include <iostream>

#include "energy/cacti_lite.hh"
#include "harness.hh"

using namespace fh;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseOptions(argc, argv, {.campaign = true});
    const std::vector<unsigned> sizes = {8, 16, 32, 64};
    const auto &benchmarks = opts.benchmarks;

    // Each benchmark x size cell's coverage.
    const auto cells = bench::runCells(
        opts, benchmarks.size() * sizes.size(),
        [&](u64 j, const fault::CampaignConfig &cfg) {
            isa::Program prog =
                opts.program(benchmarks[j / sizes.size()], 2);
            auto det = filters::DetectorParams::faultHound();
            det.tcam.entries = sizes[j % sizes.size()];
            return fault::runCampaign(bench::coreParams(det), &prog, cfg)
                .coverage();
        });
    std::vector<std::string> columns;
    for (unsigned n : sizes)
        columns.push_back(std::to_string(n));

    std::cout << "SDC coverage vs TCAM entries (Section 3.1: 16-32 "
                 "entries suffice; leslie improves with larger "
                 "filters)\n\n";
    bench::benchmarkTable(benchmarks, columns, [&](size_t b, size_t i) {
        return cells[b * sizes.size() + i];
    }).print(std::cout);

    // Filter energy scaling: the small-TCAM cost argument.
    TextTable energy({"entries", "energy/access (units)"});
    for (unsigned n : {8u, 16u, 32u, 64u, 2048u}) {
        energy.addRow({std::to_string(n),
                       TextTable::num(
                           fh::energy::tcamAccessEnergy(n, 192), 4)});
    }
    std::cout << "\nTCAM access energy scaling (CACTI-lite; PBFS's "
                 "2K-entry SRAM table costs "
              << TextTable::num(fh::energy::sramAccessEnergy(2048, 192),
                                3)
              << " units/access)\n\n";
    energy.print(std::cout);
    return 0;
}
