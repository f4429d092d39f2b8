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
main()
{
    auto cfg = bench::campaignConfig();
    const u64 budget = bench::envInsts(100000);
    const std::vector<unsigned> sizes = {8, 16, 32, 64};

    TextTable table({"benchmark", "8", "16", "32", "64"});
    std::vector<std::vector<double>> cols(sizes.size());

    // benchmark x size cells are independent: outer pool over the
    // cells, leftover FH_THREADS budget into each cell's campaign.
    auto benchmarks = bench::selectedBenchmarks();
    const u64 ncells = benchmarks.size() * sizes.size();
    std::vector<double> cells(ncells);
    const auto split = bench::splitThreads(ncells);
    cfg.threads = split.inner;
    exec::ThreadPool pool(split.outer);
    pool.parallelFor(ncells, [&](u64 j, unsigned) {
        isa::Program prog =
            bench::buildProgram(benchmarks[j / sizes.size()], 2);
        auto det = filters::DetectorParams::faultHound();
        det.tcam.entries = sizes[j % sizes.size()];
        auto params = bench::coreParams(det);
        cells[j] = fault::runCampaign(params, &prog, cfg).coverage();
    });

    for (size_t b = 0; b < benchmarks.size(); ++b) {
        std::vector<std::string> row{benchmarks[b].name};
        for (size_t i = 0; i < sizes.size(); ++i) {
            const double cov = cells[b * sizes.size() + i];
            cols[i].push_back(cov);
            row.push_back(TextTable::pct(cov));
        }
        table.addRow(row);
    }
    std::vector<std::string> mean_row{"mean"};
    for (auto &c : cols)
        mean_row.push_back(TextTable::pct(bench::mean(c)));
    table.addRow(mean_row);

    std::cout << "SDC coverage vs TCAM entries (Section 3.1: 16-32 "
                 "entries suffice; leslie improves with larger "
                 "filters)\n\n";
    table.print(std::cout);

    // Filter energy scaling: the small-TCAM cost argument.
    TextTable energy({"entries", "energy/access (units)"});
    (void)budget;
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
