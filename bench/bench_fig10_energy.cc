/**
 * @file
 * Figure 10: energy overhead over the fault-intolerant baseline for
 * FaultHound-backend, FaultHound, and SRT-iso. Expected shape:
 * FH-backend ~10%, FaultHound ~25% (rename-false-positive rollbacks
 * cost energy even when performance hides them), SRT-iso high (the
 * trailing copies' energy cannot be hidden).
 */

#include <iostream>

#include "energy/energy_model.hh"
#include "harness.hh"

using namespace fh;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseOptions(argc, argv, {.insts = 150000});
    const u64 budget = opts.insts;

    // Per benchmark: FH-backend's, FaultHound's and SRT-iso's overhead.
    const auto overheads = bench::runCells(
        opts, opts.benchmarks.size(),
        [&](u64 b, const fault::CampaignConfig &) {
            const auto &info = opts.benchmarks[b];
            isa::Program prog = opts.program(info, 2);
            auto base = bench::runBudget(
                bench::coreParams(filters::DetectorParams::none()), &prog,
                budget);
            const double base_energy = energy::computeEnergy(base).total();
            auto overhead = [&](const filters::DetectorParams &det) {
                auto core =
                    bench::runBudget(bench::coreParams(det), &prog, budget);
                return energy::computeEnergy(core).total() / base_energy -
                       1.0;
            };
            const isa::Program srt_prog = opts.program(info, 4);
            return std::vector<double>{
                overhead(filters::DetectorParams::faultHoundBackend()),
                overhead(filters::DetectorParams::faultHound()),
                energy::computeEnergy(bench::runSrt(srt_prog, budget))
                            .total() /
                        base_energy -
                    1.0};
        });

    std::cout << "Figure 10: energy overhead vs no-fault-tolerance "
                 "baseline\n(paper: FH-backend ~10%, FaultHound ~25%, "
                 "SRT-iso high)\n\n";
    bench::benchmarkTable(opts.benchmarks,
                          {"FH-backend", "FaultHound", "SRT-iso"},
                          [&](size_t b, size_t c) { return overheads[b][c]; })
        .print(std::cout);
    return 0;
}
