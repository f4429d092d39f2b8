/**
 * @file
 * Table 1: the benchmark suite. Prints each synthetic workload with
 * its suite, archetype, footprint, and the instruction mix measured
 * from a short fault-free run on the baseline core.
 */

#include <iostream>

#include "harness.hh"

using namespace fh;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseOptions(argc, argv, {.insts = 100000});
    const auto rows = bench::runCells(
        opts, opts.benchmarks.size(),
        [&](u64 b, const fault::CampaignConfig &) {
            const auto &info = opts.benchmarks[b];
            isa::Program prog = opts.program(info, 2);
            auto params =
                bench::coreParams(filters::DetectorParams::none());
            pipeline::Core core =
                bench::runBudget(params, &prog, opts.insts);
            const auto &s = core.stats();
            const double n = static_cast<double>(s.committed);
            u64 seg_bytes =
                prog.segments.empty() ? 0 : prog.segments[0].size;
            return std::vector<std::string>{
                info.name, workload::to_string(info.suite),
                info.archetype, std::to_string(seg_bytes / 1024),
                TextTable::pct(s.committedLoads / n),
                TextTable::pct(s.committedStores / n),
                TextTable::pct(s.committedBranches / n),
                TextTable::pct(
                    s.mispredicts /
                    std::max(1.0, double(s.committedBranches)))};
        });
    TextTable table({"benchmark", "suite", "archetype", "KB/thread",
                     "loads", "stores", "branches", "mispred"});
    for (const auto &row : rows)
        table.addRow(row);

    std::cout << "Table 1: benchmarks (measured over " << opts.insts
              << " instructions, 2 SMT threads)\n\n";
    table.print(std::cout);
    return 0;
}
