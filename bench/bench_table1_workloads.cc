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
main()
{
    const u64 budget = bench::envInsts(100000);
    TextTable table({"benchmark", "suite", "archetype", "KB/thread",
                     "loads", "stores", "branches", "mispred"});

    for (const auto &info : bench::selectedBenchmarks()) {
        isa::Program prog = bench::buildProgram(info, 2);
        auto params =
            bench::coreParams(filters::DetectorParams::none());
        pipeline::Core core = bench::runBudget(params, &prog, budget);
        const auto &s = core.stats();
        const double n = static_cast<double>(s.committed);
        u64 seg_bytes = prog.segments.empty() ? 0
                                              : prog.segments[0].size;
        table.addRow({info.name, workload::to_string(info.suite),
                      info.archetype,
                      std::to_string(seg_bytes / 1024),
                      TextTable::pct(s.committedLoads / n),
                      TextTable::pct(s.committedStores / n),
                      TextTable::pct(s.committedBranches / n),
                      TextTable::pct(
                          s.mispredicts /
                          std::max(1.0, double(s.committedBranches)))});
    }

    std::cout << "Table 1: benchmarks (measured over " << budget
              << " instructions, 2 SMT threads)\n\n";
    table.print(std::cout);
    return 0;
}
