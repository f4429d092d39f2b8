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
#include "redundancy/srt.hh"

using namespace fh;

namespace
{

/** Cycles for the leading threads to commit the budget under SRT. */
u64
srtCycles(const workload::BenchmarkInfo &info, u64 budget,
          double coverage)
{
    isa::Program prog = bench::buildProgram(info, 4);
    pipeline::CoreParams base =
        bench::coreParams(filters::DetectorParams::none());
    pipeline::CoreParams params = redundancy::srtParams(base);
    pipeline::Core core(params, &prog);
    const u64 per_lead = budget / base.threads;
    redundancy::configureSrt(core, base.threads, {coverage}, per_lead);
    std::vector<u64> targets(core.numThreads(), 0);
    for (unsigned t = 0; t < base.threads; ++t) {
        core.threadOptions(t).stopAfterInsts = per_lead;
        targets[t] = per_lead;
    }
    core.runUntilCommitted(targets, budget * 200 + 1000000);
    return core.cycle();
}

} // namespace

int
main()
{
    const u64 budget = bench::envInsts(150000);
    const double srt_coverage = 0.75; // FaultHound's coverage level

    TextTable table({"benchmark", "PBFS", "PBFS-biased", "FH-backend",
                     "FaultHound", "SRT-iso"});
    std::vector<std::vector<double>> columns(5);

    for (const auto &info : bench::selectedBenchmarks()) {
        isa::Program prog = bench::buildProgram(info, 2);

        auto base = bench::runBudget(
            bench::coreParams(filters::DetectorParams::none()), &prog,
            budget);
        const double base_cycles = static_cast<double>(base.cycle());

        std::vector<std::string> row{info.name};
        unsigned col = 0;
        for (const auto &scheme : bench::fig8Schemes()) {
            auto core = bench::runBudget(bench::coreParams(scheme.params),
                                         &prog, budget);
            double overhead =
                static_cast<double>(core.cycle()) / base_cycles - 1.0;
            columns[col++].push_back(overhead);
            row.push_back(TextTable::pct(overhead));
        }

        double srt = static_cast<double>(
                         srtCycles(info, budget, srt_coverage)) /
                         base_cycles -
                     1.0;
        columns[4].push_back(srt);
        row.push_back(TextTable::pct(srt));
        table.addRow(row);
    }

    table.addRow({"mean", TextTable::pct(bench::mean(columns[0])),
                  TextTable::pct(bench::mean(columns[1])),
                  TextTable::pct(bench::mean(columns[2])),
                  TextTable::pct(bench::mean(columns[3])),
                  TextTable::pct(bench::mean(columns[4]))});

    std::cout << "Figure 9: performance degradation vs "
                 "no-fault-tolerance baseline (" << budget
              << " instructions)\n(paper: PBFS ~1%, PBFS-biased ~97%, "
                 "FH-backend < FaultHound ~10%, SRT-iso slightly "
                 "above FaultHound)\n\n";
    table.print(std::cout);
    return 0;
}
