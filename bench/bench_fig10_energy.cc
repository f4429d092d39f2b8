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
#include "redundancy/srt.hh"

using namespace fh;

namespace
{

double
srtEnergy(const workload::BenchmarkInfo &info, u64 budget,
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
    return energy::computeEnergy(core).total();
}

} // namespace

int
main()
{
    const u64 budget = bench::envInsts(150000);
    const double srt_coverage = 0.75;

    TextTable table(
        {"benchmark", "FH-backend", "FaultHound", "SRT-iso"});
    std::vector<std::vector<double>> columns(3);

    for (const auto &info : bench::selectedBenchmarks()) {
        isa::Program prog = bench::buildProgram(info, 2);

        auto base = bench::runBudget(
            bench::coreParams(filters::DetectorParams::none()), &prog,
            budget);
        const double base_energy = energy::computeEnergy(base).total();

        auto be = bench::runBudget(
            bench::coreParams(
                filters::DetectorParams::faultHoundBackend()),
            &prog, budget);
        auto fh = bench::runBudget(
            bench::coreParams(filters::DetectorParams::faultHound()),
            &prog, budget);

        double o_be =
            energy::computeEnergy(be).total() / base_energy - 1.0;
        double o_fh =
            energy::computeEnergy(fh).total() / base_energy - 1.0;
        double o_srt =
            srtEnergy(info, budget, srt_coverage) / base_energy - 1.0;

        columns[0].push_back(o_be);
        columns[1].push_back(o_fh);
        columns[2].push_back(o_srt);
        table.addRow({info.name, TextTable::pct(o_be),
                      TextTable::pct(o_fh), TextTable::pct(o_srt)});
    }

    table.addRow({"mean", TextTable::pct(bench::mean(columns[0])),
                  TextTable::pct(bench::mean(columns[1])),
                  TextTable::pct(bench::mean(columns[2]))});

    std::cout << "Figure 10: energy overhead vs no-fault-tolerance "
                 "baseline\n(paper: FH-backend ~10%, FaultHound ~25%, "
                 "SRT-iso high)\n\n";
    table.print(std::cout);
    return 0;
}
