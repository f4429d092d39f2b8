/**
 * @file
 * Section 3 state-machine depth claim: "changing from two-bit to
 * three-bit state machine reduces the coverage from 80% to 60%" —
 * the deeper bias suppresses more true faults in intermediate states.
 * We sweep the per-bit counter flavor of FaultHound's TCAM filters and
 * report coverage and false-positive rates.
 */

#include <iostream>

#include "harness.hh"

using namespace fh;

int
main()
{
    auto cfg = bench::campaignConfig();
    const u64 budget = bench::envInsts(100000);

    struct Variant
    {
        std::string label;
        filters::CounterConfig counters;
    };
    std::vector<Variant> variants = {
        {"standard 2-bit (unbiased)", filters::CounterConfig::standard()},
        {"biased 2-bit (paper)", filters::CounterConfig::biased()},
        {"biased 3-bit (deeper)", filters::CounterConfig::biased3()},
    };

    // variant x benchmark cells are independent: outer pool over the
    // cells, leftover FH_THREADS budget into each cell's campaign.
    auto benchmarks = bench::selectedBenchmarks();
    const u64 ncells = variants.size() * benchmarks.size();
    std::vector<double> cov(ncells);
    std::vector<double> fp(ncells);
    const auto split = bench::splitThreads(ncells);
    cfg.threads = split.inner;
    exec::ThreadPool pool(split.outer);
    pool.parallelFor(ncells, [&](u64 j, unsigned) {
        const auto &variant = variants[j / benchmarks.size()];
        isa::Program prog =
            bench::buildProgram(benchmarks[j % benchmarks.size()], 2);
        auto det = filters::DetectorParams::faultHound();
        det.tcam.counters = variant.counters;
        auto params = bench::coreParams(det);
        cov[j] = fault::runCampaign(params, &prog, cfg).coverage();
        fp[j] = bench::fpRateSteady(params, &prog, budget);
    });

    TextTable table({"state machine", "SDC coverage", "FP rate"});
    for (size_t v = 0; v < variants.size(); ++v) {
        const auto cov_first = cov.begin() + v * benchmarks.size();
        const auto fp_first = fp.begin() + v * benchmarks.size();
        std::vector<double> cov_row(cov_first,
                                    cov_first + benchmarks.size());
        std::vector<double> fp_row(fp_first,
                                   fp_first + benchmarks.size());
        table.addRow({variants[v].label,
                      TextTable::pct(bench::mean(cov_row)),
                      TextTable::pct(bench::mean(fp_row), 2)});
    }

    std::cout << "State-machine depth ablation (Section 3)\n(paper: "
                 "deeper bias costs coverage, 80% -> 60%; the unbiased "
                 "machine has unacceptable false positives)\n\n";
    table.print(std::cout);
    return 0;
}
