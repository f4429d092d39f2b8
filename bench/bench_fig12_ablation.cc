/**
 * @file
 * Figure 12: isolating FaultHound's back-end mechanisms, overall mean
 * across all benchmarks.
 *
 *  left:  false-positive rate of FH-BE-nocluster-no2level (similar to
 *         PBFS-biased) -> FH-BE-no2level (adds clustering) -> FH-BE
 *         (adds the second-level filter); each step improves.
 *  mid:   performance overhead of FH-BE with full rollback vs with
 *         predecessor replay; replay is dramatically better.
 *  right: SDC coverage of FH-BE without vs with the LSQ commit check;
 *         covering the LSQ makes a significant difference.
 */

#include <iostream>

#include "harness.hh"

using namespace fh;

namespace
{

filters::DetectorParams
backendVariant(bool clustering, bool second_level, bool replay,
               bool lsq)
{
    auto p = filters::DetectorParams::faultHoundBackend();
    p.clustering = clustering;
    p.secondLevel = second_level;
    p.replayRecovery = replay;
    p.lsqCommitCheck = lsq;
    return p;
}

} // namespace

int
main()
{
    const u64 budget = bench::envInsts(120000);
    auto cfg = bench::campaignConfig();
    auto benchmarks = bench::selectedBenchmarks();

    // ---- left: false-positive rates ----
    struct FpVariant
    {
        std::string label;
        filters::DetectorParams params;
    };
    std::vector<FpVariant> fp_variants = {
        {"FH-BE-nocluster-no2level",
         backendVariant(false, false, true, true)},
        {"FH-BE-no2level", backendVariant(true, false, true, true)},
        {"FH-BE", backendVariant(true, true, true, true)},
    };

    // Each (variant, benchmark) cell of every section is independent;
    // reuse one outer pool for all three and shard the right-hand
    // campaigns' forks with the leftover budget.
    const auto split = bench::splitThreads(benchmarks.size());
    cfg.threads = split.inner;
    exec::ThreadPool pool(split.outer);

    TextTable fp({"variant", "false-positive rate"});
    for (const auto &variant : fp_variants) {
        std::vector<double> rates(benchmarks.size());
        pool.parallelFor(benchmarks.size(), [&](u64 b, unsigned) {
            isa::Program prog = bench::buildProgram(benchmarks[b], 2);
            rates[b] = bench::fpRateSteady(
                bench::coreParams(variant.params), &prog, budget);
        });
        fp.addRow({variant.label,
                   TextTable::pct(bench::mean(rates), 2)});
    }

    std::cout << "Figure 12 (left): impact of clustering and the "
                 "second-level filter on the false-positive rate "
                 "(mean over all benchmarks)\n\n";
    fp.print(std::cout);

    // ---- middle: full rollback vs replay performance ----
    std::vector<double> o_rollback(benchmarks.size());
    std::vector<double> o_replay(benchmarks.size());
    pool.parallelFor(benchmarks.size(), [&](u64 i, unsigned) {
        isa::Program prog = bench::buildProgram(benchmarks[i], 2);
        auto base = bench::runBudget(
            bench::coreParams(filters::DetectorParams::none()), &prog,
            budget);
        auto rb = bench::runBudget(
            bench::coreParams(backendVariant(true, true, false, true)),
            &prog, budget);
        auto rp = bench::runBudget(
            bench::coreParams(backendVariant(true, true, true, true)),
            &prog, budget);
        const double b = static_cast<double>(base.cycle());
        o_rollback[i] = static_cast<double>(rb.cycle()) / b - 1.0;
        o_replay[i] = static_cast<double>(rp.cycle()) / b - 1.0;
    });

    TextTable perf({"variant", "performance overhead"});
    perf.addRow({"FH-BE-full-rollback",
                 TextTable::pct(bench::mean(o_rollback))});
    perf.addRow({"FH-BE (replay)",
                 TextTable::pct(bench::mean(o_replay))});
    std::cout << "\nFigure 12 (middle): predecessor replay vs full "
                 "rollback (mean overhead over baseline)\n\n";
    perf.print(std::cout);

    // ---- right: LSQ coverage ----
    std::vector<double> cov_nolsq(benchmarks.size());
    std::vector<double> cov_lsq(benchmarks.size());
    pool.parallelFor(benchmarks.size(), [&](u64 i, unsigned) {
        isa::Program prog = bench::buildProgram(benchmarks[i], 2);
        auto r0 = fault::runCampaign(
            bench::coreParams(backendVariant(true, true, true, false)),
            &prog, cfg);
        auto r1 = fault::runCampaign(
            bench::coreParams(backendVariant(true, true, true, true)),
            &prog, cfg);
        cov_nolsq[i] = r0.coverage();
        cov_lsq[i] = r1.coverage();
    });

    TextTable cov({"variant", "SDC coverage"});
    cov.addRow({"FH-BE-noLSQ", TextTable::pct(bench::mean(cov_nolsq))});
    cov.addRow({"FH-BE", TextTable::pct(bench::mean(cov_lsq))});
    std::cout << "\nFigure 12 (right): impact of covering the LSQ on "
                 "SDC coverage (mean)\n\n";
    cov.print(std::cout);
    return 0;
}
