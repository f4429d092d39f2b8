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
#include <utility>

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
main(int argc, char **argv)
{
    const auto opts = bench::parseOptions(
        argc, argv, {.insts = 120000, .campaign = true});
    const u64 budget = opts.insts;
    const auto &benchmarks = opts.benchmarks;

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

    // Each (variant, benchmark) cell of every section is independent.
    const u64 nb = benchmarks.size();
    const auto rates = bench::runCells(
        opts, fp_variants.size() * nb,
        [&](u64 j, const fault::CampaignConfig &) {
            isa::Program prog = opts.program(benchmarks[j % nb], 2);
            return bench::fpRateSteady(
                bench::coreParams(fp_variants[j / nb].params), &prog,
                budget);
        });
    TextTable fp({"variant", "false-positive rate"});
    for (size_t v = 0; v < fp_variants.size(); ++v)
        fp.addRow({fp_variants[v].label,
                   TextTable::pct(bench::mean(nb, [&](u64 b) {
                       return rates[v * nb + b];
                   }), 2)});

    std::cout << "Figure 12 (left): impact of clustering and the "
                 "second-level filter on the false-positive rate "
                 "(mean over all benchmarks)\n\n";
    fp.print(std::cout);

    // ---- middle: full rollback vs replay performance ----
    const auto overheads = bench::runCells(
        opts, nb,
        [&](u64 i, const fault::CampaignConfig &) {
            isa::Program prog = opts.program(benchmarks[i], 2);
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
            return std::pair(static_cast<double>(rb.cycle()) / b - 1.0,
                             static_cast<double>(rp.cycle()) / b - 1.0);
        });
    TextTable perf({"variant", "performance overhead"});
    perf.addRow({"FH-BE-full-rollback",
                 TextTable::pct(bench::mean(nb, [&](u64 i) {
                     return overheads[i].first;
                 }))});
    perf.addRow({"FH-BE (replay)",
                 TextTable::pct(bench::mean(nb, [&](u64 i) {
                     return overheads[i].second;
                 }))});
    std::cout << "\nFigure 12 (middle): predecessor replay vs full "
                 "rollback (mean overhead over baseline)\n\n";
    perf.print(std::cout);

    // ---- right: LSQ coverage ----
    const auto coverages = bench::runCells(
        opts, 2 * nb, [&](u64 j, const fault::CampaignConfig &cfg) {
            isa::Program prog = opts.program(benchmarks[j % nb], 2);
            const bool lsq = j / nb == 1;
            return fault::runCampaign(
                       bench::coreParams(
                           backendVariant(true, true, true, lsq)),
                       &prog, cfg)
                .coverage();
        });
    TextTable cov({"variant", "SDC coverage"});
    for (const u64 lsq : {0, 1})
        cov.addRow({lsq ? "FH-BE" : "FH-BE-noLSQ",
                    TextTable::pct(bench::mean(nb, [&](u64 b) {
                        return coverages[lsq * nb + b];
                    }))});
    std::cout << "\nFigure 12 (right): impact of covering the LSQ on "
                 "SDC coverage (mean)\n\n";
    cov.print(std::cout);
    return 0;
}
