/**
 * @file
 * Figure 8: (a) SDC coverage and (b) false-positive rates for PBFS,
 * PBFS-biased, FaultHound-backend, and full FaultHound.
 *
 * Expected shape (paper): PBFS low coverage (~30%) with negligible
 * false positives; PBFS-biased good coverage (~75-80%) but high
 * false-positive rates (~8%); FaultHound matches PBFS-biased's
 * coverage at much lower false-positive rates (~3%); FH-backend
 * covers only the back-end, so its overall coverage is lower than
 * full FaultHound's.
 */

#include <iostream>

#include "harness.hh"

using namespace fh;

int
main()
{
    auto cfg = bench::campaignConfig();
    const u64 fp_budget = bench::envInsts(120000);
    auto schemes = bench::fig8Schemes();
    auto benchmarks = bench::selectedBenchmarks();

    TextTable cov({"benchmark", "PBFS", "PBFS-biased", "FH-backend",
                   "FaultHound"});
    TextTable fp({"benchmark", "PBFS", "PBFS-biased", "FH-backend",
                  "FaultHound"});
    std::vector<std::vector<double>> cov_cols(schemes.size());
    std::vector<std::vector<double>> fp_cols(schemes.size());

    // Every benchmark x scheme cell is independent: run the cells on
    // an outer pool and give each campaign the rest of the budget.
    struct Cell
    {
        double cov = 0.0;
        double fp = 0.0;
    };
    std::vector<Cell> cells(benchmarks.size() * schemes.size());
    const auto split = bench::splitThreads(cells.size());
    cfg.threads = split.inner;
    exec::ThreadPool pool(split.outer);
    pool.parallelFor(cells.size(), [&](u64 j, unsigned) {
        const auto &info = benchmarks[j / schemes.size()];
        const auto &scheme = schemes[j % schemes.size()];
        isa::Program prog = bench::buildProgram(info, 2);
        auto params = bench::coreParams(scheme.params);
        cells[j].cov = fault::runCampaign(params, &prog, cfg).coverage();
        cells[j].fp = bench::fpRateSteady(params, &prog, fp_budget);
    });

    for (size_t b = 0; b < benchmarks.size(); ++b) {
        std::vector<std::string> cov_row{benchmarks[b].name};
        std::vector<std::string> fp_row{benchmarks[b].name};
        for (size_t s = 0; s < schemes.size(); ++s) {
            const Cell &cell = cells[b * schemes.size() + s];
            cov_cols[s].push_back(cell.cov);
            cov_row.push_back(TextTable::pct(cell.cov));
            fp_cols[s].push_back(cell.fp);
            fp_row.push_back(TextTable::pct(cell.fp, 2));
        }
        cov.addRow(cov_row);
        fp.addRow(fp_row);
    }

    auto addMean = [&](TextTable &t,
                       std::vector<std::vector<double>> &cols) {
        std::vector<std::string> row{"mean"};
        for (auto &c : cols)
            row.push_back(TextTable::pct(bench::mean(c)));
        t.addRow(row);
    };
    addMean(cov, cov_cols);
    addMean(fp, fp_cols);

    std::cout << "Figure 8(a): SDC coverage (" << cfg.injections
              << " injections per benchmark per scheme)\n(paper: PBFS "
                 "~30%, PBFS-biased ~75-80%, FH-backend < FaultHound "
                 "~75%)\n\n";
    cov.print(std::cout);

    std::cout << "\nFigure 8(b): false-positive rate, fraction of "
                 "committed instructions (fault-free run of "
              << fp_budget
              << " instructions)\n(paper: PBFS ~0%, PBFS-biased ~8%, "
                 "FaultHound ~3%)\n\n";
    fp.print(std::cout);
    return 0;
}
