/**
 * @file
 * Figure 6: percent of values that differ from the previous value (of
 * the same static instruction) in each bit position, for load
 * addresses, store addresses, and store values, aggregated over all
 * benchmarks. The paper's takeaways to reproduce: most bit positions
 * change in under 1% of writes (high value locality) and a few
 * low-order bit positions change much more often.
 */

#include <array>
#include <iostream>
#include <utility>

#include "harness.hh"

using namespace fh;

int
main(int argc, char **argv)
{
    const auto opts = bench::parseOptions(argc, argv, {.insts = 150000});

    // Each benchmark's per-bit change counts and sample counts.
    const auto probes = bench::runCells(
        opts, opts.benchmarks.size(),
        [&](u64 b, const fault::CampaignConfig &) {
            isa::Program prog = opts.program(opts.benchmarks[b], 2);
            auto params =
                bench::coreParams(filters::DetectorParams::none());
            pipeline::Core core(params, &prog);
            core.probe().enabled = true;
            while (core.committedTotal() < opts.insts && !core.allHalted())
                core.tick();
            return std::pair(core.probe().bitChanges,
                             core.probe().samples);
        });
    std::array<std::array<u64, wordBits>, 3> changes{};
    std::array<u64, 3> samples{};
    for (const auto &[bits, n] : probes) {
        for (unsigned s = 0; s < 3; ++s) {
            samples[s] += n[s];
            for (unsigned b = 0; b < wordBits; ++b)
                changes[s][b] += bits[s][b];
        }
    }

    TextTable table({"bit", "load-addr %", "store-addr %",
                     "store-value %"});
    for (unsigned b = 0; b < wordBits; ++b) {
        std::vector<std::string> row{std::to_string(b)};
        for (unsigned s = 0; s < 3; ++s) {
            double pct = samples[s]
                             ? 100.0 * static_cast<double>(changes[s][b]) /
                                   static_cast<double>(samples[s])
                             : 0.0;
            row.push_back(TextTable::num(pct, 3));
        }
        table.addRow(row);
    }

    std::cout << "Figure 6: percent change per bit position "
                 "(all benchmarks combined)\n\n";
    table.print(std::cout);

    // Summary statistics the paper quotes.
    for (unsigned s = 0; s < 3; ++s) {
        unsigned under1 = 0;
        double avg_bits = 0.0;
        for (unsigned b = 0; b < wordBits; ++b) {
            double frac = samples[s]
                              ? static_cast<double>(changes[s][b]) /
                                    static_cast<double>(samples[s])
                              : 0.0;
            if (frac < 0.01)
                ++under1;
            avg_bits += frac;
        }
        static const char *names[] = {"load-addr", "store-addr",
                                      "store-value"};
        std::cout << "\n" << names[s] << ": " << under1
                  << "/64 bit positions change in <1% of writes; "
                  << "avg " << TextTable::num(avg_bits, 2)
                  << " changed bits per write";
    }
    std::cout << "\n(paper: most bits <1%, ~3 bits change per 64-bit "
                 "write on average)\n";
    return 0;
}
