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

#include "harness.hh"

using namespace fh;

int
main()
{
    const u64 budget = bench::envInsts(150000);

    std::array<std::array<u64, wordBits>, 3> changes{};
    std::array<u64, 3> samples{};

    for (const auto &info : bench::selectedBenchmarks()) {
        isa::Program prog = bench::buildProgram(info, 2);
        auto params =
            bench::coreParams(filters::DetectorParams::none());
        pipeline::Core core(params, &prog);
        core.probe().enabled = true;
        while (core.committedTotal() < budget && !core.allHalted())
            core.tick();
        const auto &probe = core.probe();
        for (unsigned s = 0; s < 3; ++s) {
            samples[s] += probe.samples[s];
            for (unsigned b = 0; b < wordBits; ++b)
                changes[s][b] += probe.bitChanges[s][b];
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
